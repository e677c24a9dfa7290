"""cmvkit at a base commit against cmvkit here, surface by surface.

    PYTHONPATH=src python tests/against_base.py dump head-dump.npz
    PYTHONPATH=base-tree/src python tests/against_base.py dump base-dump.npz head-dump.npz
    python tests/against_base.py compare base-dump.npz head-dump.npz \\
        BASE_BUNDLED_REPORT HEAD_BUNDLED_REPORT BASE_MIXED_REPORT HEAD_MIXED_REPORT

``dump`` writes each surface below, of the same seeded inputs at any commit,
to one .npz keyed "surface/group/name", and the signatures and each surface
that raised to a .json beside it; the base takes amplitudes and resolvents
of the head's builds and certifies the head's overlap arrays.  ``compare``
prints every check, then exits 1 on any that fails.
"""

import json
import sys
import traceback
from pathlib import Path

import numpy as np

# surface -> largest allowed entry difference; None only prints
BOUNDS = {"build": None, "amplitudes": 1e-13, "resolvent": 1e-13, "overlap": 1e-15, "certificate": 1e-14,
          "forward": 1e-12, "superposition": 1e-13, "iterates": 1e-14}


def build_specs():
    """The four families at d 1-3 of seeded terminal sets of 0-8 parameters."""
    from cmvkit.cmv import BlockOperatorSpec
    from cmvkit.schur import random_parameters

    for d in (1, 2, 3):
        for length in range(9):
            p = random_parameters(d, length, np.random.default_rng([d, length]), terminal=True)
            for family in ("C", "Chat", "H", "Hhat"):
                yield f"{family} d={d}", f"length={length}", BlockOperatorSpec(p, family, length + 1)


def builds():
    """The matrix of each operator of build_specs."""
    from cmvkit.cmv import build

    for group, name, spec in build_specs():
        yield group, name, build(spec)


def block_ranges(dumped):
    """Each dumped build with each of its block ranges j-k as a subspace."""
    operators = [(*key.split("/")[1:], dumped[key]) for key in dumped if key.startswith("build/")]
    if not operators:
        raise LookupError("no builds to take subspaces of")
    for group, name, u in operators:
        d = int(group.split()[1][2:])
        blocks = u.shape[0] // d
        for j in range(blocks):
            for k in range(j, blocks):
                yield group, f"{name} v={j}-{k}", u, tuple(range(j * d, (k + 1) * d))


# horizons whose stacks must be prefixes of horizon 65's: every 8q + 1
# that schur_of_subspace asks for below order 57, and 48, which it asked
# for at every order up to 47 before its exact-tail ring check
PREFIX_HORIZONS = (9, 17, 25, 33, 41, 48, 49, 57)


def amplitudes(dumped):
    """First-return amplitudes of dumped builds on every block range at
    horizon 65.  The stack at each of PREFIX_HORIZONS must be their first
    entries bit for bit, so it is checked here, at each commit, and not
    dumped."""
    from cmvkit.spectral import first_return_amplitudes

    for group, name, u, v in block_ranges(dumped):
        long = first_return_amplitudes(u, v, 65)
        for h in PREFIX_HORIZONS:
            if not np.array_equal(first_return_amplitudes(u, v, h), long[:h]):
                raise AssertionError(f"{group} {name}: horizon {h} is not the first {h} amplitudes of horizon 65")
        yield group, f"{name} h=65", long


def resolvents(dumped):
    """The resolvent cross-check's values at RESOLVENT_SAMPLES, of dumped
    builds on every block range."""
    import inspect

    from cmvkit.spectral import RESOLVENT_SAMPLES, resolvent_compression

    # a base whose resolvent_compression still takes the points as ``z``
    points = (RESOLVENT_SAMPLES,) if "z" in inspect.signature(resolvent_compression).parameters else ()
    for group, name, u, v in block_ranges(dumped):
        yield group, name, resolvent_compression(u, v, *points)


def overlaps():
    """construct_overlap of a dense product, written here, of the factored
    catalog fixtures and of seeded factors over permuted partitions."""
    from cmvkit import catalog
    from cmvkit.overlap import OverlapFactorization, SubspacePartition, construct_overlap
    from cmvkit.schur import random_unitary

    def dense(fact):
        part, n = fact.partition, fact.partition.ambient_dim
        lc, cr = np.eye(n, dtype=complex), np.eye(n, dtype=complex)
        lc[np.ix_(part.lc, part.lc)] = fact.u_lc
        cr[np.ix_(part.cr, part.cr)] = fact.u_cr
        return lc @ cr

    sources = {("catalog", name): getattr(catalog, name)() for name in (
        "double_diffusion_six", "double_diffusion_five", "coined_walk_six", "coined_walk_six_alternate")}
    for nl, nc, nr in np.ndindex(5, 5, 5):
        rng = np.random.default_rng([nl, nc, nr])
        order = rng.permutation(nl + nc + nr)
        part = SubspacePartition(nl + nc + nr, order[:nl], order[nl : nl + nc], order[nl + nc :])
        sources["random", f"{nl}{nc}{nr}"] = OverlapFactorization(
            part, random_unitary(nl + nc, rng), random_unitary(nc + nr, rng))
    for (kind, name), source in sources.items():
        fact = construct_overlap(dense(source), source.partition)
        for part, a in (("source product", source.product()), ("u_lc", fact.u_lc), ("u_cr", fact.u_cr),
                        ("product", fact.product())):
            yield f"{kind} {part}", name, a


def certificates(dumped):
    """Unitarity residuals: build_unitary's Theta-block bound of each
    build, and certify's residual of each dumped overlap array (the source
    product, both factors and their product)."""
    from cmvkit.cmv import build_unitary
    from cmvkit.linalg import certify

    for group, name, spec in build_specs():
        yield f"build {group}", name, np.array(build_unitary(spec).residual)
    for key in (k for k in dumped if k.startswith("overlap/")):
        _, group, name = key.split("/")
        yield f"overlap {group}", name, np.array(certify(dumped[key]).residual)


def forward():
    """Parameters and terminal peeled off series of seeded open and terminal sets."""
    from cmvkit.schur import random_parameters, schur_forward, synthesize

    for d in (1, 2, 3):
        for length in range(9):
            for terminal in (False, True) if length else (True,):
                p = random_parameters(d, length, np.random.default_rng([d, length, terminal]), terminal)
                for order in (16, 64):
                    back = schur_forward(synthesize(p, order), length + terminal)
                    found = back.alphas + ((back.terminal,) if back.finite else ())
                    yield f"d={d}", f"length={length} terminal={terminal} order={order}", np.array(found)


def iterates():
    """Every iterate_series and inverse_iterate_series of seeded terminal
    sets of 0-8 parameters and open sets of 1-8 and 20 (d 1-3), at orders
    0, 1, 12 and 64, each order's requests in a seeded shuffled order."""
    from cmvkit.schur import inverse_iterate_series, iterate_series, random_parameters

    sets = [(length, True) for length in range(9)] + [(length, False) for length in (*range(1, 9), 20)]
    for d in (1, 2, 3):
        for length, terminal in sets:
            p = random_parameters(d, length, np.random.default_rng([d, length, terminal, 36]), terminal)
            for order in (0, 1, 12, 64):
                requests = [("f", j) for j in range(length + terminal)] + [("b", j) for j in range(length + 1)]
                np.random.default_rng([d, length, terminal, order]).shuffle(requests)
                for kind, j in requests:
                    fn = iterate_series if kind == "f" else inverse_iterate_series
                    yield f"d={d}", f"length={length} terminal={terminal} order={order} {kind}_{j}", fn(p, j, order).coeffs


def superpositions():
    """Both routes of both two-site superposition functions at orders 12
    and 64, four weights each: the Hessenberg one at every j of seeded
    terminal sets of 1-6 parameters, the five-diagonal one at j 0-3 of
    seeded open sets."""
    from cmvkit.khrushchev import SUPERPOSITION_ROUTES, hessenberg_superposition, scalar_superposition_schur
    from cmvkit.schur import random_parameters

    weights = ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (0.28j, -0.96))
    for order in (12, 64):
        cases = [("H", f"length={n}", hessenberg_superposition, n,
                  random_parameters(1, n, np.random.default_rng([n, order]), terminal=True)) for n in range(1, 7)]
        cases += [("C", f"seed={seed}", scalar_superposition_schur, 4,
                   random_parameters(1, order + 8, np.random.default_rng([seed, order]))) for seed in range(3)]
        for family, name, fn, js, p in cases:
            for j in range(js):
                for w, (beta, gamma) in enumerate(weights):
                    for route in SUPERPOSITION_ROUTES:
                        yield f"{family} order={order}", f"{name} j={j} w={w} {route}", \
                            fn(p, j, beta, gamma, order, route=route).coeffs


def signatures():
    """Signatures of cmvkit.__all__ and its classes' public methods, and
    every command's options."""
    import inspect

    import click
    import cmvkit
    from cmvkit import cli

    sigs = {}
    for name in cmvkit.__all__:
        obj = getattr(cmvkit, name)
        fns = [(name, obj)]
        if inspect.isclass(obj):
            fns += [(f"{name}.{attr}", getattr(m, "__func__", m)) for attr, m in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(getattr(m, "__func__", m))]
        for key, fn in fns:
            try:
                sigs[key] = inspect.signature(fn)
            except (TypeError, ValueError):
                pass
    options = {}

    def walk(cmd, path):
        for p in cmd.params:
            if isinstance(p, click.Option):
                options[f"{path} {'/'.join(p.opts)}"] = f"{p.type.name} default {p.default!r}"
        for sub, child in sorted(getattr(cmd, "commands", {}).items()):
            walk(child, f"{path} {sub}")

    walk(cli.main, "cmvkit")
    defaults = sum(p.default is not inspect.Parameter.empty for s in sigs.values() for p in s.parameters.values())
    return {"signatures": {k: str(s) for k, s in sigs.items()}, "options": options, "defaults": defaults}


def dump(path, builds_from=None):
    """Every surface into path; one that raises is left out and named."""
    arrays, meta = {}, {"failed": {}}

    def run(surface, make):
        try:
            return make()
        except Exception as exc:  # the commit under test may lack or break any surface
            traceback.print_exc()
            meta["failed"][surface] = f"{type(exc).__name__}: {exc}"
            return {}

    def dumped():
        return np.load(builds_from) if builds_from else arrays

    surfaces = {"build": builds, "amplitudes": lambda: amplitudes(dumped()), "resolvent": lambda: resolvents(dumped()),
                "overlap": overlaps, "certificate": lambda: certificates(dumped()), "forward": forward,
                "superposition": superpositions, "iterates": iterates}
    for surface, items in surfaces.items():
        arrays.update(run(surface, lambda: {f"{surface}/{group}/{name}": a for group, name, a in items()}))
    meta.update(run("signatures", signatures))
    np.savez(path, **arrays)
    Path(path).with_suffix(".json").write_text(json.dumps(meta, indent=1, sort_keys=True))


def compare_surface(surface, bound, old, new, failed):
    """Print the largest difference per group of one surface and, if it is
    bounded, how many entries differ at all; True if a bounded surface fails.  ``failed`` names the sides where it raised."""
    if failed:
        print(f"{surface}: not dumped at the {' and '.join(failed)}")
        return bound is not None
    old_keys, new_keys = ({k for k in arrays if k.split("/")[0] == surface} for arrays in (old, new))
    bad = old_keys != new_keys
    if bad:
        print(f"{surface}: {len(old_keys - new_keys)} keys only at the base, {len(new_keys - old_keys)} only here")
    worst, differ, total = {}, 0, 0
    for key in (k for k in new if k in old_keys):
        a, b = old[key], new[key]
        if a.shape != b.shape:
            print(f"{key}: shape {a.shape} at the base, {b.shape} here")
            bad = True
        else:
            group = key.split("/")[1]
            worst[group] = np.maximum(worst.get(group, 0.0), np.abs(b - a).max(initial=0.0))
            differ, total = differ + np.count_nonzero(a != b), total + a.size
    for group, diff in worst.items():
        print(f"{surface} {group}: largest difference {diff:.3e}")
    if bound is not None:
        print(f"{surface}: {differ} of {total} entries differ")
    return bound is not None and (bad or not all(diff <= bound for diff in worst.values()))


def print_signatures(old, new):
    if "signatures" not in old or "signatures" not in new:
        print("signatures: not dumped at both commits")
        return
    for kind in ("signatures", "options"):
        for key in sorted(old[kind].keys() | new[kind].keys()):
            if old[kind].get(key) != new[kind].get(key):
                print(f"{kind[:-1]} {key}: base {old[kind].get(key, '(none)')}, head {new[kind].get(key, '(none)')}")
    for side, meta in (("base", old), ("head", new)):
        print(f"{side}: {meta['defaults']} parameters with defaults over {len(meta['signatures'])} "
              f"signatures; {len(meta['options'])} command options")


def compare_campaign(name, base_report, head_report):
    """True if the report count changed or a report passing at the base fails."""
    old, new = ([r for job in json.loads(Path(p).read_text())["jobs"] for r in job.get("reports", [])]
                for p in (base_report, head_report))
    if len(old) != len(new):
        print(f"{name}: {len(old)} reports at the base, {len(new)} here")
        return True
    moves = [abs(b["residual"] - a["residual"]) for a, b in zip(old, new) if b["residual"] != a["residual"]]
    print(f"{name}: {len(new)} reports, {len(moves)} residuals moved, largest change {max(moves, default=0.0):.3e}")
    other = [(i, keys) for i, (a, b) in enumerate(zip(old, new))
             if (keys := sorted(k for k in a.keys() | b.keys() if k != "residual" and a.get(k) != b.get(k)))]
    print(f"{name}: {len(other)} reports differ in a field other than residual")
    for i, keys in other[:5]:
        print(f"{name}: report {i} differs in {', '.join(keys)}: {new[i]['params']}")
    broken = [i for i, (a, b) in enumerate(zip(old, new)) if a["pass"] and not b["pass"]]
    for i in broken:
        print(f"{name}: report {i} passes at the base and fails here: {new[i]['params']}")
    return bool(broken)


def compare(base_path, head_path, *reports):
    """The exit status, once every surface, the signatures and the bundled
    and mixed campaigns (base and head report paths of each) are printed."""
    old_meta, new_meta = (json.loads(Path(p).with_suffix(".json").read_text()) for p in (base_path, head_path))
    sides = (("base", old_meta), ("head", new_meta))
    with np.load(base_path) as old, np.load(head_path) as new:
        bad = [compare_surface(surface, bound, old, new, [side for side, meta in sides if surface in meta["failed"]])
               for surface, bound in BOUNDS.items()]
    print_signatures(old_meta, new_meta)
    bad += [compare_campaign(name, *pair) for name, pair in zip(("bundled", "mixed"), zip(reports[::2], reports[1::2]))]
    return int(any(bad))


if __name__ == "__main__":
    command, *paths = sys.argv[1:] or [""]
    if (command, len(paths)) not in (("dump", 1), ("dump", 2), ("compare", 6)):
        sys.exit(__doc__)
    sys.exit(dump(*paths) if command == "dump" else compare(*paths))
