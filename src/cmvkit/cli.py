"""Command line front end.

Builds five-diagonal and Hessenberg operators from parameter files,
computes first-return statistics of subspaces, checks and constructs
overlapping factorizations, and runs verification campaigns that
compare the factorization formulas against independent routes.

A verification job is parsed here and checked in `khrushchev`, which
makes every report: each `JOB_KINDS` row types, expands and validates a
job's fields and returns closures over `khrushchev.verify_*` functions
or `khrushchev.CLOSED_FORM_CASES`.  A new theorem tag is one row here
plus one verifier there; `catalog` stays data.

Exit codes: 0 all checks pass, 1 a verification or a campaign job failed,
2 bad input (unparseable files, broken invariants, missing options, an
`--out` that names a directory or sits in a missing one); a campaign checks
every job before it runs any, so a refusal at parse time means nothing
ran.  Commands raise and never exit on an error: `_ExitCodes`, the class
of `main`, runs every command and turns an `ArithmeticError` into exit 1
and a `PARSE_ERRORS` member into exit 2, printing `error: <message>`.
"""

from __future__ import annotations

import io
import json
import math
import sys
from functools import partial
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import khrushchev
from .cmv import CMV_FAMILIES, FAMILIES, HESSENBERG_FAMILIES, BlockOperatorSpec, build
from .linalg import as_integer, certify, matrix_from_json, matrix_to_json
from .overlap import SubspacePartition, check_overlap, construct_overlap
from .schur import (parameters_from_json, parameters_to_json, random_parameters,
                    schur_forward, synthesize)
from .series import MatrixPowerSeries
from .spectral import return_statistics

SCHEMA_VERSION = 1

PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, OSError,
                json.JSONDecodeError)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except PARSE_ERRORS as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _emit(payload, out: str | None) -> None:
    _emit_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


def _indices(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(tok) for tok in raw.split(","))


def _finite(value) -> bool:
    """True for an int or float within double range; bools are not numbers."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _tolerance(value, what: str = "'tolerance'") -> float:
    """A verification tolerance: a finite, nonnegative int or float."""
    if not (_finite(value) and value >= 0):
        raise ValueError(f"{what} must be a finite nonnegative number, "
                         f"got {value!r}")
    return float(value)


def _flag(job, key: str, default: bool) -> bool:
    """A JSON boolean field of a job, or the default when it is absent."""
    value = job.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"'{key}' must be true or false, got {value!r}")
    return value


def _as_complex(job, key: str, default: float) -> complex:
    """A complex field of a job: a finite number or an [re, im] pair."""
    value = job.get(key, default)
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0]
    if not all(_finite(x) for x in parts):
        raise ValueError(f"'{key}' must be a number or an [re, im] pair of "
                         f"numbers, got {value!r}")
    return complex(float(parts[0]), float(parts[1]))


class _ExitCodes(click.Group):
    """The one exit-code policy: every command runs inside `invoke`."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ArithmeticError, *PARSE_ERRORS) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1 if isinstance(exc, ArithmeticError) else 2)


@click.group(cls=_ExitCodes)
@click.option("--tol", type=float, default=khrushchev.DEFAULT_TOL, show_default=True,
              help="default verification tolerance")
@click.option("--order", type=int, default=16, show_default=True,
              help="default series truncation order")
@click.option("--seed", type=int, default=0, show_default=True,
              help="seed for randomized inputs")
@click.option("--out", type=click.Path(), default=None,
              help="write output here instead of stdout")
@click.pass_context
def main(ctx, tol, order, seed, out):
    """Schur functions of unitary operators and their factorizations."""
    if order < 0:
        raise ValueError("--order must be nonnegative")
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError("--tol must be finite and nonnegative")
    # refused before any command runs, so no work is lost on a bad path
    if out and (Path(out).is_dir() or not Path(out).absolute().parent.is_dir()):
        raise ValueError(f"--out must name a file in an existing directory, got {out!r}")
    ctx.obj = {"tol": tol, "order": order, "seed": seed, "out": out}


# ---------------------------------------------------------------------------
# cmv build


@main.group()
def cmv():
    """Block five-diagonal and Hessenberg operator construction."""


@cmv.command("build")
@click.option("--params", "params_path", required=True, type=click.Path(),
              help="parameter sequence JSON")
@click.option("--family", type=click.Choice(FAMILIES), default="C",
              show_default=True)
@click.option("--blocks", type=int, default=None,
              help="block rows; defaults to len+1 for terminated sequences")
@click.pass_context
def cmv_build(ctx, params_path, family, blocks):
    """Build the operator matrix and print it as JSON."""
    params = parameters_from_json(_load_json(params_path))
    if blocks is None:
        if not params.finite:
            raise ValueError("open-ended sequences need an explicit --blocks")
        blocks = len(params) + 1
    spec = BlockOperatorSpec(params, family, blocks)
    matrix = build(spec)
    _emit(matrix_to_json(matrix), ctx.obj["out"])


# ---------------------------------------------------------------------------
# schur params | synthesize


@main.group()
def schur():
    """Parameter extraction and series synthesis."""


@schur.command("params")
@click.option("--coeffs", "coeffs_path", required=True, type=click.Path(),
              help="series coefficients CSV (n,row,col,re,im)")
@click.option("--steps", type=int, default=8, show_default=True)
@click.pass_context
def schur_params(ctx, coeffs_path, steps):
    """Run the parameter recursion on a series read from CSV."""
    series = MatrixPowerSeries.from_csv(coeffs_path).mark_schur()
    params = schur_forward(series, steps)
    _emit(parameters_to_json(params), ctx.obj["out"])


@schur.command("synthesize")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.pass_context
def schur_synthesize(ctx, params_path):
    """Rebuild the series from a parameter sequence; CSV output."""
    params = parameters_from_json(_load_json(params_path))
    series = synthesize(params, ctx.obj["order"])
    buf = io.StringIO()
    series.to_csv(buf)
    _emit_text(buf.getvalue(), ctx.obj["out"])


# ---------------------------------------------------------------------------
# walk return


@main.group()
def walk():
    """First-return statistics of quantum walks."""


@walk.command("return")
@click.option("--matrix", "matrix_path", required=True, type=click.Path(),
              help="unitary matrix JSON")
@click.option("--indices", required=True,
              help="comma-separated indices spanning the return subspace")
@click.option("--state", default=None,
              help="comma-separated complex amplitudes inside the subspace; "
                   "defaults to the first spanning vector")
@click.option("--horizon", type=int, default=None,
              help="number of return steps; defaults to --order")
@click.pass_context
def walk_return(ctx, matrix_path, indices, state, horizon):
    """Return probabilities, their cumulative sum and the partial mean time."""
    u = certify(matrix_from_json(_load_json(matrix_path)))
    v = _indices(indices)
    if not v:
        raise ValueError("--indices must name at least one index")
    if state is None:
        psi = np.zeros(len(v), dtype=np.complex128)
        psi[0] = 1.0
    else:
        psi = np.array([complex(tok) for tok in state.split(",")],
                       dtype=np.complex128)
        norm = float(np.linalg.norm(psi))
        if not 0.0 < norm < math.inf:  # NaN fails too
            raise ValueError("--state must be a nonzero finite vector")
        psi = psi / norm
    h = horizon if horizon is not None else ctx.obj["order"]
    stats = return_statistics(u, v, psi, h)
    payload = {
        "schema": SCHEMA_VERSION,
        "indices": list(v),
        "state": [[float(c.real), float(c.imag)] for c in psi],
        "horizon": h,
        "probabilities": [float(p) for p in stats.probabilities],
        "cumulative": float(stats.cumulative),
        "partial_expected_time": float(stats.partial_expected_time),
    }
    _emit(payload, ctx.obj["out"])


# ---------------------------------------------------------------------------
# overlap check | construct


def _partition_options(fn):
    fn = click.option("--right", default="", help="comma-separated indices")(fn)
    fn = click.option("--center", default="", help="comma-separated indices")(fn)
    fn = click.option("--left", default="", help="comma-separated indices")(fn)
    fn = click.option("--matrix", "matrix_path", required=True,
                      type=click.Path(), help="unitary matrix JSON")(fn)
    return fn


@main.group()
def overlap():
    """Overlapping factorizations of explicit unitaries."""


def _checked_partition(matrix_path, left, center, right):
    """Read and certify the matrix, read the partition, and run the corner
    and rank test; returns the certified matrix and the partition with the
    test's JSON payload."""
    u = certify(matrix_from_json(_load_json(matrix_path)))
    part = SubspacePartition(u.matrix.shape[0], _indices(left),
                             _indices(center), _indices(right))
    chk = check_overlap(u, part)
    payload = {
        "schema": SCHEMA_VERSION,
        "ok": bool(chk.ok),
        "corner_norm": float(chk.corner_norm),
        "corner_tol": float(chk.corner_tol),
        "rank": int(chk.rank),
        "center_dim": int(chk.center_dim),
    }
    return u, part, chk.ok, payload


@overlap.command("check")
@_partition_options
@click.pass_context
def overlap_check(ctx, matrix_path, left, center, right):
    """Corner and rank test for an overlapping factorization."""
    _, _, ok, payload = _checked_partition(matrix_path, left, center, right)
    _emit(payload, ctx.obj["out"])
    sys.exit(0 if ok else 1)


@overlap.command("construct")
@_partition_options
@click.pass_context
def overlap_construct(ctx, matrix_path, left, center, right):
    """Build the two factors and report the reconstruction residual."""
    u, part, ok, payload = _checked_partition(matrix_path, left, center, right)
    if not ok:
        _emit(payload, ctx.obj["out"])
        sys.exit(1)
    fact = construct_overlap(u, part)
    residual = float(fact.reconstruction_residual(u.matrix))
    payload = {
        "schema": SCHEMA_VERSION,
        "ok": True,
        "lc": list(part.lc),
        "cr": list(part.cr),
        "u_lc": matrix_to_json(fact.u_lc),
        "u_cr": matrix_to_json(fact.u_cr),
        "residual": residual,
    }
    _emit(payload, ctx.obj["out"])


# ---------------------------------------------------------------------------
# job parsing shared by `verify` and `campaign run`


def _object(value, what: str) -> dict:
    """A field that must be a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _job_params(job, terminal: bool):
    """The job's parameter set; ``terminal`` is the default of a random
    source's 'terminal' flag."""
    source = _object(job.get("source"), "'source'")
    if "file" in source:
        if not isinstance(source["file"], str):
            raise ValueError(f"'source.file' must be a path string, got {source['file']!r}")
        return parameters_from_json(_load_json(source["file"]))
    if "random" in source:
        r = _object(source["random"], "'random'")
        if "seed" not in r:
            raise ValueError("randomized jobs must carry an explicit seed")
        d, length, seed = (as_integer(r[k], f"'{k}'")
                           for k in ("d", "length", "seed"))
        return random_parameters(d, length, np.random.default_rng(seed),
                                 terminal=_flag(r, "terminal", terminal))
    raise ValueError("source must name a file or a random block")


def _expand(value, what) -> list[int]:
    """A nonnegative index or an inclusive [lo, hi] range of them."""
    if value is None:
        raise ValueError(f"missing '{what}'")
    bounds = value if isinstance(value, list) and len(value) == 2 else [value]
    try:
        lo, hi = as_integer(bounds[0]), as_integer(bounds[-1])
    except ValueError:
        raise ValueError(f"'{what}' must be an integer or an [lo, hi] pair "
                         f"of integers, got {json.dumps(value)}") from None
    if min(lo, hi) < 0:
        raise ValueError(f"'{what}' must be nonnegative, got {json.dumps(value)}")
    if hi < lo:
        raise ValueError(f"empty {what} range")
    return list(range(lo, hi + 1))


def _family(job, families) -> str:
    """The job's operator family, one of its row's families."""
    family = job.get("family", families[0])
    if family not in families:
        kind = "Hessenberg" if families == HESSENBERG_FAMILIES else "CMV"
        raise ValueError(f"family {family!r} is not a {kind} family")
    return family


# ---------------------------------------------------------------------------
# job kinds: each row types, expands and checks a job and returns its
# cases, closures of one report each over a khrushchev verifier that is
# looked up when the case runs, so a rebound name is seen


def _site_job(job, order, tol):
    params, family = _job_params(job, False), _family(job, CMV_FAMILIES)
    oracle = _flag(job, "oracle", False)
    cases = []
    for j in _expand(job.get("j"), "j"):
        cases.append(lambda j=j: khrushchev.verify_site_formula(params, family, j, order, tol))
        if oracle:
            cases.append(lambda j=j: khrushchev.verify_path_count(params, family, j, order, tol))
    return cases


def _pair_job(job, order, tol, families, verifier):
    """Every pair j < k of the job's j and k ranges, checked by the named
    verifier.  A Hessenberg matrix is exact only for a terminal sequence."""
    hessenberg = families == HESSENBERG_FAMILIES
    params, family = _job_params(job, hessenberg), _family(job, families)
    if hessenberg and not params.finite:
        raise ValueError("Hessenberg verification needs a terminal sequence")
    return [lambda j=j, k=k: getattr(khrushchev, verifier)(params, family, j, k, order, tol)
            for j in _expand(job.get("j"), "j") for k in _expand(job.get("k"), "k")
            if j < k]


def _superposition_job(job, order, tol):
    params, hess = _job_params(job, False), _flag(job, "hessenberg", False)
    beta, gamma = khrushchev.check_superposition(
        params, _as_complex(job, "beta", 1.0), _as_complex(job, "gamma", 0.0), hess)
    return [lambda j=j: khrushchev.verify_superposition(params, j, beta, gamma, order, tol, hess)
            for j in _expand(job.get("j"), "j")]


def _closed_form_job(job, order, tol):
    case = job.get("case")
    if not isinstance(case, str):
        raise ValueError(f"'case' must be a closed-form case name, got {case!r}")
    if case not in khrushchev.CLOSED_FORM_CASES:
        raise ValueError(f"unknown closed-form case {case!r}")
    return [lambda: khrushchev.CLOSED_FORM_CASES[case](order, tol)]


# job kind -> parse function; a job naming a closed-form 'case' is of kind
# "case", any other job of the kind its 'theorem' tag names
JOB_KINDS = {
    "site": _site_job,
    "range": partial(_pair_job, families=CMV_FAMILIES, verifier="verify_range_formula"),
    "hessenberg": partial(_pair_job, families=HESSENBERG_FAMILIES,
                          verifier="verify_hessenberg_formula"),
    "superposition": _superposition_job,
    "case": _closed_form_job,
}


def _parse_job(job, defaults) -> list:
    """The checked cases of one job; ``defaults`` give a missing order or tol."""
    order = as_integer(job.get("order", defaults["order"]), "'order'")
    if order < 0:
        raise ValueError(f"'order' must be nonnegative, got {order}")
    tolerance = _tolerance(job.get("tolerance", defaults["tol"]))
    kind = "case" if "case" in job else job.get("theorem")
    if not isinstance(kind, str) or kind not in JOB_KINDS:
        raise ValueError(f"unknown theorem tag {kind!r}; a job carries a "
                         "'theorem' tag or a closed-form 'case'")
    cases = JOB_KINDS[kind](job, order, tolerance)
    if not cases:
        raise ValueError("job expanded to no cases (check j/k ranges)")
    return cases


# ---------------------------------------------------------------------------
# verify


@main.command()
@click.option("--theorem", required=True,
              type=click.Choice([k for k in JOB_KINDS if k != "case"]))
@click.option("--params", "params_path", type=click.Path(), default=None,
              help="parameter sequence JSON")
@click.option("--random", "random_spec", default=None,
              help="d,length: draw parameters with the global --seed instead")
@click.option("--family", default=None,
              help="operator family (default C, or H for hessenberg)")
@click.option("--j", "j_index", type=int, required=True)
@click.option("--k", "k_index", type=int, default=None)
@click.option("--beta", default="1", help="superposition weight of e_j")
@click.option("--gamma", default="0", help="superposition weight of e_{j+1}")
@click.option("--oracle", is_flag=True,
              help="also cross-check amplitudes by path enumeration")
@click.pass_context
def verify(ctx, theorem, params_path, random_spec, family, j_index, k_index,
           beta, gamma, oracle):
    """Verify one factorization formula at explicit indices."""
    job = {"theorem": theorem, "j": j_index, "k": k_index, "oracle": oracle,
           "order": ctx.obj["order"], "tolerance": ctx.obj["tol"]}
    if family:
        job["family"] = family
    try:
        for key, text in (("beta", beta), ("gamma", gamma)):
            z = complex(text)
            job[key] = [z.real, z.imag]
    except ValueError as exc:
        raise ValueError(f"bad --beta/--gamma: {exc}") from None
    if params_path:
        job["source"] = {"file": params_path}
    elif random_spec:
        try:
            d, length = (int(t) for t in random_spec.split(","))
        except ValueError:
            raise ValueError("--random expects 'd,length'") from None
        job["source"] = {"random": {"d": d, "length": length,
                                    "seed": ctx.obj["seed"]}}
    else:
        raise ValueError("provide --params or --random")
    reports = [case() for case in _parse_job(job, ctx.obj)]
    for rep in reports:
        click.echo(rep.summary(), err=True)
    ok = all(r.ok for r in reports)
    payload = {"schema": SCHEMA_VERSION, "ok": ok,
               "reports": [r.to_json() for r in reports]}
    _emit(payload, ctx.obj["out"])
    sys.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# campaign run


def _bundled_campaign() -> dict:
    data = resources.files("cmvkit").joinpath("data/worked_examples.json")
    return json.loads(data.read_text())


@main.command()
@click.argument("action", type=click.Choice(["run"]))
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="campaign JSON; defaults to the bundled worked examples")
@click.pass_context
def campaign(ctx, action, config_path):
    """Run a batch of verification jobs and write one merged report."""
    config = _load_json(config_path) if config_path else _bundled_campaign()
    _object(config, "campaign config")
    if as_integer(config.get("schema", SCHEMA_VERSION), "'schema'") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {config['schema']!r}")
    jobs = config.get("jobs", [])
    if not isinstance(jobs, list) or not all(isinstance(jb, dict) for jb in jobs):
        raise ValueError("'jobs' must be a list of JSON objects")
    defaults = {**ctx.obj, **_object(config.get("defaults", {}), "'defaults'")}
    defaults["tol"] = _tolerance(defaults["tol"], "'tol'")

    planned = []
    for index, jb in enumerate(jobs):
        name = jb.get("name", jb.get("case", jb.get("theorem", "job")))
        # the job as it runs, with the order and tolerance it inherits, so
        # a failed one replays alone
        jb = {"order": defaults["order"], "tolerance": defaults["tol"], **jb}
        try:
            planned.append((jb, name, _parse_job(jb, defaults)))
        except PARSE_ERRORS as exc:
            raise ValueError(f"job {index} ({name}): {exc}") from None

    entries, n_pass, n_fail = [], 0, 0
    for jb, name, cases in planned:
        entry = {"name": name, "reports": []}
        try:
            for case in cases:
                rep = case()
                click.echo(rep.summary(), err=True)
                entry["reports"].append(rep.to_json())
        except (ArithmeticError, *PARSE_ERRORS) as exc:
            entry["error"] = {"type": type(exc).__name__, "message": str(exc), "job": jb}
            click.echo(f"[error] {name}: {exc!r}", err=True)
        passed = [r["pass"] for r in entry["reports"]]
        n_pass += sum(passed)
        n_fail += len(passed) - sum(passed) + ("error" in entry)
        entry["ok"] = all(passed) and "error" not in entry
        entries.append(entry)
    payload = {"schema": SCHEMA_VERSION, "ok": n_fail == 0,
               "n_pass": n_pass, "n_fail": n_fail, "jobs": entries}
    _emit(payload, ctx.obj["out"])
    sys.exit(0 if n_fail == 0 else 1)


if __name__ == "__main__":
    main()
