"""Seeded workloads for the cmvkit benchmark, with a check on every case.

Each workload is an endless stream of cycles.  A cycle has a fixed
structure (input sizes and kinds of check) filled with fresh random
values drawn from (seed, stream, cycle index), so every cycle costs about
the same and a run's latency mix does not depend on where it stops.
The order of a cycle's cases is drawn too, unless ``shuffle`` is false:
then the first cases of a cycle have the same sizes for every seed, as a
warm-up of fixed cost needs.
Inputs are drawn with numpy directly, never with cmvkit's own random
helpers, so a change to the library cannot change what it is fed.

A case is one public verification call (one ``cmvkit campaign run``
command line in campaign-mix).  It returns its margin, residual over
tolerance, and raises CaseFailed when its check does not hold.

Library functions are always looked up on their module at call time, so
the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cmvkit import cli, khrushchev, overlap, schur, series

TOL = 1e-8
SITE_ORDER = 12
LONG_ORDER = 64
OVERLAP_ORDER = 12

# One parameter set per entry.  The repeated d = 3 puts the median case
# inside the d = 3 cases and the 90th percentile inside the d = 4 cases,
# away from the latency gaps between block sizes.
SITE_BLOCK_DIMS = (1, 2, 3, 3, 4)
SITE_LENGTH = 33
SITE_INDICES = range(6)

# (left, right) group sizes; every pair is used with every center size
# 0..4, so dimensions run from 2 to 24.  Most pairs are large, so the
# median case is one where matrix work, not per-call overhead, dominates.
OVERLAP_SIDES = ((1, 1), (1, 10), (10, 1), (10, 10), (6, 9), (9, 6), (8, 8), (7, 10))
OVERLAP_CENTERS = range(5)

HESSENBERG_GROUPS = tuple((length, d) for length in range(2, 7) for d in (1, 2))

# (name, order, tolerance) of the bundled closed-form campaign cases
CLOSED_FORM_CASES = (
    ("diffusion-center", 20, 1e-10),
    ("diffusion-pair", 20, 1e-10),
    ("diffusion-five-center", 20, 1e-10),
    ("walk-factors", 16, 1e-10),
    ("walk-pair", 16, 1e-10),
    ("walk-alternate", 16, 1e-10),
    ("hadamard-no-overlap", 16, 1e-10),
    ("superposition-extremes", 12, 1e-8),
)
RANGE_PAIRS = ((1, 3), (1, 4), (2, 4), (2, 5))
# Theorem jobs of one campaign cycle.  With the 8 closed-form cases they
# make 32 configs: the fast half (closed forms, hessenberg, Hessenberg
# superposition) holds 11, so the median falls among the site and range
# jobs and the 90th percentile among the five-diagonal superposition
# jobs, away from the latency gaps between kinds of job.
CAMPAIGN_SITE_JOBS = ((1, False),) * 4 + ((1, True),) * 2 + ((2, False),) * 3 + ((2, True),)  # (d, oracle)
CAMPAIGN_RANGE_DIMS = (1, 1, 1, 2, 2, 2)
CAMPAIGN_HESSENBERG_DIMS = (1, 2)
CAMPAIGN_SUPERPOSITIONS = (False,) * 4 + (True,) * 2  # Hessenberg family or five-diagonal


class CaseFailed(Exception):
    """A case ran to the end but its check did not hold."""


@dataclass
class Case:
    kind: str
    fn: Callable[..., float]
    args: tuple

    def run(self) -> float:
        return self.fn(*self.args)


@dataclass
class CampaignCase(Case):
    """One campaign command line; keeps the hash of its last report."""

    digest: str | None = field(default=None)

    def run(self) -> float:
        margin, self.digest = self.fn(*self.args)
        return margin


# -- input generation --------------------------------------------------------


def cycle_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def contraction(d: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian d x d matrix scaled to operator norm 0.9 u, u ~ U(0,1)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g * (0.9 * rng.uniform() / np.linalg.norm(g, 2))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def unit_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    """(beta, gamma) with |beta|^2 + |gamma|^2 = 1 and random phases."""
    t = rng.uniform(0.0, np.pi / 2)
    p, q = rng.uniform(0.0, 2 * np.pi, size=2)
    return complex(np.cos(t) * np.exp(1j * p)), complex(np.sin(t) * np.exp(1j * q))


def parameters(d: int, length: int, rng: np.random.Generator, terminal: bool = False):
    alphas = tuple(contraction(d, rng) for _ in range(length))
    term = haar_unitary(d, rng) if terminal else None
    return schur.SchurParameters(d, alphas, term)


# -- checks ------------------------------------------------------------------


def report_margin(report) -> float:
    if not report.ok:
        raise CaseFailed(report.summary())
    return report.residual / report.tolerance


def distance_margin(a, b, what: str) -> float:
    gap = series.coeff_distance(a, b)
    if not gap <= TOL:
        raise CaseFailed(f"{what}: routes differ by {gap:.3e}")
    return gap / TOL


def site_case(p, family: str, j: int) -> float:
    return report_margin(khrushchev.verify_site_formula(p, family, j, SITE_ORDER))


def hessenberg_case(p, family: str, j: int, k: int) -> float:
    return report_margin(khrushchev.verify_hessenberg_formula(p, family, j, k, LONG_ORDER))


def superposition_case(p, j: int, beta: complex, gamma: complex) -> float:
    formula = khrushchev.hessenberg_superposition(p, j, beta, gamma, LONG_ORDER)
    operator = khrushchev.hessenberg_superposition(
        p, j, beta, gamma, LONG_ORDER, route="operator_compress")
    return distance_margin(formula, operator, "hessenberg superposition")


def round_trip_case(p) -> float:
    f = schur.synthesize(p, LONG_ORDER)
    back = schur.schur_forward(f, len(p) + 1)
    if len(back) != len(p) or not back.finite:
        raise CaseFailed(f"recovered {len(back)} parameters, finite={back.finite}")
    err = max(float(np.abs(a - b).max())
              for a, b in zip(back.alphas + (back.terminal,), p.alphas + (p.terminal,)))
    if not err <= TOL:
        raise CaseFailed(f"round trip misses a parameter by {err:.3e}")
    return err / TOL


def overlap_case(u, a, b, sizes, generic) -> float:
    nl, nc, nr = sizes
    n = nl + nc + nr
    part = overlap.SubspacePartition(
        n, tuple(range(nl)), tuple(range(nl, nl + nc)), tuple(range(nl + nc, n)))
    if not overlap.check_overlap(u, part).ok:
        raise CaseFailed(f"overlapping unitary {sizes} rejected")
    fact = overlap.construct_overlap(u, part)
    tol = overlap.FACTOR_TOL * max(1.0, float(np.linalg.norm(u)))
    margin = fact.reconstruction_residual(u) / tol
    overlap.verify_gauge(fact, overlap.OverlapFactorization(part, a, b))
    v_l = tuple(range(min(2, nl)))
    v_r = tuple(range(nl + nc, nl + nc + min(2, nr)))
    res = overlap.abstract_khrushchev_check(u, part, v_l, v_r, OVERLAP_ORDER, factorization=fact)
    if not res.ok:
        raise CaseFailed(f"factorization identity residual {res.residual:.3e}")
    margin = max(margin, res.residual / res.tolerance)
    if generic is not None:
        # a generic unitary has a nonzero right-to-left corner
        if overlap.check_overlap(generic, part).ok:
            raise CaseFailed(f"generic unitary {sizes} accepted")
        try:
            overlap.construct_overlap(generic, part)
        except ValueError:
            pass
        else:
            raise CaseFailed(f"generic unitary {sizes} factorized")
    return margin


def campaign_case(config_path: str, report_path: str) -> tuple[float, str]:
    args = ["--out", report_path, "campaign", "run", "--config", config_path]
    code = 0
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main.main(args=args, prog_name="cmvkit", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    if code not in (0, None):
        raise CaseFailed(f"campaign exited with {code}")
    data = Path(report_path).read_bytes()
    report = json.loads(data)
    if not report["ok"]:
        raise CaseFailed(f"campaign report not ok: {report['n_fail']} failed")
    margin = max(r["residual"] / r["tolerance"]
                 for job in report["jobs"] for r in job["reports"])
    return margin, hashlib.sha256(data).hexdigest()


# -- cycles ------------------------------------------------------------------


def site_sweep(seed: int, stream: int, index: int, workdir: Path,
               shuffle: bool = True) -> list[Case]:
    rng = cycle_rng(seed, stream, index)
    cases = []
    for d in rng.permutation(SITE_BLOCK_DIMS) if shuffle else SITE_BLOCK_DIMS:
        p = parameters(int(d), SITE_LENGTH, rng)
        for family in ("C", "Chat"):
            for j in SITE_INDICES:
                cases.append(Case("site", site_case, (p, family, j)))
    return cases


def overlap_operator(seed: int, stream: int, index: int, workdir: Path,
                     shuffle: bool = True) -> list[Case]:
    rng = cycle_rng(seed, stream, index)
    shapes = [(nl, nc, nr) for nc in OVERLAP_CENTERS for nl, nr in OVERLAP_SIDES]
    cases = []
    order = rng.permutation(len(shapes)) if shuffle else range(len(shapes))
    for pos, s in enumerate(order):
        nl, nc, nr = shapes[s]
        n = nl + nc + nr
        a = haar_unitary(nl + nc, rng)
        b = haar_unitary(nc + nr, rng)
        u = np.eye(n, dtype=np.complex128)
        u[: nl + nc, : nl + nc] = a
        right = np.eye(n, dtype=np.complex128)
        right[nl:, nl:] = b
        generic = haar_unitary(n, rng) if pos % 4 == 0 else None
        cases.append(Case("overlap", overlap_case, (u @ right, a, b, (nl, nc, nr), generic)))
    return cases


def hessenberg_long(seed: int, stream: int, index: int, workdir: Path,
                    shuffle: bool = True) -> list[Case]:
    rng = cycle_rng(seed, stream, index)
    cases = []
    order = rng.permutation(len(HESSENBERG_GROUPS)) if shuffle else range(len(HESSENBERG_GROUPS))
    for g in order:
        length, d = HESSENBERG_GROUPS[g]
        p = parameters(d, length, rng, terminal=True)
        for family in ("H", "Hhat"):
            for j in range(length):
                for k in range(j + 1, length + 1):
                    cases.append(Case("hessenberg", hessenberg_case, (p, family, j, k)))
        cases.append(Case("round-trip", round_trip_case, (p,)))
        if d == 1:
            for j in range(length):
                beta, gamma = unit_pair(rng)
                cases.append(Case("superposition", superposition_case, (p, j, beta, gamma)))
    return cases


def campaign_jobs(rng: np.random.Generator, shuffle: bool = True) -> list[dict]:
    """One cycle of single-job campaign configs."""

    def source(d, length, terminal=False):
        return {"random": {"d": d, "length": length, "terminal": terminal,
                           "seed": int(rng.integers(2**31))}}

    def state():
        beta, gamma = unit_pair(rng)
        return [beta.real, beta.imag], [gamma.real, gamma.imag]

    jobs = [{"name": name, "case": name, "order": order, "tolerance": tol}
            for name, order, tol in CLOSED_FORM_CASES]
    for i, (d, oracle) in enumerate(CAMPAIGN_SITE_JOBS):
        jobs.append({"name": "site", "theorem": "site", "source": source(d, SITE_LENGTH),
                     "family": ("C", "Chat")[i % 2], "j": int(rng.integers(6)),
                     "order": SITE_ORDER, "oracle": oracle})
    for i, d in enumerate(CAMPAIGN_RANGE_DIMS):
        j, k = RANGE_PAIRS[int(rng.integers(len(RANGE_PAIRS)))]
        jobs.append({"name": "range", "theorem": "range", "source": source(d, SITE_LENGTH),
                     "family": ("C", "Chat")[i % 2], "j": j, "k": k, "order": SITE_ORDER})
    for i, d in enumerate(CAMPAIGN_HESSENBERG_DIMS):
        length = (3, 5)[i % 2]
        j = int(rng.integers(length))
        k = int(rng.integers(j + 1, length + 1))
        jobs.append({"name": "hessenberg", "theorem": "hessenberg",
                     "source": source(d, length, terminal=True),
                     "family": ("H", "Hhat")[i % 2], "j": j, "k": k, "order": 16})
    for hessenberg in CAMPAIGN_SUPERPOSITIONS:
        beta, gamma = state()
        src = source(1, 6, terminal=True) if hessenberg else source(1, SITE_LENGTH)
        jobs.append({"name": "superposition", "theorem": "superposition", "source": src,
                     "j": int(rng.integers(4)), "beta": beta, "gamma": gamma,
                     "hessenberg": hessenberg, "order": SITE_ORDER})
    return [jobs[i] for i in rng.permutation(len(jobs))] if shuffle else jobs


def campaign_mix(seed: int, stream: int, index: int, workdir: Path,
                 shuffle: bool = True) -> list[Case]:
    rng = cycle_rng(seed, stream, index)
    cases = []
    for i, job in enumerate(campaign_jobs(rng, shuffle)):
        stem = workdir / f"{stream}-{index}-{i}"
        config = stem.with_suffix(".config.json")
        config.write_text(json.dumps({"schema": 1, "jobs": [job]}, sort_keys=True))
        cases.append(CampaignCase(job["name"], campaign_case,
                                  (str(config), str(stem.with_suffix(".report.json")))))
    return cases


WORKLOADS = {
    "site-sweep": site_sweep,
    "overlap-operator": overlap_operator,
    "hessenberg-long": hessenberg_long,
    "campaign-mix": campaign_mix,
}

# cases of the unshuffled warm-up cycle run before timing starts
WARMUP_CASES = {
    "site-sweep": 12,
    "overlap-operator": 40,
    "hessenberg-long": 16,
    "campaign-mix": 32,
}

