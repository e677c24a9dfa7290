"""Command line front end.

Builds five-diagonal and Hessenberg operators from parameter files,
computes first-return statistics of subspaces, checks and constructs
overlapping factorizations, and runs verification campaigns that
compare the factorization formulas against independent routes.

Exit codes: 0 all checks pass, 1 a verification failed, 2 bad input
(unparseable files, broken invariants, missing options).
"""

from __future__ import annotations

import io
import json
import sys
from importlib import resources
from pathlib import Path

import click
import numpy as np

from . import catalog
from .cmv import (
    FAMILIES,
    HESSENBERG_FAMILIES,
    BlockOperatorSpec,
    block_subspace,
    build,
    build_unitary,
    window_spec,
)
from .khrushchev import (
    DEFAULT_TOL,
    SUPERPOSITION_ROUTES,
    VerificationReport,
    hessenberg_superposition,
    scalar_superposition_schur,
    verify_hessenberg_formula,
    verify_range_formula,
    verify_site_formula,
)
from .linalg import as_integer, certify, matrix_from_json, matrix_to_json
from .overlap import (
    SubspacePartition,
    abstract_khrushchev_check,
    check_overlap,
    construct_overlap,
    verify_gauge,
)
from .pathcount import N_CAP, oracle_first_return
from .schur import (
    SchurParameters,
    inverse_iterate_series,
    iterate_series,
    parameters_from_json,
    parameters_to_json,
    random_parameters,
    schur_forward,
    synthesize,
)
from .series import MatrixPowerSeries, coeff_distance
from .spectral import first_return_amplitudes, return_statistics, schur_of_subspace

SCHEMA_VERSION = 1

PARSE_ERRORS = (ValueError, KeyError, TypeError, IndexError, OSError,
                json.JSONDecodeError)


def _die(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_json(path: str):
    try:
        return json.loads(Path(path).read_text())
    except PARSE_ERRORS as exc:
        _die(2, f"cannot read {path}: {exc}")


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


def _as_complex(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(value)


@click.group()
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
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
        _die(2, "--order must be nonnegative")
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
    try:
        params = parameters_from_json(_load_json(params_path))
        if blocks is None:
            if not params.finite:
                _die(2, "open-ended sequences need an explicit --blocks")
            blocks = len(params) + 1
        spec = BlockOperatorSpec(params, family, blocks)
        matrix = build(spec)
    except PARSE_ERRORS as exc:
        _die(2, str(exc))
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
    try:
        series = MatrixPowerSeries.from_csv(coeffs_path).mark_schur()
        params = schur_forward(series, steps)
    except PARSE_ERRORS as exc:
        _die(2, str(exc))
    _emit(parameters_to_json(params), ctx.obj["out"])


@schur.command("synthesize")
@click.option("--params", "params_path", required=True, type=click.Path())
@click.pass_context
def schur_synthesize(ctx, params_path):
    """Rebuild the series from a parameter sequence; CSV output."""
    try:
        params = parameters_from_json(_load_json(params_path))
        series = synthesize(params, ctx.obj["order"])
    except PARSE_ERRORS as exc:
        _die(2, str(exc))
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
    try:
        u = certify(matrix_from_json(_load_json(matrix_path)))
        v = _indices(indices)
        if not v:
            _die(2, "--indices must name at least one index")
        if state is None:
            psi = np.zeros(len(v), dtype=np.complex128)
            psi[0] = 1.0
        else:
            psi = np.array([complex(tok) for tok in state.split(",")],
                           dtype=np.complex128)
            norm = float(np.linalg.norm(psi))
            if norm == 0.0:
                _die(2, "--state must be a nonzero vector")
            psi = psi / norm
        h = horizon if horizon is not None else ctx.obj["order"]
        stats = return_statistics(u, v, psi, h)
    except PARSE_ERRORS as exc:
        _die(2, str(exc))
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


def _checked_partition(ctx, matrix_path, left, center, right):
    """Read and certify the matrix, read the partition, and run the corner
    and rank test; returns the certified matrix and the partition with the
    test's JSON payload."""
    try:
        u = certify(matrix_from_json(_load_json(matrix_path)))
        part = SubspacePartition(u.matrix.shape[0], _indices(left),
                                 _indices(center), _indices(right))
        chk = check_overlap(u, part, rel_tol=min(ctx.obj["tol"], 1e-10))
    except PARSE_ERRORS as exc:
        _die(2, str(exc))
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
    _, _, ok, payload = _checked_partition(ctx, matrix_path, left, center, right)
    _emit(payload, ctx.obj["out"])
    sys.exit(0 if ok else 1)


@overlap.command("construct")
@_partition_options
@click.pass_context
def overlap_construct(ctx, matrix_path, left, center, right):
    """Build the two factors and report the reconstruction residual."""
    u, part, ok, payload = _checked_partition(ctx, matrix_path, left, center,
                                              right)
    if not ok:
        _emit(payload, ctx.obj["out"])
        sys.exit(1)
    try:
        fact = construct_overlap(u, part)
    except ArithmeticError as exc:
        _die(1, str(exc))
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
# verification plumbing shared by `verify` and `campaign run`


def _superposition_report(params, j, beta, gamma, order, tolerance,
                          hessenberg=False) -> VerificationReport:
    """Compare the formula and operator routes for one superposed state."""
    schur_fn = (hessenberg_superposition if hessenberg
                else scalar_superposition_schur)
    formula, operator = (schur_fn(params, j, beta, gamma, order, route=r)
                         for r in SUPERPOSITION_ROUTES)
    return VerificationReport(
        theorem="hessenberg-superposition" if hessenberg else "superposition",
        params={"j": j, "beta": [beta.real, beta.imag],
                "gamma": [gamma.real, gamma.imag], "order": order,
                "d": params.block_dim, "routes": list(SUPERPOSITION_ROUTES)},
        residual=coeff_distance(formula, operator),
        tolerance=tolerance,
        left_provenance="route " + SUPERPOSITION_ROUTES[0],
        right_provenance="routes " + SUPERPOSITION_ROUTES[1],
    )


def _oracle_report(params, family, j, order, tolerance) -> VerificationReport:
    """Path-enumeration cross-check of the first-return amplitudes at V_j.

    An order-N Schur function consumes a_1..a_{N+1}; the horizon covers
    them up to the enumeration's affordable length, and the window is the
    one exact at that horizon (window_spec's order is horizon - 1).  The
    operator is certified once, at its assembly.
    """
    horizon = min(order + 1, 6, N_CAP)
    spec = window_spec(params, family, j, horizon - 1)
    op = build_unitary(spec)
    v = block_subspace(spec, [j])
    ra = first_return_amplitudes(op, v, horizon)
    residual = 0.0
    for n in range(1, horizon + 1):
        enum = oracle_first_return(op, v, n)
        residual = max(residual, float(np.abs(enum - ra.amplitude(n)).max()))
    return VerificationReport(
        theorem="path-count",
        params={"family": family, "j": j, "horizon": horizon,
                "d": params.block_dim, "dim": spec.dim},
        residual=residual,
        tolerance=tolerance,
        left_provenance="explicit path enumeration",
        right_provenance="sliced-operator powers",
    )


def _job_params(job, theorem) -> SchurParameters:
    source = job.get("source")
    if source is None:
        raise ValueError("job needs a 'source' (file or random)")
    if "file" in source:
        return parameters_from_json(json.loads(Path(source["file"]).read_text()))
    if "random" in source:
        r = source["random"]
        if "seed" not in r:
            raise ValueError("randomized jobs must carry an explicit seed")
        d, length, seed = (as_integer(r[k], f"'{k}'")
                           for k in ("d", "length", "seed"))
        terminal = bool(r.get("terminal", theorem == "hessenberg"))
        return random_parameters(d, length, np.random.default_rng(seed),
                                 terminal=terminal)
    raise ValueError("source must name a file or a random block")


def _expand(value, what) -> list[int]:
    """An index or an inclusive [lo, hi] range of indices."""
    if value is None:
        raise ValueError(f"missing '{what}'")
    bounds = value if isinstance(value, list) and len(value) == 2 else [value]
    try:
        lo, hi = as_integer(bounds[0]), as_integer(bounds[-1])
    except ValueError:
        raise ValueError(f"'{what}' must be an integer or an [lo, hi] pair "
                         f"of integers, got {json.dumps(value)}") from None
    if hi < lo:
        raise ValueError(f"empty {what} range")
    return list(range(lo, hi + 1))


def _run_theorem_job(job, defaults) -> list[VerificationReport]:
    theorem = job["theorem"]
    order = as_integer(job.get("order", defaults["order"]), "'order'")
    tolerance = float(job.get("tolerance", defaults["tol"]))
    params = _job_params(job, theorem)
    reports: list[VerificationReport] = []

    if theorem == "site":
        family = job.get("family", "C")
        for j in _expand(job.get("j"), "j"):
            reports.append(verify_site_formula(params, family, j, order,
                                               tolerance))
            if job.get("oracle"):
                reports.append(_oracle_report(params, family, j, order,
                                              tolerance))
    elif theorem == "range":
        family = job.get("family", "C")
        for j in _expand(job.get("j"), "j"):
            for k in _expand(job.get("k"), "k"):
                if j < k:
                    reports.append(verify_range_formula(
                        params, family, j, k, order, tolerance))
    elif theorem == "hessenberg":
        family = job.get("family", "H")
        if family not in HESSENBERG_FAMILIES:
            raise ValueError(f"family {family!r} is not a Hessenberg family")
        for j in _expand(job.get("j"), "j"):
            for k in _expand(job.get("k"), "k"):
                if j < k:
                    reports.append(verify_hessenberg_formula(
                        params, family, j, k, order, tolerance))
    elif theorem == "superposition":
        beta = _as_complex(job.get("beta", 1.0))
        gamma = _as_complex(job.get("gamma", 0.0))
        hess = bool(job.get("hessenberg", False))
        for j in _expand(job.get("j"), "j"):
            reports.append(_superposition_report(params, j, beta, gamma,
                                                 order, tolerance,
                                                 hessenberg=hess))
    else:
        raise ValueError(f"unknown theorem tag {theorem!r}")
    if not reports:
        raise ValueError("job expanded to no cases (check j/k ranges)")
    return reports


# ---------------------------------------------------------------------------
# closed-form cases backing the bundled campaign


def _report(case, residual, tolerance, left, right) -> VerificationReport:
    return VerificationReport(theorem="closed-form", params={"case": case},
                              residual=float(residual), tolerance=tolerance,
                              left_provenance=left, right_provenance=right)


def _split_case_report(case, row: catalog.SplitCase, order,
                       tol) -> VerificationReport:
    """Check a catalog split row: the factorization rule plus its closed forms."""
    fu = row.maker()
    res = abstract_khrushchev_check(fu.unitary, fu.partition, row.v_left,
                                    row.v_right, order,
                                    factorization=fu.factorization())
    resid = res.residual
    for computed, closed in ((res.f_v, row.f_v), (res.f_left, row.f_left),
                             (res.f_right, row.f_right)):
        if closed is not None:
            resid = max(resid, coeff_distance(computed, closed(order)))
    return _report(case, resid, tol, row.left_provenance,
                   row.right_provenance)


def _cf_walk_alternate(order, tol):
    wa = catalog.coined_walk_six_alternate()
    chk = check_overlap(wa.unitary, wa.partition)
    if not chk.ok:
        return _report("walk-alternate", float("inf"), tol,
                       "corner/rank test", "known second factorization")
    fact = construct_overlap(wa.unitary, wa.partition)
    resid = float(fact.reconstruction_residual(wa.unitary))
    try:
        verify_gauge(fact, wa.factorization())
    except ValueError:
        resid = float("inf")
    return _report("walk-alternate", resid, tol,
                   "factors rebuilt from the matrix",
                   "known second factorization, up to center gauge")


def _cf_hadamard(order, tol):
    h = catalog.hadamard_coin()
    f = schur_of_subspace(h, (0,), order)
    resid = coeff_distance(f, catalog.hadamard_coin_schur(order))
    chk = check_overlap(h, SubspacePartition(2, (0,), (), (1,)))
    if chk.ok:
        resid = float("inf")  # the corner test must reject this split
    f_sq = schur_of_subspace(h @ h, (0,), order)
    resid = max(resid, coeff_distance(
        f_sq, MatrixPowerSeries.one(1, order)))
    if coeff_distance(f * f, f_sq) <= tol:
        resid = float("inf")  # f^2 must NOT reproduce the squared coin
    return _report("hadamard-no-overlap", resid, tol,
                   "first-return series of the coin and its square",
                   "rational (1+sqrt2 z)/(sqrt2+z); corner test rejection")


def _cf_superposition_extremes(order, tol):
    rng = np.random.default_rng(17)
    params = random_parameters(1, 6, rng)
    resid = 0.0
    for j in (1, 2):
        b_j = inverse_iterate_series(params, j, order)
        f_j = iterate_series(params, j, order)
        b_n = inverse_iterate_series(params, j + 1, order)
        f_n = iterate_series(params, j + 1, order)
        pure_j = scalar_superposition_schur(params, j, 1.0, 0.0, order)
        pure_next = scalar_superposition_schur(params, j, 0.0, 1.0, order)
        resid = max(resid,
                    coeff_distance(pure_j, b_j * f_j),
                    coeff_distance(pure_next, f_n * b_n))
    return _report("superposition-extremes", resid, tol,
                   "two-state transform at (1,0) and (0,1)",
                   "single-site products b_j f_j and f_{j+1} b_{j+1}")


# closed-form cases that are not factor splits; the rest are catalog rows
CLOSED_FORM_CASES = {
    "walk-alternate": _cf_walk_alternate,
    "hadamard-no-overlap": _cf_hadamard,
    "superposition-extremes": _cf_superposition_extremes,
}


def _run_job(job, defaults) -> list[VerificationReport]:
    if "case" in job:
        case = job["case"]
        order = as_integer(job.get("order", defaults["order"]), "'order'")
        tolerance = float(job.get("tolerance", defaults["tol"]))
        if case in catalog.SPLIT_CASES:
            return [_split_case_report(case, catalog.SPLIT_CASES[case],
                                       order, tolerance)]
        if case in CLOSED_FORM_CASES:
            return [CLOSED_FORM_CASES[case](order, tolerance)]
        raise ValueError(f"unknown closed-form case {case!r}")
    if "theorem" in job:
        return _run_theorem_job(job, defaults)
    raise ValueError("job must carry a 'theorem' tag or a closed-form 'case'")


# ---------------------------------------------------------------------------
# verify


@main.command()
@click.option("--theorem", required=True,
              type=click.Choice(["site", "range", "hessenberg",
                                 "superposition"]))
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
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.pass_context
def verify(ctx, theorem, params_path, random_spec, family, j_index, k_index,
           beta, gamma, oracle, report_path):
    """Verify one factorization formula at explicit indices."""
    job = {"theorem": theorem, "j": j_index,
           "order": ctx.obj["order"], "tolerance": ctx.obj["tol"]}
    if family:
        job["family"] = family
    if k_index is not None:
        job["k"] = k_index
    if oracle:
        job["oracle"] = True
    if theorem == "superposition":
        try:
            job["beta"] = complex(beta)
            job["gamma"] = complex(gamma)
        except ValueError as exc:
            _die(2, f"bad --beta/--gamma: {exc}")
    if params_path:
        job["source"] = {"file": params_path}
    elif random_spec:
        try:
            d, length = (int(t) for t in random_spec.split(","))
        except ValueError:
            _die(2, "--random expects 'd,length'")
        job["source"] = {"random": {"d": d, "length": length,
                                    "seed": ctx.obj["seed"]}}
    else:
        _die(2, "provide --params or --random")
    try:
        reports = _run_job(job, ctx.obj)
    except ArithmeticError as exc:
        _die(1, str(exc))
    except PARSE_ERRORS as exc:
        _die(2, str(exc))
    for rep in reports:
        click.echo(rep.summary(), err=True)
    ok = all(r.ok for r in reports)
    payload = {"schema": SCHEMA_VERSION, "ok": ok,
               "reports": [r.to_json() for r in reports]}
    _emit(payload, report_path or ctx.obj["out"])
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
    try:
        config = (_load_json(config_path) if config_path
                  else _bundled_campaign())
        if not isinstance(config, dict):
            raise ValueError("campaign config must be a JSON object")
        if config.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema {config.get('schema')!r}")
        jobs = config.get("jobs", [])
        defaults = dict(ctx.obj)
        defaults.update(config.get("defaults", {}))
    except PARSE_ERRORS as exc:
        _die(2, str(exc))

    try:
        results = [_run_job(jb, defaults) for jb in jobs]
    except ArithmeticError as exc:
        _die(1, str(exc))
    except PARSE_ERRORS as exc:
        _die(2, str(exc))

    entries = []
    n_pass = n_fail = 0
    for jb, reps in zip(jobs, results):
        for rep in reps:
            click.echo(rep.summary(), err=True)
            if rep.ok:
                n_pass += 1
            else:
                n_fail += 1
        entries.append({
            "name": jb.get("name", jb.get("case", jb.get("theorem", "job"))),
            "ok": all(r.ok for r in reps),
            "reports": [r.to_json() for r in reps],
        })
    payload = {"schema": SCHEMA_VERSION, "ok": n_fail == 0,
               "n_pass": n_pass, "n_fail": n_fail, "jobs": entries}
    _emit(payload, ctx.obj["out"])
    sys.exit(0 if n_fail == 0 else 1)


if __name__ == "__main__":
    main()
