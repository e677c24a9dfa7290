"""Tests of the benchmark itself: generators, self time and the tracer."""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import reference
import tracer as tracing
import workloads
from cmvkit import cli, khrushchev, overlap, schur, spectral


def fingerprint(case: workloads.Case) -> str:
    """Hash of a case's inputs."""
    h = hashlib.sha256(case.kind.encode())
    for arg in case.args:
        if isinstance(arg, schur.SchurParameters):
            arg = (arg.alphas, arg.terminal)
        if isinstance(arg, str) and arg.endswith(".config.json"):
            arg = Path(arg).read_text()
        h.update(arg.tobytes() if isinstance(arg, np.ndarray) else repr(arg).encode())
    return h.hexdigest()


@pytest.fixture
def workdir():
    with tempfile.TemporaryDirectory() as d:
        yield Path(d)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_for_a_seed(name, workdir):
    make = workloads.WORKLOADS[name]
    a = [fingerprint(c) for c in make(7, 0, 0, workdir)]
    b = [fingerprint(c) for c in make(7, 0, 0, workdir)]
    other_seed = [fingerprint(c) for c in make(8, 0, 0, workdir)]
    other_cycle = [fingerprint(c) for c in make(7, 0, 1, workdir)]
    assert a == b
    assert a != other_seed and a != other_cycle
    assert len(a) == len(other_seed) == len(other_cycle)


def shape(case: workloads.Case) -> tuple:
    """A case's kind and input sizes, without its random values."""
    out = [case.kind]
    for arg in case.args:
        if isinstance(arg, schur.SchurParameters):
            arg = (arg.block_dim, len(arg.alphas), arg.terminal is None)
        elif isinstance(arg, np.ndarray):
            arg = arg.shape
        elif isinstance(arg, str) and arg.endswith(".config.json"):
            job, = json.loads(Path(arg).read_text())["jobs"]
            arg = (job.get("case"), job.get("theorem"), json.dumps(job.get("source", {}))[:24])
        elif isinstance(arg, (complex, float)) or arg is None:
            arg = type(arg).__name__
        out.append(arg if isinstance(arg, (str, int, tuple)) else repr(arg))
    return tuple(out)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_warm_up_has_the_same_sizes_for_every_seed(name, workdir):
    n = workloads.WARMUP_CASES[name]
    make = workloads.WORKLOADS[name]
    first = [shape(c) for c in make(7, 1, 0, workdir, shuffle=False)[:n]]
    assert len(first) == n
    for seed in (8, 9):
        assert [shape(c) for c in make(seed, 1, 0, workdir, shuffle=False)[:n]] == first


def test_scaled_time_is_wall_time_at_reference_speed():
    assert reference.scaled(3.0, reference.REFERENCE_S) == 3.0
    assert reference.scaled(3.0, 2 * reference.REFERENCE_S) == 1.5
    assert reference.seconds() > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_first_cases_pass_their_checks(name, workdir):
    for case in workloads.WORKLOADS[name](3, 0, 0, workdir)[:4]:
        assert case.run() <= 1.0


def test_overlap_case_rejects_a_generic_unitary_that_factorizes():
    rng = np.random.default_rng(0)
    a, b = workloads.haar_unitary(2, rng), workloads.haar_unitary(2, rng)
    u = np.eye(3, dtype=np.complex128)
    u[:2, :2] = a
    right = np.eye(3, dtype=np.complex128)
    right[1:, 1:] = b
    u = u @ right
    with pytest.raises(workloads.CaseFailed):
        # the overlapping unitary itself passes as "generic": it must be refused
        workloads.overlap_case(u, a, b, (1, 1, 1), u)


def test_self_time_on_a_synthetic_span_tree():
    #   0 [0, 10]
    #   |- 1 [1, 4]
    #   |  `- 3 [2, 3]
    #   `- 2 [5, 9]
    #   4 [11, 12]   second root
    start = [0.0, 1.0, 5.0, 2.0, 11.0]
    end = [10.0, 4.0, 9.0, 3.0, 12.0]
    parent = [-1, 0, 0, 1, -1]
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0, 1.0]


def test_layer_totals_count_a_reentered_layer_once():
    names = np.array(["series.mul", "series.mul", "series.inverse"], dtype=object)
    start, end = [0.0, 1.0, 5.0], [4.0, 2.0, 6.0]
    parent, nested = [-1, 0, -1], [False, True, False]
    totals = tracing.layer_totals(names, start, end, parent, nested)
    assert totals["series.mul"] == (2, 4.0, 4.0)
    assert totals["series.inverse"] == (1, 1.0, 1.0)
    assert totals["schur.synthesize"] == (0, 0.0, 0.0)


def _current_targets():
    return {name: tracing._resolve(module, path)[2]
            for name, (module, path) in tracing.LAYERS.items()}


def test_tracer_wraps_every_alias_and_restores_the_originals():
    originals = _current_targets()
    aliases = {
        (khrushchev, "synthesize"): originals["schur.synthesize"],
        (cli, "synthesize"): originals["schur.synthesize"],
        (overlap, "schur_of_subspace"): originals["spectral.schur_of_subspace"],
        (khrushchev, "schur_of_subspace"): originals["spectral.schur_of_subspace"],
        (cli, "build"): originals["cmv.build"],
    }
    for (module, attr), original in aliases.items():
        assert getattr(module, attr) is original
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, current in _current_targets().items():
            assert current.__wrapped_layer__ == name
        for (module, attr), original in aliases.items():
            assert getattr(module, attr) is not original
            assert getattr(module, attr).__wrapped__ is original
        assert not tracing.is_restored()
        p = schur.SchurParameters(1, (np.array([[0.3]]),) * 4)
        khrushchev.synthesize(p, 3)
        spectral.schur_of_subspace(np.eye(2), (0,), 2)
    finally:
        tracer.uninstall()
    assert tracing.is_restored()
    for name, current in _current_targets().items():
        assert current is originals[name], name
    for (module, attr), original in aliases.items():
        assert getattr(module, attr) is original
    names = set(tracer.names)
    assert {"schur.synthesize", "schur.mobius_step", "schur.SchurParameters",
            "spectral.schur_of_subspace", "spectral.resolvent_compression"} <= names
    assert tracer.mobius_steps == 4 and tracer.useful_mobius_steps == 4
    assert tracer.alphas_validated == 4
