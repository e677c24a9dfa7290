"""The base-versus-head comparer: bounds, key and shape checks, failed
surfaces and campaign rules, on hand-written dumps; and one full dump."""

import json

import numpy as np
import pytest

from against_base import BOUNDS, PREFIX_HORIZONS, amplitudes, certificates, compare, dump, resolvents
from helpers import projector_resolvent, two_sided_unitary_residual

BASE = {
    "build/C d=1/length=0": np.eye(2, dtype=complex),
    "amplitudes/C d=1/length=0 v=0-0 h=48": np.full((3, 1, 1), 0.5 + 0.5j),
    "resolvent/C d=1/length=0 v=0-0": np.full((8, 1, 1), 0.25 - 0.5j),
    "overlap/random u_lc/012": np.eye(2, dtype=complex),
    "certificate/overlap random u_lc/012": np.array(2.5e-16),
    "forward/d=1/length=1 terminal=True order=16": np.array([[[0.3]], [[1.0]]], dtype=complex),
    "superposition/H order=12/length=1 j=0 w=0 formula": np.full((13, 1, 1), 0.125j),
    "iterates/d=1/length=1 terminal=True order=12 f_0": np.full((13, 1, 1), -0.375j),
    "contractivity/d=1/length=1 terminal=True order=12 f_0 at +1e-12": np.array(1.000001),
}
REPORTS = [{"pass": True, "residual": 1e-15, "params": {"j": 0}},
           {"pass": False, "residual": 1.0, "params": {"j": 1}}]


def write_dump(path, arrays, failed=()):
    np.savez(path, **arrays)
    path.with_suffix(".json").write_text(json.dumps({"failed": {s: "RuntimeError: no" for s in failed}}))
    return path


def write_reports(path, reports):
    path.write_text(json.dumps({"jobs": [{"reports": reports}]}))
    return path


def run_compare(tmp_path, head, failed=(), base_failed=(), head_reports=REPORTS):
    base_reports = write_reports(tmp_path / "base-report.json", REPORTS)
    return compare(write_dump(tmp_path / "base.npz", BASE, base_failed),
                   write_dump(tmp_path / "head.npz", head, failed),
                   base_reports, write_reports(tmp_path / "head-report.json", head_reports),
                   base_reports, write_reports(tmp_path / "mixed-report.json", REPORTS))


def moved(key, by):
    return {**BASE, key: BASE[key] + by}


def test_identical_dumps_pass_and_print_every_group(tmp_path, capsys):
    assert run_compare(tmp_path, BASE) == 0
    out = capsys.readouterr().out
    for line in ("build C d=1: largest difference 0.000e+00", "amplitudes C d=1: largest difference 0.000e+00",
                 "resolvent C d=1: largest difference 0.000e+00",
                 "overlap random u_lc: largest difference 0.000e+00", "forward d=1: largest difference 0.000e+00",
                 "bundled: 2 reports, 0 residuals moved", "mixed: 0 reports differ in a field other than residual",
                 "amplitudes: 0 of 3 entries differ", "resolvent: 0 of 8 entries differ",
                 "overlap: 0 of 4 entries differ", "forward: 0 of 2 entries differ",
                 "certificate overlap random u_lc: largest difference 0.000e+00", "certificate: 0 of 1 entries differ",
                 "superposition H order=12: largest difference 0.000e+00", "superposition: 0 of 13 entries differ",
                 "iterates d=1: largest difference 0.000e+00", "iterates: 0 of 13 entries differ",
                 "contractivity d=1: largest difference 0.000e+00", "contractivity: 0 of 1 entries differ"):
        assert line in out
    assert "build: 0 of" not in out


@pytest.mark.parametrize("key", [k for k in BASE if BOUNDS[k.split("/")[0]]])
def test_a_difference_above_its_bound_fails(tmp_path, capsys, key):
    bound = BOUNDS[key.split("/")[0]]
    assert run_compare(tmp_path, moved(key, bound / 2)) == 0
    assert run_compare(tmp_path, moved(key, 2 * bound)) == 1
    out = capsys.readouterr().out
    # every surface is still printed after the one that fails
    assert f"largest difference {2 * bound:.3e}" in out and "iterates d=1:" in out and "mixed:" in out
    surface = key.split("/")[0]
    assert f"{surface}: {BASE[key].size} of {BASE[key].size} entries differ" in out


def test_a_surface_bounded_by_zero_fails_on_any_difference(tmp_path, capsys):
    key = next(k for k in BASE if BOUNDS[k.split("/")[0]] == 0.0)
    assert run_compare(tmp_path, moved(key, np.spacing(BASE[key]))) == 1
    out = capsys.readouterr().out
    assert "contractivity: 1 of 1 entries differ" in out and "mixed:" in out


def test_a_bounded_surface_counts_the_entries_that_differ(tmp_path, capsys):
    # one amplitude moved by one unit in the last place of its real part
    key = "amplitudes/C d=1/length=0 v=0-0 h=48"
    amps = BASE[key].copy()
    amps[1, 0, 0] = np.nextafter(amps[1, 0, 0].real, 1.0) + 1j * amps[1, 0, 0].imag
    assert run_compare(tmp_path, {**BASE, key: amps}) == 0
    out = capsys.readouterr().out
    assert "amplitudes: 1 of 3 entries differ" in out and "resolvent: 0 of 8 entries differ" in out


def test_a_build_difference_prints_and_passes(tmp_path, capsys):
    assert run_compare(tmp_path, moved("build/C d=1/length=0", 1.0)) == 0
    assert "build C d=1: largest difference 1.000e+00" in capsys.readouterr().out


def test_a_missing_key_fails(tmp_path, capsys):
    head = {k: a for k, a in BASE.items() if not k.startswith("overlap/")}
    assert run_compare(tmp_path, head) == 1
    assert "overlap: 1 keys only at the base, 0 only here" in capsys.readouterr().out


def test_a_changed_shape_fails(tmp_path, capsys):
    key = "forward/d=1/length=1 terminal=True order=16"
    assert run_compare(tmp_path, {**BASE, key: BASE[key][:1]}) == 1
    assert f"{key}: shape (2, 1, 1) at the base, (1, 1, 1) here" in capsys.readouterr().out


@pytest.mark.parametrize("surface", [s for s, bound in BOUNDS.items() if bound is not None])
def test_a_bounded_surface_not_dumped_fails(tmp_path, capsys, surface):
    head = {k: a for k, a in BASE.items() if not k.startswith(surface + "/")}
    assert run_compare(tmp_path, head, base_failed=[surface]) == 1
    assert f"{surface}: not dumped at the base" in capsys.readouterr().out


def test_builds_and_signatures_not_dumped_only_print(tmp_path, capsys):
    assert run_compare(tmp_path, BASE, failed=["build", "signatures"]) == 0
    out = capsys.readouterr().out
    assert "build: not dumped at the head" in out and "signatures: not dumped at both commits" in out


@pytest.mark.parametrize("head_reports", [REPORTS[:1], [REPORTS[1], REPORTS[1]]])
def test_a_lost_report_or_a_newly_failing_one_fails(tmp_path, head_reports):
    assert run_compare(tmp_path, BASE, head_reports=head_reports) == 1


def test_a_report_that_starts_to_pass_is_kept(tmp_path, capsys):
    assert run_compare(tmp_path, BASE, head_reports=[REPORTS[0], REPORTS[0]]) == 0
    assert "bundled: report 1 differs in params, pass: {'j': 0}" in capsys.readouterr().out


def test_a_base_that_takes_the_points_gets_the_ring(monkeypatch):
    # a base whose resolvent_compression(U, v, z) solves at the points given
    from cmvkit import spectral
    from cmvkit.schur import random_unitary

    dumped = {f"build/C d={d}/length=1": random_unitary(2 * d, np.random.default_rng(d)) for d in (1, 2)}
    head = {(group, name): a for group, name, a in resolvents(dumped)}
    monkeypatch.setattr(spectral, "resolvent_compression", lambda U, v, z: projector_resolvent(U, v, z))
    base = {(group, name): a for group, name, a in resolvents(dumped)}
    assert base.keys() == head.keys() and len(head) == 6
    assert all(a.shape == (8, *a.shape[1:]) for a in head.values())
    assert max(np.abs(base[key] - head[key]).max() for key in head) <= BOUNDS["resolvent"]


def test_a_horizon_48_stack_off_the_horizon_65_prefix_fails_the_surface(monkeypatch):
    # a library whose a_n depends on the horizon asked for
    from cmvkit import spectral
    from cmvkit.schur import random_unitary

    dumped = {"build/C d=1/length=1": random_unitary(2, np.random.default_rng(0))}
    assert [name for _, name, _ in amplitudes(dumped)] == ["length=1 v=0-0 h=65", "length=1 v=0-1 h=65",
                                                           "length=1 v=1-1 h=65"]
    exact = spectral.first_return_amplitudes
    monkeypatch.setattr(spectral, "first_return_amplitudes",
                        lambda U, v, horizon: exact(U, v, horizon) + 1e-12 * (horizon == 48))
    with pytest.raises(AssertionError, match="horizon 48 is not the first 48 amplitudes of horizon 65"):
        list(amplitudes(dumped))


@pytest.mark.parametrize("short", [9, 17, 25, 33, 41, 49, 57])
def test_a_shorter_stack_off_the_horizon_65_prefix_fails_the_surface(monkeypatch, short):
    # the horizons schur_of_subspace asks for below 65
    from cmvkit import spectral
    from cmvkit.schur import random_unitary

    assert short in PREFIX_HORIZONS
    dumped = {"build/C d=1/length=1": random_unitary(2, np.random.default_rng(0))}
    exact = spectral.first_return_amplitudes
    monkeypatch.setattr(spectral, "first_return_amplitudes",
                        lambda U, v, horizon: exact(U, v, horizon) + 1e-12 * (horizon == short))
    with pytest.raises(AssertionError, match=f"horizon {short} is not the first {short} amplitudes of horizon 65"):
        list(amplitudes(dumped))


def test_a_base_with_the_two_sided_residual_reads_the_same_certificates(monkeypatch):
    # a base whose is_unitary and unitary_residuals take max(||M^dagger M - 1||_F, ||M M^dagger - 1||_F)
    from cmvkit import cmv, linalg
    from cmvkit.schur import random_unitary

    rng = np.random.default_rng(0)
    dumped = {f"overlap/random u_lc/{n}": random_unitary(n, rng) for n in (1, 4, 9)}
    head = {(group, name): a for group, name, a in certificates(dumped)}
    monkeypatch.setattr(linalg, "is_unitary", lambda m: linalg.UnitaryCheck(
        (r := two_sided_unitary_residual(m)) <= linalg.UNITARY_TOL, r))
    monkeypatch.setattr(cmv, "unitary_residuals", lambda s: np.array([two_sided_unitary_residual(m) for m in s]))
    base = {(group, name): a for group, name, a in certificates(dumped)}
    assert base.keys() == head.keys() and len(head) == 108 + 3
    assert all(a.shape == () for a in head.values())
    assert max(abs(base[key] - head[key]) for key in head) <= BOUNDS["certificate"]
    # the Theta residuals were taken afresh from the replaced formula, not read off a memo
    assert any(base[key] != head[key] for key in head if key[0].startswith("build"))


def test_dump_produces_every_surface(tmp_path):
    path = tmp_path / "head.npz"
    dump(path)
    meta = json.loads(path.with_suffix(".json").read_text())
    with np.load(path) as arrays:
        counts = {s: sum(k.startswith(s + "/") for k in arrays.files) for s in BOUNDS}
        verdicts = {k: float(arrays[k]) for k in arrays.files if k.startswith("contractivity/")}
    path.unlink()
    # every series passes, and a copy fails exactly when scaled above its limit
    assert all((v > 0) == k.endswith(("+1e-12", "+1e-09")) for k, v in verdicts.items())
    assert meta["failed"] == {}
    assert counts == {"build": 108, "amplitudes": 1980, "resolvent": 1980, "overlap": 516, "certificate": 624,
                      "forward": 102, "superposition": 528, "iterates": 2532, "contractivity": 5 * 2532}
    assert "schur_forward" in meta["signatures"] and meta["options"]
