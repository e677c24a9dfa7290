"""Command-line behavior: payload shapes, exit codes, byte stability."""

import ast
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cmvkit import catalog, cli, khrushchev, linalg, overlap
from cmvkit.catalog import (
    coined_walk_six,
    diffusion_center_schur,
    double_diffusion_six,
    hadamard_coin,
)
from cmvkit.cli import main
from cmvkit.cmv import block_subspace, build, window_spec
from cmvkit.linalg import is_unitary, matrix_from_json, matrix_to_json
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import parameters_from_json, parameters_to_json, random_parameters, synthesize
from cmvkit.series import MatrixPowerSeries
from cmvkit.spectral import first_return_amplitudes
from helpers import embed, grid_max_norm, lost_terminal_series

MIXED_CAMPAIGN = Path(__file__).resolve().parent / "data" / "mixed_campaign.json"
POISONED_CAMPAIGN = Path(__file__).resolve().parent / "data" / "poisoned_campaign.json"
MALFORMED_CAMPAIGN = Path(__file__).resolve().parent / "data" / "malformed_campaign.json"
NEGATIVE_ORDER_CAMPAIGN = Path(__file__).resolve().parent / "data" / "negative_order_campaign.json"


@pytest.fixture
def runner():
    return CliRunner()


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def terminal_params_file(tmp_path, rng, d=1, length=3):
    p = random_parameters(d, length, rng, terminal=True)
    return write_json(tmp_path / "params.json", parameters_to_json(p))


class TestCmvBuild:
    def test_builds_unitary_matrix(self, runner, tmp_path, rng):
        path = terminal_params_file(tmp_path, rng)
        out = tmp_path / "m.json"
        res = runner.invoke(main, ["--out", str(out), "cmv", "build", "--params", path])
        assert res.exit_code == 0, res.output
        m = matrix_from_json(json.loads(out.read_text()))
        assert m.shape == (4, 4)
        assert is_unitary(m).ok

    def test_open_sequence_needs_blocks(self, runner, tmp_path, rng):
        p = random_parameters(1, 5, rng)
        path = write_json(tmp_path / "p.json", parameters_to_json(p))
        res = runner.invoke(main, ["cmv", "build", "--params", path])
        assert res.exit_code == 2
        res = runner.invoke(main, ["cmv", "build", "--params", path, "--blocks", "4"])
        assert res.exit_code == 0

    def test_missing_file_is_a_parse_error(self, runner, tmp_path):
        res = runner.invoke(main, ["cmv", "build", "--params", str(tmp_path / "no.json")])
        assert res.exit_code == 2

    def test_invalid_json_is_a_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["cmv", "build", "--params", str(bad)])
        assert res.exit_code == 2

    def test_contraction_violation_is_a_parse_error(self, runner, tmp_path, rng):
        p = random_parameters(1, 3, rng, terminal=True)
        raw = parameters_to_json(p)
        raw["alphas"][0]["data"] = [[1.4, 0.0]]
        path = write_json(tmp_path / "p.json", raw)
        res = runner.invoke(main, ["cmv", "build", "--params", path])
        assert res.exit_code == 2
        assert "contraction" in res.output


class TestSchurCommands:
    def test_params_recovers_leading_coefficient(self, runner, tmp_path):
        csv = tmp_path / "f.csv"
        diffusion_center_schur(24).to_csv(str(csv))
        out = tmp_path / "p.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "schur", "params", "--coeffs", str(csv), "--steps", "4"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        first = matrix_from_json(body["alphas"][0])
        assert abs(first[0, 0] - 1.0 / 6.0) < 1e-10

    @pytest.mark.parametrize("bad_row", ["-1,0,0,0.9,0", "0,0,0,0.9,0", "0,0,-1,0.9,0",
                                         "1,0,0", "1,0,x,0.1,0", "2,0,0,0.1,0,0"])
    def test_params_rejects_bad_csv_indices(self, runner, tmp_path, bad_row):
        csv = tmp_path / "f.csv"
        csv.write_text("n,row,col,re,im\n0,0,0,0.5,0\n1,0,0,0.1,0\n" + bad_row + "\n")
        res = runner.invoke(main, ["schur", "params", "--coeffs", str(csv)])
        assert res.exit_code == 2
        assert "line 4" in res.output

    def test_params_exits_one_on_a_lost_terminal(self, runner, tmp_path):
        csv = tmp_path / "f.csv"
        lost_terminal_series().to_csv(str(csv))
        res = runner.invoke(main, ["schur", "params", "--coeffs", str(csv), "--steps", "15"])
        assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
        assert "error: Schur coefficient 14" in res.output and "from a terminal" in res.output

    def test_params_reads_a_terminal_off_the_unit_sphere_within_the_error(self, runner, tmp_path):
        # the terminal comes back with residual 1.45e-9, above UNITARY_TOL
        # and within the forward error: it is read as its polar factor
        p = random_parameters(1, 20, np.random.default_rng(1), terminal=True)
        csv, out = tmp_path / "f.csv", tmp_path / "p.json"
        synthesize(p, 64).to_csv(str(csv))
        res = runner.invoke(main, ["--out", str(out), "schur", "params", "--coeffs", str(csv), "--steps", "64"])
        assert res.exit_code == 0, res.output
        back = parameters_from_json(json.loads(out.read_text()))
        assert len(back) == 20 and back.finite
        assert np.abs(back.terminal - p.terminal).max() <= 1e-9

    def test_synthesize_round_trip(self, runner, tmp_path, rng):
        path = terminal_params_file(tmp_path, rng, length=2)
        out = tmp_path / "f.csv"
        res = runner.invoke(
            main, ["--order", "10", "--out", str(out), "schur", "synthesize", "--params", path]
        )
        assert res.exit_code == 0, res.output
        f = MatrixPowerSeries.from_csv(str(out))
        assert f.order == 10
        assert grid_max_norm(f) <= 1.0 + 1e-8


class TestWalkReturn:
    def test_identity_payload(self, runner, tmp_path):
        path = write_json(tmp_path / "u.json", matrix_to_json(np.eye(3)))
        out = tmp_path / "w.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "walk", "return", "--matrix", path,
             "--indices", "1", "--horizon", "4"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert body["probabilities"] == [1.0, 0.0, 0.0, 0.0]
        assert body["cumulative"] == 1.0
        assert body["partial_expected_time"] == 1.0

    def test_diffusion_center_return(self, runner, tmp_path):
        cat = double_diffusion_six()
        path = write_json(tmp_path / "u.json", matrix_to_json(cat.product()))
        out = tmp_path / "w.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "walk", "return", "--matrix", path,
             "--indices", "2", "--horizon", "6"],
        )
        assert res.exit_code == 0
        body = json.loads(out.read_text())
        assert abs(body["probabilities"][0] - 1.0 / 36.0) < 1e-12
        assert body["cumulative"] <= 1.0 + 1e-12

    def test_state_is_normalized_before_use(self, runner, tmp_path):
        path = write_json(tmp_path / "u.json", matrix_to_json(np.eye(2)))
        res = runner.invoke(
            main,
            ["walk", "return", "--matrix", path, "--indices", "0,1",
             "--state", "2,0", "--horizon", "2"],
        )
        assert res.exit_code == 0
        body = json.loads(res.output)
        assert body["state"] == [[1.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("state", ["nan,0", "inf,1", "0,0"])
    def test_state_that_is_zero_or_not_finite_exits_two(self, runner, tmp_path, state):
        path = write_json(tmp_path / "u.json", matrix_to_json(np.eye(2)))
        res = runner.invoke(main, ["walk", "return", "--matrix", path, "--indices", "0,1",
                                   "--state", state, "--horizon", "2"])
        assert res.exit_code == 2
        assert "--state must be a nonzero finite vector" in res.output

    def test_non_unitary_matrix_is_rejected(self, runner, tmp_path):
        path = write_json(tmp_path / "u.json", matrix_to_json(2 * np.eye(2)))
        res = runner.invoke(
            main, ["walk", "return", "--matrix", path, "--indices", "0"]
        )
        assert res.exit_code == 2


class TestOverlapCommands:
    def test_check_passes_on_diffusion(self, runner, tmp_path):
        cat = double_diffusion_six()
        path = write_json(tmp_path / "u.json", matrix_to_json(cat.product()))
        res = runner.invoke(
            main,
            ["overlap", "check", "--matrix", path, "--left", "0,1",
             "--center", "2", "--right", "3,4,5"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(res.output)
        assert body["ok"] is True
        assert body["rank"] == 1

    def test_check_fails_on_hadamard_split(self, runner, tmp_path):
        path = write_json(tmp_path / "u.json", matrix_to_json(hadamard_coin()))
        res = runner.invoke(
            main,
            ["overlap", "check", "--matrix", path, "--left", "0", "--right", "1"],
        )
        assert res.exit_code == 1
        body = json.loads(res.output)
        assert body["ok"] is False

    def test_construct_returns_factors(self, runner, tmp_path):
        cat = double_diffusion_six()
        path = write_json(tmp_path / "u.json", matrix_to_json(cat.product()))
        out = tmp_path / "f.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "overlap", "construct", "--matrix", path,
             "--left", "0,1", "--center", "2", "--right", "3,4,5"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert body["residual"] < 1e-12
        assert is_unitary(matrix_from_json(body["u_lc"])).ok
        assert body["lc"] == [0, 1, 2]

    def test_corner_is_judged_at_corner_rel_tol_whatever_tol(self, runner, tmp_path):
        # an overlapping unitary (H + 1)(1 + H) whose rows 0 and 2 are turned
        # so that its corner U[2, 0] is 1e-11 ||U||_F: inside CORNER_REL_TOL,
        # and a tighter global --tol does not tighten the corner test
        h = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        u = embed(h, (0, 1), 3) @ embed(h, (1, 2), 3)
        s = 1e-11 * np.sqrt(3.0) / abs(u[0, 0])
        turn = np.diag([np.sqrt(1.0 - s * s), 1.0, np.sqrt(1.0 - s * s)])
        turn[0, 2], turn[2, 0] = -s, s
        u = turn @ u
        path = write_json(tmp_path / "u.json", matrix_to_json(u))
        args = ["--matrix", path, "--left", "0", "--center", "1", "--right", "2"]
        res = runner.invoke(main, ["--tol", "1e-12", "overlap", "check", *args])
        assert res.exit_code == 0, res.output
        body = json.loads(res.output)
        assert body["corner_norm"] == pytest.approx(1e-11 * np.linalg.norm(u), rel=1e-6)
        assert body["corner_tol"] == overlap.CORNER_REL_TOL * float(np.linalg.norm(u))
        res = runner.invoke(main, ["--tol", "1e-12", "overlap", "construct", *args])
        assert res.exit_code == 0, res.output

    def test_construct_refuses_bad_partition(self, runner, tmp_path):
        path = write_json(tmp_path / "u.json", matrix_to_json(hadamard_coin()))
        args = ["--matrix", path, "--left", "0", "--right", "1"]
        res = runner.invoke(main, ["overlap", "construct", *args])
        assert res.exit_code == 1
        # the refusal carries the payload of the check itself
        assert res.output == runner.invoke(main, ["overlap", "check", *args]).output


@pytest.mark.parametrize("command", [
    ["overlap", "check", "--left", "0,1", "--center", "2", "--right", "3,4,5"],
    ["overlap", "construct", "--left", "0,1", "--center", "2", "--right", "3,4,5"],
    ["walk", "return", "--indices", "2", "--horizon", "6"],
])
def test_each_command_certifies_its_input_matrix_once(runner, tmp_path, monkeypatch, command):
    u = double_diffusion_six().product()
    path = write_json(tmp_path / "u.json", matrix_to_json(u))
    seen = []
    original = linalg.is_unitary

    def counting(m, *args, **kwargs):
        seen.append(np.array_equal(m, u))
        return original(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "is_unitary", counting)
    res = runner.invoke(main, [*command[:2], "--matrix", path, *command[2:]])
    assert res.exit_code == 0, res.output
    assert seen.count(True) == 1


class TestVerify:
    def test_site_formula_passes(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "--order", "8", "--seed", "11", "verify",
             "--theorem", "site", "--random", "1,24", "--j", "1"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert body["ok"] is True
        assert body["reports"][0]["theorem"] == "site-schur-function"

    def test_oracle_flag_adds_path_count_report(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "--order", "6", "--seed", "3", "verify",
             "--theorem", "site", "--random", "1,20", "--j", "1", "--oracle"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert [r["theorem"] for r in body["reports"]] == [
            "site-schur-function",
            "path-count",
        ]

    def test_oracle_at_order_zero_checks_the_first_amplitude(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "--order", "0", "--seed", "3", "verify",
             "--theorem", "site", "--random", "1,20", "--j", "1", "--oracle"],
        )
        assert res.exit_code == 0, res.output
        oracle = json.loads(out.read_text())["reports"][1]
        assert oracle["theorem"] == "path-count"
        assert oracle["params"]["horizon"] >= 1

    @pytest.mark.parametrize("d", [1, 2])
    def test_oracle_window_is_exact_for_its_horizon(self, runner, tmp_path, rng, d):
        # the oracle reads a_1..a_horizon, so its window is the one exact at
        # order horizon - 1; one block larger gives the same residual
        params = random_parameters(d, 20, rng)
        path = write_json(tmp_path / "p.json", parameters_to_json(params))
        for family in ("C", "Chat"):
            for order, j in [(0, 0), (3, 2), (6, 1)]:
                out = tmp_path / "r.json"
                res = runner.invoke(
                    main,
                    ["--out", str(out), "--order", str(order), "verify", "--theorem", "site",
                     "--params", path, "--family", family, "--j", str(j), "--oracle"],
                )
                assert res.exit_code == 0, res.output
                oracle = json.loads(out.read_text())["reports"][1]["params"]
                horizon = oracle["horizon"]
                assert oracle["dim"] == window_spec(params, family, j, horizon - 1).dim
                larger = window_spec(params, family, j, horizon)
                op = build(larger)
                v = block_subspace(larger, [j])
                old = float(np.abs(oracle_first_return(op, v, horizon)
                                   - first_return_amplitudes(op, v, horizon)).max())
                got = json.loads(out.read_text())["reports"][1]["residual"]
                assert abs(got - old) <= 1e-15, (family, order, j, got, old)

    def test_superposition_routes(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["--out", str(out), "--order", "8", "--seed", "7", "verify",
             "--theorem", "superposition", "--random", "1,24", "--j", "1",
             "--beta", "0.6", "--gamma", "0.8j"],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert body["reports"][0]["params"]["routes"] == ["formula", "operator_compress"]

    def test_impossible_tolerance_fails_with_exit_one(self, runner, tmp_path, rng):
        path = write_json(
            tmp_path / "p.json",
            parameters_to_json(random_parameters(1, 24, rng)),
        )
        res = runner.invoke(
            main,
            ["--order", "8", "--tol", "0", "verify", "--theorem", "site",
             "--params", path, "--j", "1"],
        )
        assert res.exit_code == 1

    def test_arithmetic_error_exits_one_and_a_bad_index_exits_two(
            self, runner, tmp_path, rng, monkeypatch):
        path = terminal_params_file(tmp_path, rng, length=4)
        args = ["--order", "6", "verify", "--theorem", "site", "--params", path]
        res = runner.invoke(main, [*args, "--j", "9"])
        assert res.exit_code == 2 and "block 9 does not exist" in res.output

        def singular(*args, **kwargs):
            raise ZeroDivisionError("singular defect")

        monkeypatch.setattr(khrushchev, "verify_site_formula", singular)
        res = runner.invoke(main, [*args, "--j", "1"])
        assert res.exit_code == 1 and "singular defect" in res.output

    def test_needs_a_source(self, runner):
        res = runner.invoke(main, ["verify", "--theorem", "site", "--j", "0"])
        assert res.exit_code == 2

    def test_help_lists_exactly_the_theorem_tags_of_the_job_table(self, runner):
        res = runner.invoke(main, ["verify", "--help"])
        assert res.exit_code == 0, res.output
        choices = re.search(r"--theorem \[([^\]]*)\]", res.output).group(1)
        assert choices.split("|") == [k for k in cli.JOB_KINDS if k != "case"]

    def test_summaries_go_to_stderr(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["--out", str(tmp_path / "r.json"), "--order", "6", "--seed", "1", "verify",
             "--theorem", "site", "--random", "1,20", "--j", "0"],
        )
        assert res.exit_code == 0
        assert "[pass] site-schur-function" in res.output


class TestCampaign:
    def test_bundled_campaign_passes(self, runner, tmp_path):
        out = tmp_path / "report.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run"])
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert body["ok"] is True
        assert body["n_fail"] == 0
        assert body["n_pass"] >= 10

    def test_empty_campaign_passes(self, runner, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"jobs": []})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 0
        body = json.loads(out.read_text())
        assert body == {"schema": 1, "ok": True, "n_pass": 0, "n_fail": 0, "jobs": []}

    def test_reports_are_byte_stable(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "defaults": {"order": 8, "tol": 1e-8},
                "jobs": [
                    {"name": "site-sweep", "theorem": "site", "j": [0, 2],
                     "source": {"random": {"d": 1, "length": 24, "seed": 5}}},
                    {"case": "hadamard-no-overlap"},
                ],
            },
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"r{tag}.json"
            res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mixed_campaign_covers_every_kind_and_passes(self, runner, tmp_path):
        # the fixed config that CI runs twice and compares byte for byte
        config = json.loads(MIXED_CAMPAIGN.read_text())
        sources = [jb["source"]["random"] for jb in config["jobs"] if "source" in jb]
        assert {(s["d"], s["terminal"]) for s in sources} >= {
            (d, t) for d in (1, 2, 3) for t in (False, True)}
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run",
                                   "--config", str(MIXED_CAMPAIGN)])
        assert res.exit_code == 0, res.output
        reports = [r for jb in json.loads(out.read_text())["jobs"] for r in jb["reports"]]
        seen = {(r["theorem"], r["params"].get("family")) for r in reports}
        assert seen >= {("site-schur-function", "C"), ("site-schur-function", "Chat"),
                        ("range-schur-function", "C"), ("range-schur-function", "Chat"),
                        ("hessenberg-range-schur-function", "H"),
                        ("hessenberg-range-schur-function", "Hhat"),
                        ("path-count", "C"), ("path-count", "Chat"),
                        ("superposition", None), ("hessenberg-superposition", None)}
        kinds = {"case" if "case" in jb else jb["theorem"] for jb in config["jobs"]}
        assert kinds == set(cli.JOB_KINDS)
        cases = {(jb["case"], jb["order"]) for jb in config["jobs"] if "case" in jb}
        assert cases == {(c, n) for c in khrushchev.CLOSED_FORM_CASES
                         for n in range(17)}

    def test_closed_form_cases_pass_at_low_orders(self, runner, tmp_path):
        cases = sorted(khrushchev.CLOSED_FORM_CASES)
        assert len(cases) == 8
        cfg = write_json(
            tmp_path / "c.json",
            {"jobs": [{"case": case, "order": order, "tolerance": 1e-8}
                      for order in (0, 1, 2, 3, 5) for case in cases]},
        )
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 0, res.output
        assert json.loads(out.read_text())["n_pass"] == 40

    def test_range_and_hessenberg_jobs_run_every_pair_with_j_below_k(self, runner, tmp_path):
        jobs = [
            {"theorem": "range", "family": family, "j": [0, 2], "k": [1, 3],
             "source": {"random": {"d": 1, "length": 24, "seed": 6}}}
            for family in ("C", "Chat")
        ] + [
            {"theorem": "hessenberg", "family": family, "j": [0, 2], "k": [1, 3],
             "source": {"random": {"d": 2, "length": 4, "seed": 7}}}
            for family in ("H", "Hhat")
        ]
        cfg = write_json(tmp_path / "c.json", {"defaults": {"order": 6}, "jobs": jobs})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert body["n_pass"] == 4 * len(pairs) and body["n_fail"] == 0
        theorems = ["range-schur-function"] * 2 + ["hessenberg-range-schur-function"] * 2
        for entry, family, theorem in zip(body["jobs"], ("C", "Chat", "H", "Hhat"), theorems):
            reps = entry["reports"]
            assert [(r["params"]["j"], r["params"]["k"]) for r in reps] == pairs
            assert {(r["theorem"], r["params"]["family"]) for r in reps} == {(theorem, family)}

    @pytest.mark.parametrize("job, message", [
        ({"theorem": "hessenberg", "family": "C", "j": 0, "k": 1}, "not a Hessenberg family"),
        ({"theorem": "range", "j": [2, 3], "k": [1, 2]}, "no cases"),
    ])
    def test_range_job_that_cannot_run_exits_two(self, runner, tmp_path, job, message):
        job["source"] = {"random": {"d": 1, "length": 6, "seed": 8, "terminal": True}}
        cfg = write_json(tmp_path / "c.json", {"jobs": [job]})
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert message in res.output

    def test_a_failing_job_leaves_the_other_entries_as_a_clean_run_writes_them(
            self, runner, tmp_path, monkeypatch):
        jobs = [{"name": "site", "theorem": "site", "j": [0, 1],
                 "source": {"random": {"d": 1, "length": 12, "seed": 5}}},
                {"case": "walk-factors"},
                {"case": "hadamard-no-overlap"}]
        cfg = write_json(tmp_path / "c.json", {"defaults": {"order": 6}, "jobs": jobs})

        def run():
            out = tmp_path / "r.json"
            res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
            return res, json.loads(out.read_text())

        clean_res, clean = run()
        assert clean_res.exit_code == 0, clean_res.output

        def boom():
            raise ZeroDivisionError("singular defect")

        row = dataclasses.replace(catalog.SPLIT_CASES["walk-factors"], maker=boom)
        monkeypatch.setitem(catalog.SPLIT_CASES, "walk-factors", row)
        res, body = run()
        assert res.exit_code == 1, res.output
        assert body["ok"] is False
        assert (body["n_pass"], body["n_fail"]) == (clean["n_pass"] - 1, 1)
        failed = body["jobs"][1]
        assert failed == {"name": "walk-factors", "ok": False, "reports": [],
                          "error": {"type": "ZeroDivisionError", "message": "singular defect",
                                    "job": {**jobs[1], "order": 6, "tolerance": khrushchev.DEFAULT_TOL}}}
        for i in (0, 2):
            assert (json.dumps(body["jobs"][i], indent=2, sort_keys=True)
                    == json.dumps(clean["jobs"][i], indent=2, sort_keys=True))

    def test_poisoned_campaign_reports_its_one_failed_job(self, runner, tmp_path):
        # the config that CI runs through the installed script
        config = json.loads(POISONED_CAMPAIGN.read_text())
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run",
                                   "--config", str(POISONED_CAMPAIGN)])
        assert res.exit_code == 1, res.output
        body = json.loads(out.read_text())
        assert body["n_fail"] == 1
        assert [jb["ok"] for jb in body["jobs"]] == [True, False, True]
        error = body["jobs"][1]["error"]
        assert error["type"] == "ValueError"
        # the failed job carries the order and tolerance it took from defaults
        assert error["job"] == {**config["jobs"][1], "order": 8, "tolerance": 1e-08}
        assert config["defaults"] == {"order": 8, "tol": 1e-08}

    def test_a_failed_job_replays_alone_without_the_campaign_defaults(self, runner, tmp_path):
        out = tmp_path / "r.json"
        runner.invoke(main, ["--out", str(out), "campaign", "run",
                             "--config", str(POISONED_CAMPAIGN)])
        error = json.loads(out.read_text())["jobs"][1]["error"]
        cfg = write_json(tmp_path / "replay.json", {"jobs": [error["job"]]})
        replay = tmp_path / "replay-report.json"
        res = runner.invoke(main, ["--out", str(replay), "--order", "3", "--tol", "0.5",
                                   "campaign", "run", "--config", cfg])
        assert res.exit_code == 1, res.output
        again = json.loads(replay.read_text())["jobs"][0]["error"]
        assert again == error
        # it ran at the campaign's order and tolerance, not at the global ones
        assert (again["job"]["order"], again["job"]["tolerance"]) == (8, 1e-08)

    @pytest.mark.parametrize("bad_job, message", [
        ({"theorem": "site", "j": [0, 1, 5]}, "'j' must be an integer or an [lo, hi] pair"),
        ({"theorem": "site", "j": 0, "family": "H"}, "family 'H' is not a CMV family"),
        ({"theorem": "range", "j": 0, "k": 1, "family": "Hhat"}, "not a CMV family"),
        ({"theorem": "index", "j": 0}, "unknown theorem tag 'index'"),
        ({"case": "no-such-case"}, "unknown closed-form case 'no-such-case'"),
        ({"theorem": "hessenberg", "j": 0, "k": 1,
          "source": {"random": {"d": 1, "length": 3, "seed": 1, "terminal": False}}},
         "Hessenberg verification needs a terminal sequence"),
    ])
    def test_an_invalid_last_job_exits_two_before_any_job_runs(
            self, runner, tmp_path, monkeypatch, bad_job, message):
        calls = []
        original = khrushchev.verify_site_formula

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(khrushchev, "verify_site_formula", counting)
        source = {"random": {"d": 1, "length": 12, "seed": 5}}
        jobs = [{"theorem": "site", "j": 0, "source": source},
                {"name": "last", "source": source, **bad_job}]
        cfg = write_json(tmp_path / "c.json", {"defaults": {"order": 4}, "jobs": jobs})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert "job 1 (last): " in res.output and message in res.output
        assert not out.exists()
        assert calls == []

    @pytest.mark.parametrize("bad, message", [
        ({"beta": 2}, "superposition weights must satisfy |beta|^2 + |gamma|^2 = 1"),
        ({"beta": [0.6, 0.0], "gamma": [0.6, 0.0]}, "superposition weights must satisfy"),
        ({"d": 2}, "superposition formulas are scalar (d = 1) only"),
        ({"hessenberg": True}, "Hessenberg superposition needs a terminal sequence"),
    ])
    def test_malformed_superposition_job_exits_two_before_any_job_runs(
            self, runner, tmp_path, monkeypatch, bad, message):
        calls = []
        monkeypatch.setattr(khrushchev, "verify_site_formula", lambda *a, **k: calls.append(a))
        source = {"random": {"d": bad.pop("d", 1), "length": 12, "seed": 5}}
        jobs = [{"theorem": "site", "j": 0, "source": {"random": {"d": 1, "length": 12, "seed": 5}}},
                {"name": "sup", "theorem": "superposition", "j": 1, "source": source, **bad}]
        cfg = write_json(tmp_path / "c.json", {"defaults": {"order": 4}, "jobs": jobs})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert f"job 1 (sup): {message}" in res.output
        assert not out.exists() and calls == []

    def test_malformed_campaign_exits_two_and_writes_no_report(self, runner, tmp_path):
        # the config that CI runs through the installed script
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run",
                                   "--config", str(MALFORMED_CAMPAIGN)])
        assert res.exit_code == 2, res.output
        assert "job 1 (superposition-unnormalized): superposition weights" in res.output
        assert "[pass]" not in res.output and not out.exists()

    def test_negative_order_campaign_exits_two_and_writes_no_report(self, runner, tmp_path):
        # the config that CI runs through the installed script
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run",
                                   "--config", str(NEGATIVE_ORDER_CAMPAIGN)])
        assert res.exit_code == 2, res.output
        assert "job 1 (site-negative-order): 'order' must be nonnegative, got -1" in res.output
        assert "[pass]" not in res.output and not out.exists()

    @pytest.mark.parametrize("d", [-1, 0])
    def test_random_block_dimension_below_one_exits_two_and_names_it(self, runner, tmp_path, d):
        res = runner.invoke(main, ["--order", "4", "verify", "--theorem", "site",
                                   "--random", f"{d},5", "--j", "0"])
        assert res.exit_code == 2, res.output
        assert f"'d' must be positive, got {d}" in res.output
        good = {"theorem": "site", "j": 0, "source": {"random": {"d": 1, "length": 5, "seed": 3}}}
        bad = {"theorem": "site", "j": 0, "source": {"random": {"d": d, "length": 5, "seed": 3}}}
        cfg = write_json(tmp_path / "c.json", {"defaults": {"order": 4}, "jobs": [good, bad]})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert f"job 1 (site): 'd' must be positive, got {d}" in res.output
        assert "[pass]" not in res.output and not out.exists()

    @pytest.mark.parametrize("jobs", [{"site": 1}, [1, 2], [{"case": "walk-factors"}, []]])
    def test_jobs_that_are_not_a_list_of_objects_exit_two(self, runner, tmp_path, jobs):
        cfg = write_json(tmp_path / "c.json", {"jobs": jobs})
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert "'jobs' must be a list of JSON objects" in res.output

    @pytest.mark.parametrize("field, value", [("j", [0, 1, 5]), ("j", True), ("k", [3])])
    def test_index_field_of_the_wrong_shape_exits_two(self, runner, tmp_path, field, value):
        job = {"theorem": "range", "j": 0, "k": 2,
               "source": {"random": {"d": 1, "length": 12, "seed": 8}}}
        job[field] = value
        cfg = write_json(tmp_path / "c.json", {"jobs": [job]})
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert f"'{field}' must be an integer or an [lo, hi] pair" in res.output

    @pytest.mark.parametrize("field, value", [("length", -3), ("j", -1), ("j", [-2, 1])])
    def test_negative_index_or_length_exits_two_before_any_job_runs(
        self, runner, tmp_path, field, value
    ):
        good = {"theorem": "site", "j": 0, "order": 4,
                "source": {"random": {"d": 1, "length": 20, "seed": 3}}}
        bad = json.loads(json.dumps(good))
        if field == "length":
            bad["source"]["random"]["length"] = value
        else:
            bad[field] = value
        cfg = write_json(tmp_path / "c.json", {"jobs": [good, bad]})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert f"job 1 (site): '{field}' must be nonnegative" in res.output
        assert "[pass]" not in res.output and not out.exists()

    @pytest.mark.parametrize("where", ["job", "defaults"])
    @pytest.mark.parametrize("bad", [
        {"theorem": "site", "j": 0, "source": {"random": {"d": 1, "length": 20, "seed": 3}}},
        {"case": "walk-factors"},
    ])
    def test_negative_order_exits_two_before_any_job_runs(self, runner, tmp_path, where, bad):
        good = {"theorem": "site", "j": 0, "order": 4,
                "source": {"random": {"d": 1, "length": 20, "seed": 3}}}
        config = {"jobs": [good, dict(bad)]}
        if where == "job":
            config["jobs"][1]["order"] = -1
        else:
            config["defaults"] = {"order": -2}
        cfg = write_json(tmp_path / "c.json", config)
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert "job 1 (" in res.output and "'order' must be nonnegative" in res.output
        assert "[pass]" not in res.output and not out.exists()

    @pytest.mark.parametrize("args, field", [
        (["--random", "1,-3", "--j", "0"], "length"),
        (["--random", "1,20", "--j", "-1"], "j"),
    ])
    def test_verify_rejects_a_negative_index_or_length(self, runner, args, field):
        res = runner.invoke(main, ["--order", "4", "verify", "--theorem", "site", *args])
        assert res.exit_code == 2, res.output
        assert f"'{field}' must be nonnegative" in res.output

    @pytest.mark.parametrize("where, field, value", [
        ("job", "order", 6.9),
        ("case", "order", 6.9),
        ("defaults", "order", 6.9),
        ("random", "d", 1.9),
        ("random", "d", True),
        ("random", "length", 20.5),
        ("random", "seed", 3.7),
        ("file", "d", 1.9),
        ("file", "d", True),
        ("matrix", "rows", 1.0),
        ("matrix", "cols", "1"),
    ])
    def test_integer_field_that_is_not_an_integer_exits_two(self, runner, tmp_path, rng,
                                                           where, field, value):
        job = {"theorem": "site", "j": 0,
               "source": {"random": {"d": 1, "length": 20, "seed": 3}}}
        config = {"jobs": [job]}
        if where in ("job", "case"):
            job[field] = value
            if where == "case":
                config["jobs"] = [{"case": "walk-factors", field: value}]
        elif where == "defaults":
            config["defaults"] = {field: value}
        elif where == "random":
            job["source"]["random"][field] = value
        else:
            raw = parameters_to_json(random_parameters(1, 20, rng))
            (raw if where == "file" else raw["alphas"][0])[field] = value
            job["source"] = {"file": write_json(tmp_path / "p.json", raw)}
        cfg = write_json(tmp_path / "c.json", config)
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert f"'{field}' must be an integer, got {value!r}" in res.output

    @pytest.mark.parametrize("where, field, value", [
        ("job", "tolerance", True),
        ("job", "tolerance", "1e-300"),
        ("job", "tolerance", "0.5"),
        ("job", "tolerance", float("nan")),
        ("job", "tolerance", -1),
        ("case", "tolerance", float("inf")),
        ("defaults", "tol", "1e-3"),
        ("defaults", "tol", float("nan")),
        ("random", "terminal", "false"),
        ("job", "oracle", "no"),
        ("job", "oracle", 1),
        ("superposition", "hessenberg", "false"),
        ("superposition", "beta", True),
        ("superposition", "beta", [0.6, "0"]),
        ("superposition", "gamma", "0.8"),
        ("superposition", "gamma", [0.0, 0.8, 0.0]),
        ("superposition", "gamma", float("nan")),
        ("config", "schema", True),
        ("config", "schema", 1.0),
        ("config", "defaults", "abc"),
        ("job", "source", "profile.json"),
        ("source", "random", [1, 20, 3]),
    ])
    def test_loose_field_exits_two_and_names_it(self, runner, tmp_path, where, field, value):
        job = {"theorem": "site", "j": 0, "order": 4,
               "source": {"random": {"d": 1, "length": 20, "seed": 3}}}
        config = {"jobs": [job]}
        if where == "config":
            config[field] = value
        elif where == "source":
            job["source"][field] = value
        elif where == "case":
            config["jobs"] = [{"case": "walk-factors", "order": 4, field: value}]
        elif where == "defaults":
            config["defaults"] = {field: value}
        elif where == "random":
            job["source"]["random"][field] = value
        else:
            if where == "superposition":
                job.update(theorem="superposition", beta=[0.6, 0.0], gamma=[0.0, 0.8])
            job[field] = value
        cfg = write_json(tmp_path / "c.json", config)
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert f"'{field}' must be" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("job, message", [
        ({"theorem": "site", "j": 0, "source": {"file": 5}},
         "'source.file' must be a path string, got 5"),
        ({"theorem": "site", "j": 0, "source": {"file": ["p.json"]}},
         "'source.file' must be a path string, got ['p.json']"),
        ({"case": ["walk-factors"]}, "'case' must be a closed-form case name, got ['walk-factors']"),
        ({"case": 3}, "'case' must be a closed-form case name, got 3"),
    ])
    def test_a_mistyped_file_or_case_exits_two_and_names_it(self, runner, tmp_path, job, message):
        cfg = write_json(tmp_path / "c.json", {"jobs": [{"order": 4, **job}]})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("tolerance", 0), ("tolerance", 1e-300), ("oracle", False), ("terminal", True),
        ("beta", 1), ("gamma", [0, 0]),
    ])
    def test_strict_fields_accept_their_json_types(self, runner, tmp_path, field, value):
        job = {"theorem": "superposition" if field in ("beta", "gamma") else "site",
               "j": 0, "order": 4, "source": {"random": {"d": 1, "length": 20, "seed": 3}}}
        if field == "terminal":
            job["source"]["random"]["terminal"] = value
        else:
            job[field] = value
        cfg = write_json(tmp_path / "c.json", {"jobs": [job]})
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        # a tiny tolerance may fail the check (exit 1), but it is read
        assert res.exit_code in (0, 1) and "error:" not in res.output, res.output

    def test_zero_tolerance_fails_with_exit_one(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {
                "defaults": {"order": 6, "tol": 0.0},
                "jobs": [
                    {"theorem": "site", "j": 1,
                     "source": {"random": {"d": 1, "length": 20, "seed": 4}}},
                ],
            },
        )
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 1

    def test_corrupted_parameter_file_exits_two(self, runner, tmp_path, rng):
        raw = parameters_to_json(random_parameters(1, 20, rng))
        raw["alphas"][0]["data"] = [[1.4, 0.0]]
        pfile = write_json(tmp_path / "p.json", raw)
        cfg = write_json(
            tmp_path / "c.json",
            {"jobs": [{"theorem": "site", "j": 0, "order": 6,
                       "source": {"file": pfile}}]},
        )
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert "contraction" in res.output

    def test_random_job_without_seed_exits_two(self, runner, tmp_path):
        cfg = write_json(
            tmp_path / "c.json",
            {"jobs": [{"theorem": "site", "j": 0, "order": 6,
                       "source": {"random": {"d": 1, "length": 20}}}]},
        )
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert "seed" in res.output

    def test_unknown_schema_exits_two(self, runner, tmp_path):
        cfg = write_json(tmp_path / "c.json", {"schema": 99, "jobs": []})
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2

    @pytest.mark.parametrize("config", [[1, 2], None, "jobs"])
    def test_config_that_is_not_an_object_exits_two(self, runner, tmp_path, config):
        cfg = write_json(tmp_path / "c.json", config)
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert "error:" in res.output

    @pytest.mark.parametrize("wrong", ["closed form", "factorization"])
    def test_split_case_with_a_wrong_claim_fails(self, runner, tmp_path,
                                                 monkeypatch, wrong):
        row = catalog.SPLIT_CASES["walk-factors"]
        if wrong == "closed form":
            row = dataclasses.replace(row, f_left=row.f_right, f_right=row.f_left)
        else:
            walk = coined_walk_six()
            bad = dataclasses.replace(walk, u_lc=-walk.u_lc)
            row = dataclasses.replace(row, maker=lambda: bad)
        monkeypatch.setitem(catalog.SPLIT_CASES, "walk-factors", row)
        cfg = write_json(tmp_path / "c.json",
                         {"jobs": [{"case": "walk-factors", "order": 16,
                                    "tolerance": 1e-10}]})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run",
                                   "--config", cfg])
        assert res.exit_code == 1, res.output
        body = json.loads(out.read_text())
        assert body["ok"] is False
        assert body["jobs"][0]["reports"][0]["residual"] > 1e-3


class TestGlobalFlags:
    def test_bad_order_rejected_at_the_group(self, runner):
        res = runner.invoke(main, ["--order", "-1", "campaign", "run"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tolerance_rejected_at_the_group(self, runner, tol):
        res = runner.invoke(main, ["--tol", tol, "campaign", "run"])
        assert res.exit_code == 2
        assert "--tol must be finite and nonnegative" in res.output

    def test_verify_rejects_a_weight_that_is_not_finite(self, runner):
        res = runner.invoke(main, ["verify", "--theorem", "superposition", "--random", "1,20",
                                   "--j", "0", "--beta", "nan"])
        assert res.exit_code == 2
        assert "'beta' must be" in res.output


PACKAGE_MODULES = sorted(path.stem for path in Path(cli.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module", PACKAGE_MODULES)
def test_imports_no_private_name_from_another_module(module):
    # a rule shared between modules is a public name of one of them
    tree = ast.parse((Path(cli.__file__).parent / f"{module}.py").read_text())
    imported = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    private = [a.name for node in imported for a in node.names if a.name.startswith("_")]
    modules = {a.asname or a.name for node in imported if node.module is None
               for a in node.names}
    private += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []


class TestReportsAreTheVerifiers:
    """A campaign job's report is what its khrushchev verifier returns."""

    @staticmethod
    def campaign_reports(runner, tmp_path, job):
        cfg = write_json(tmp_path / "c.json", {"jobs": [job]})
        out = tmp_path / "r.json"
        res = runner.invoke(main, ["--out", str(out), "campaign", "run", "--config", cfg])
        assert res.exit_code == 0, res.output
        return json.loads(out.read_text())["jobs"][0]["reports"]

    @pytest.mark.parametrize("hessenberg", [False, True])
    def test_superposition(self, runner, tmp_path, hessenberg):
        # an open sequence needs coefficients for an exact order-8 window
        length = 5 if hessenberg else 24
        source = {"d": 1, "length": length, "seed": 9, "terminal": hessenberg}
        job = {"theorem": "superposition", "j": 1, "order": 8, "tolerance": 1e-8,
               "beta": [0.6, 0.0], "gamma": [0.0, 0.8], "hessenberg": hessenberg,
               "source": {"random": source}}
        p = random_parameters(1, length, np.random.default_rng(9), terminal=hessenberg)
        report = khrushchev.verify_superposition(p, 1, 0.6, 0.8j, 8, 1e-8, hessenberg)
        assert report.ok
        assert report.theorem == ("hessenberg-superposition" if hessenberg else "superposition")
        assert self.campaign_reports(runner, tmp_path, job) == [report.to_json()]

    @pytest.mark.parametrize("family", ["C", "Chat"])
    @pytest.mark.parametrize("order, horizon", [(0, 1), (6, 6), (9, 6)])
    def test_path_count(self, runner, tmp_path, family, order, horizon):
        job = {"theorem": "site", "family": family, "j": 2, "order": order, "oracle": True,
               "tolerance": 1e-8, "source": {"random": {"d": 2, "length": 24, "seed": 4}}}
        p = random_parameters(2, 24, np.random.default_rng(4))
        report = khrushchev.verify_path_count(p, family, 2, order, 1e-8)
        assert report.ok and report.params["horizon"] == horizon
        site, path_count = self.campaign_reports(runner, tmp_path, job)
        assert path_count == report.to_json()
        assert site == khrushchev.verify_site_formula(p, family, 2, order, 1e-8).to_json()
