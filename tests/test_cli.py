"""Command-line behavior: payload shapes, exit codes, byte stability."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cmvkit import catalog, cli, linalg
from cmvkit.catalog import (
    coined_walk_six,
    diffusion_center_schur,
    double_diffusion_six,
    hadamard_coin,
)
from cmvkit.cli import CLOSED_FORM_CASES, main
from cmvkit.cmv import block_subspace, build, window_spec
from cmvkit.linalg import is_unitary, matrix_from_json, matrix_to_json
from cmvkit.pathcount import oracle_first_return
from cmvkit.schur import parameters_to_json, random_parameters
from cmvkit.series import MatrixPowerSeries
from cmvkit.spectral import first_return_amplitudes


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

    def test_synthesize_round_trip(self, runner, tmp_path, rng):
        path = terminal_params_file(tmp_path, rng, length=2)
        out = tmp_path / "f.csv"
        res = runner.invoke(
            main, ["--order", "10", "--out", str(out), "schur", "synthesize", "--params", path]
        )
        assert res.exit_code == 0, res.output
        f = MatrixPowerSeries.from_csv(str(out))
        assert f.order == 10
        assert f.max_disk_norm() <= 1.0 + 1e-8


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
        path = write_json(tmp_path / "u.json", matrix_to_json(cat.unitary))
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

    def test_non_unitary_matrix_is_rejected(self, runner, tmp_path):
        path = write_json(tmp_path / "u.json", matrix_to_json(2 * np.eye(2)))
        res = runner.invoke(
            main, ["walk", "return", "--matrix", path, "--indices", "0"]
        )
        assert res.exit_code == 2


class TestOverlapCommands:
    def test_check_passes_on_diffusion(self, runner, tmp_path):
        cat = double_diffusion_six()
        path = write_json(tmp_path / "u.json", matrix_to_json(cat.unitary))
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
        path = write_json(tmp_path / "u.json", matrix_to_json(cat.unitary))
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
    u = double_diffusion_six().unitary
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
            ["--order", "8", "--seed", "11", "verify", "--theorem", "site",
             "--random", "1,24", "--j", "1", "--report", str(out)],
        )
        assert res.exit_code == 0, res.output
        body = json.loads(out.read_text())
        assert body["ok"] is True
        assert body["reports"][0]["theorem"] == "site-schur-function"

    def test_oracle_flag_adds_path_count_report(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["--order", "6", "--seed", "3", "verify", "--theorem", "site",
             "--random", "1,20", "--j", "1", "--oracle", "--report", str(out)],
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
            ["--order", "0", "--seed", "3", "verify", "--theorem", "site",
             "--random", "1,20", "--j", "1", "--oracle", "--report", str(out)],
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
                    ["--order", str(order), "verify", "--theorem", "site", "--params", path,
                     "--family", family, "--j", str(j), "--oracle", "--report", str(out)],
                )
                assert res.exit_code == 0, res.output
                oracle = json.loads(out.read_text())["reports"][1]["params"]
                horizon = oracle["horizon"]
                assert oracle["dim"] == window_spec(params, family, j, horizon - 1).dim
                larger = window_spec(params, family, j, horizon)
                op = build(larger)
                v = block_subspace(larger, [j])
                ra = first_return_amplitudes(op, v, horizon)
                old = max(float(np.abs(oracle_first_return(op, v, n) - ra.amplitude(n)).max())
                          for n in range(1, horizon + 1))
                got = json.loads(out.read_text())["reports"][1]["residual"]
                assert abs(got - old) <= 1e-15, (family, order, j, got, old)

    def test_superposition_routes(self, runner, tmp_path):
        out = tmp_path / "r.json"
        res = runner.invoke(
            main,
            ["--order", "8", "--seed", "7", "verify", "--theorem", "superposition",
             "--random", "1,24", "--j", "1", "--beta", "0.6", "--gamma", "0.8j",
             "--report", str(out)],
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

    def test_needs_a_source(self, runner):
        res = runner.invoke(main, ["verify", "--theorem", "site", "--j", "0"])
        assert res.exit_code == 2

    def test_summaries_go_to_stderr(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["--order", "6", "--seed", "1", "verify", "--theorem", "site",
             "--random", "1,20", "--j", "0", "--report", str(tmp_path / "r.json")],
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

    def test_closed_form_cases_pass_at_low_orders(self, runner, tmp_path):
        cases = sorted(catalog.SPLIT_CASES) + sorted(CLOSED_FORM_CASES)
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

    @pytest.mark.parametrize("field, value", [("j", [0, 1, 5]), ("j", True), ("k", [3])])
    def test_index_field_of_the_wrong_shape_exits_two(self, runner, tmp_path, field, value):
        job = {"theorem": "range", "j": 0, "k": 2,
               "source": {"random": {"d": 1, "length": 12, "seed": 8}}}
        job[field] = value
        cfg = write_json(tmp_path / "c.json", {"jobs": [job]})
        res = runner.invoke(main, ["campaign", "run", "--config", cfg])
        assert res.exit_code == 2
        assert f"'{field}' must be an integer or an [lo, hi] pair" in res.output

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


def test_cli_imports_no_private_name_from_another_module():
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    ]
    assert imported
    private = [a.name for node in imported for a in node.names if a.name.startswith("_")]
    modules = {a.asname or a.name for node in imported if node.module is None
               for a in node.names}
    private += [
        f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    ]
    assert private == []
