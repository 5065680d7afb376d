import json

import numpy as np
import pytest

from fbst.cli import main

FAST = ["--draws", "20000", "--chains", "2", "--burnin", "2000"]


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


GAUSS_SPEC = {
    "family": "gaussian-mean",
    "mean": 1.0,
    "variance": 1.0,
    "hypothesis": {"equalities": ["theta"]},
}


class TestEv:
    def test_gaussian_sharp(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GAUSS_SPEC)
        code, payload = run(capsys, ["ev", spec, "--seed", "0"] + FAST)
        assert code == 0
        assert payload["ev"] == pytest.approx(0.3173105, abs=0.02)
        assert payload["ev"] + payload["ev_bar"] == pytest.approx(1.0)
        assert payload["manifest"]["seed"] == 0

    def test_full_space_hypothesis(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {"family": "gaussian-mean", "mean": 0.0, "variance": 1.0, "hypothesis": {}},
        )
        code, payload = run(capsys, ["ev", spec, "--seed", "0"] + FAST)
        assert code == 0
        assert payload["ev"] == 1.0
        assert payload["unstandardized"]

    def test_decision_flag(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GAUSS_SPEC)
        code, payload = run(capsys, ["ev", spec, "--seed", "0", "--threshold", "0.05"] + FAST)
        assert code == 0
        assert payload["decision"] == "agnostic"
        assert payload["ev_complement"] == 1.0

    def test_deterministic_across_runs(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GAUSS_SPEC)
        _, a = run(capsys, ["ev", spec, "--seed", "7"] + FAST)
        _, b = run(capsys, ["ev", spec, "--seed", "7"] + FAST)
        a.pop("manifest")
        b.pop("manifest")
        assert a == b

    def test_out_file(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GAUSS_SPEC)
        out = tmp_path / "report.json"
        code, payload = run(capsys, ["ev", spec, "--seed", "0", "--out", str(out)] + FAST)
        assert code == 0
        assert json.loads(out.read_text())["ev"] == payload["ev"]

    def test_regression_spec_with_data(self, tmp_path, capsys, table2):
        csv = tmp_path / "data.csv"
        table2.to_csv(csv)
        spec = write_spec(
            tmp_path,
            {
                "family": "polynomial-regression",
                "order": 2,
                "hypothesis": {"equalities": ["b2"]},
            },
        )
        code, payload = run(
            capsys, ["ev", spec, "--data", str(csv), "--seed", "1"] + FAST
        )
        assert code == 0
        assert payload["ev"] < 0.06
        assert payload["t"] == 4 and payload["hdim"] == 3

    def _decide_b2(self, tmp_path, capsys, table2, monkeypatch, module, name):
        """`fbst ev --threshold 0.05` for b2 = 0 on the order-2 regression at
        seed 0, counting the calls of module.name."""
        calls = []
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(a) or inner(*a))
        csv = tmp_path / "data.csv"
        table2.to_csv(csv)
        spec = write_spec(tmp_path, {"family": "polynomial-regression", "order": 2,
                                     "hypothesis": {"equalities": ["b2"]}})
        code, payload = run(capsys, ["ev", spec, "--data", str(csv), "--seed", "0",
                                     "--threshold", "0.05"] + FAST)
        assert code == 0
        # the figures of the version that estimated the ladder and the ESS
        # once per evalue call
        assert payload["ev"] == 0.009875
        assert payload["ev_complement"] == 1.0
        assert payload["decision"] == "reject"
        return calls

    def test_decision_estimates_one_ladder(self, tmp_path, capsys, table2, monkeypatch):
        import fbst.cli

        calls = self._decide_b2(tmp_path, capsys, table2, monkeypatch,
                                fbst.cli, "estimate_truth_ladder")
        assert len(calls) == 1

    def test_decision_computes_one_ess(self, tmp_path, capsys, table2, monkeypatch):
        import sys

        calls = self._decide_b2(tmp_path, capsys, table2, monkeypatch,
                                sys.modules["fbst.evalue"], "effective_sample_size")
        assert len(calls) == 1

    def test_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["ev", str(tmp_path / "nope.json"), "--seed", "0"]) == 2

    def test_bad_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["ev", str(path), "--seed", "0"]) == 2

    def test_missing_hypothesis_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "gaussian-mean", "mean": 0, "variance": 1})
        assert main(["ev", spec, "--seed", "0"] + FAST) == 2

    def test_infeasible_hypothesis_exits_3(self, tmp_path, capsys):
        spec = write_spec(
            tmp_path,
            {
                "family": "gaussian-mean",
                "mean": 0.0,
                "variance": 1.0,
                "hypothesis": {"equalities": ["theta", "theta - 1"]},
            },
        )
        assert main(["ev", spec, "--seed", "0"] + FAST) == 3

    def test_random_seed_reported(self, tmp_path, capsys):
        spec = write_spec(tmp_path, GAUSS_SPEC)
        code = main(["ev", spec] + FAST)
        captured = capsys.readouterr()
        assert code == 0
        assert "seed:" in captured.err


class TestSelect:
    def test_builtin_sbc(self, capsys):
        code, payload = run(capsys, ["select", "--builtin", "sakamoto", "--criterion", "sbc"])
        assert code == 0
        assert payload["selected_order"] == 2
        assert len(payload["rows"]) == 6

    def test_requires_data_or_builtin(self, capsys):
        assert main(["select"]) == 2

    def test_unknown_builtin(self, capsys):
        assert main(["select", "--builtin", "iris"]) == 2

    def test_csv_and_plot_outputs(self, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        plot = tmp_path / "curves.csv"
        code, _ = run(
            capsys,
            [
                "select",
                "--builtin",
                "sakamoto",
                "--kmax",
                "3",
                "--csv",
                str(csv),
                "--emit-plot",
                str(plot),
            ],
        )
        assert code == 0
        table = csv.read_text().splitlines()
        assert table[0].startswith("order,")
        assert len(table) == 5
        curves = np.loadtxt(plot, delimiter=",", skiprows=1)
        assert curves.shape[1] == 6  # x, target, orders 0-3

    def test_fbst_criterion(self, capsys):
        code, payload = run(
            capsys,
            ["select", "--builtin", "sakamoto", "--criterion", "fbst", "--kmax", "3",
             "--seed", "0", "--draws", "5000", "--chains", "2", "--burnin", "1000"],
        )
        assert code == 0
        assert payload["selected_order"] == 2
        assert payload["rows"][3]["ev"] > 0.5


class TestVerifyLogic:
    def test_clean_run_exits_0(self, capsys):
        code, payload = run(
            capsys, ["verify-logic", "--grid", "10", "--trials", "100", "--seed", "0"]
        )
        assert code == 0
        assert payload["total_violations"] == 0

    def test_negative_control_exits_1(self, capsys):
        code, payload = run(
            capsys,
            [
                "verify-logic",
                "--grid",
                "10",
                "--trials",
                "100",
                "--seed",
                "0",
                "--rule",
                "broken-negative-control",
            ],
        )
        assert code == 1
        assert payload["total_violations"] >= 1

    def test_tiny_grid_rejected(self, capsys):
        assert main(["verify-logic", "--grid", "2", "--seed", "0"]) == 2


class TestCompose:
    def test_single_slot_network_matches_ev(self, tmp_path, capsys):
        net = write_spec(
            tmp_path,
            {
                "serial": [{"family": "gaussian-mean", "mean": 1.0, "variance": 1.0}],
                "disjuncts": [[{"equalities": ["theta"]}]],
            },
            name="net.json",
        )
        code, payload = run(capsys, ["compose", net, "--seed", "0"] + FAST)
        assert code == 0
        assert payload["components"] == 1 and payload["disjuncts"] == 1
        assert payload["ev"] == pytest.approx(0.3173105, abs=0.02)

    def test_unconstrained_slot_serialized_as_null(self, tmp_path, capsys):
        net = write_spec(
            tmp_path,
            {
                "serial": [
                    {"family": "gaussian-mean", "mean": 0.0, "variance": 1.0},
                    {"family": "gaussian-mean", "mean": 0.0, "variance": 1.0},
                ],
                "disjuncts": [[{"equalities": ["theta"]}, None]],
            },
            name="net2.json",
        )
        code, payload = run(capsys, ["compose", net, "--seed", "0"] + FAST)
        assert code == 0
        assert payload["log_s_star"][0][1] is None

    def test_malformed_network_exits_2(self, tmp_path, capsys):
        net = write_spec(tmp_path, {"serial": []}, name="bad.json")
        assert main(["compose", net, "--seed", "0"]) == 2
