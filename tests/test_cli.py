import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbst
from fbst import composition
from fbst.cli import main
from fbst.model import model_from_spec

FAST = ["--draws", "20000", "--chains", "2", "--burnin", "2000"]


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# the banana, whose Laplace fit the k-hat gate refuses, so it samples by the
# random walk; and an inconsistent pair of affine equalities on it
BANANA = {"family": "generic", "coordinates": ["a", "b"], "log_kernel": "-a^2/2 - (b - a^2)^2"}
INCONSISTENT = ["a - b", "a - b - 1"]
# the banana with `a` bounded, and a pair of equalities that pins a point
# outside the bounds
BOUNDED_BANANA = {**BANANA, "bounds": [[-1, 1], [None, None]]}
OUTSIDE = ["a - 2", "b"]

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
        seed 0, counting the calls of module.name.  The model drops its exact
        draws, so that the random walk draws the sample."""
        import fbst.cli

        build = fbst.cli.model_from_spec

        def walk_from_spec(*args):
            model, hyp = build(*args)
            return dataclasses.replace(model, draw=None), hyp

        monkeypatch.setattr(fbst.cli, "model_from_spec", walk_from_spec)
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
        # ev counts the draws with log s <= log s*
        assert payload["ev"] == 0.008025
        assert payload["ev_complement"] == 1.0
        assert payload["decision"] == "reject"
        return calls

    def test_decision_builds_no_ladder(self, tmp_path, capsys, table2, monkeypatch):
        # ev and ev_complement are read from the sample itself
        calls = self._decide_b2(tmp_path, capsys, table2, monkeypatch,
                                fbst.TruthLadder, "__post_init__")
        assert calls == []

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

    def test_inconsistent_pair_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(fbst.cli, "sample_posterior", lambda *a: calls.append(a))
        spec = write_spec(tmp_path, {**BANANA, "hypothesis": {"equalities": INCONSISTENT}})
        assert main(["ev", spec, "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the affine equalities are inconsistent\n"
        assert calls == []

    def test_pinned_point_outside_bounds_fails_before_sampling(self, tmp_path, capsys,
                                                               monkeypatch):
        calls = []
        monkeypatch.setattr(fbst.cli, "sample_posterior", lambda *a: calls.append(a))
        spec = write_spec(tmp_path, {**BOUNDED_BANANA, "hypothesis": {"equalities": OUTSIDE}})
        assert main(["ev", spec, "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: pinned point outside parameter bounds\n"
        assert calls == []

    @pytest.mark.parametrize("threshold", ["0", "1", "1.5", "nan"])
    def test_threshold_outside_unit_interval_fails_before_sampling(self, tmp_path, capsys,
                                                                   monkeypatch, threshold):
        calls = []
        monkeypatch.setattr(fbst.cli, "sample_posterior", lambda *a: calls.append(a))
        spec = write_spec(tmp_path, {**BANANA, "hypothesis": {"equalities": ["a^2 + b^2 - 1"]}})
        assert main(["ev", spec, "--seed", "0", "--threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threshold must lie strictly inside (0, 1)\n"
        assert calls == []

    @pytest.mark.parametrize("spec, message", [
        ({**GAUSS_SPEC, "mean": [1]}, "'mean' must be a number"),
        ({"family": "polynomial-regression", "order": [2], "data": [[0, 1], [1, 2], [2, 0], [3, 4]],
          "hypothesis": {"equalities": ["b1"]}}, "'order' must be an integer"),
    ], ids=["mean", "order"])
    def test_wrongly_typed_field_exits_2(self, tmp_path, capsys, spec, message):
        assert main(["ev", write_spec(tmp_path, spec), "--seed", "0"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_divergent_surprise_exits_4(self, tmp_path, capsys):
        # the reference log(a) vanishes on H = {a = 0}, where the kernel does not
        spec = write_spec(tmp_path, {
            "family": "generic", "coordinates": ["a", "b"], "log_kernel": "-(a - 0.5)^2 - b^2",
            "log_reference": "log(a)", "bounds": [[0, 1], [None, None]],
            "hypothesis": {"equalities": ["a"]},
        })
        code = main(["ev", spec, "--seed", "0", "--draws", "1000", "--burnin", "200", "--chains", "2"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "surprise diverges on the hypothesis set" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_undefined_reference_exits_2(self, tmp_path, capsys):
        # log(a) is NaN at the posterior's negative draws, about half of them
        spec = write_spec(tmp_path, {
            "family": "generic", "coordinates": ["a"], "log_kernel": "-(a^2)/2",
            "log_reference": "log(a)", "hypothesis": {"equalities": ["a - 1"]},
        })
        code = main(["ev", spec, "--seed", "0", "--draws", "1000", "--burnin", "200", "--chains", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "log reference density undefined (NaN)" in captured.err

    @pytest.mark.parametrize("field, value, message", [
        ("mean", float("nan"), "mean must be finite"),
        ("variance", float("inf"), "variance must be positive and finite"),
    ])
    def test_non_finite_gaussian_exits_2(self, tmp_path, capsys, field, value, message):
        # json.load reads the NaN and Infinity that json.dumps writes
        spec = write_spec(tmp_path, {**GAUSS_SPEC, field: value})
        assert main(["ev", spec, "--seed", "0"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_negative_order_exits_2(self, tmp_path, capsys, table2):
        csv = tmp_path / "data.csv"
        table2.to_csv(csv)
        spec = write_spec(tmp_path, {"family": "polynomial-regression", "order": -1,
                                     "hypothesis": {"equalities": ["log_sigma"]}})
        assert main(["ev", spec, "--data", str(csv), "--seed", "0"] + FAST) == 2
        assert "order must be >= 0" in capsys.readouterr().err

    def test_perfect_fit_exits_2(self, tmp_path, capsys):
        # 4 points on y = 2x + 1 leave an SSR of 0, where the posterior is improper
        spec = write_spec(tmp_path, {"family": "polynomial-regression", "order": 1,
                                     "data": [[x, 2.0 * x + 1.0] for x in range(4)],
                                     "hypothesis": {"equalities": ["b1"]}})
        assert main(["ev", spec, "--seed", "0"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SSR = 0" in captured.err

    @pytest.mark.parametrize("field, value, message", [
        ("bounds", [0, 1], "'bounds' must be 1 [low, high] pairs"),
        ("bounds", [[0]], "'bounds' must be 1 [low, high] pairs"),
        ("bounds", 3, "'bounds' must be 1 [low, high] pairs"),
        ("bounds", [[0, 1, 2]], "'bounds' must be 1 [low, high] pairs"),
        ("bounds", [[[0], 1]], "'bounds' must be 1 [low, high] pairs"),
        ("coordinates", "u", "'coordinates' must be a list of strings"),
        ("log_kernel", 3, "expression must be a string"),
        ("hypothesis", {"equalities": "u - 1"}, "'equalities' must be a list of strings"),
        ("hypothesis", {"inequalities": [1]}, "'inequalities' must be a list of strings"),
    ])
    def test_malformed_generic_spec_exits_2(self, tmp_path, capsys, field, value, message):
        spec = write_spec(tmp_path, {"family": "generic", "coordinates": ["u"], "log_kernel": "-u^2 / 2",
                                     "hypothesis": {"equalities": ["u"]}, field: value})
        assert main(["ev", spec, "--seed", "0"] + FAST) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert message in captured.err

    def test_bool_constant_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"family": "generic", "coordinates": ["u"],
                                     "log_kernel": "-u^2 / 2 + True",
                                     "hypothesis": {"equalities": ["u"]}})
        assert main(["ev", spec, "--seed", "0"] + FAST) == 2
        assert "non-numeric constant" in capsys.readouterr().err

    def _hash_and_ev(self, capsys, argv, burnin):
        code, payload = run(capsys, argv + ["--seed", "0", "--draws", "2000", "--chains", "2",
                                            "--burnin", str(burnin)])
        assert code == 0
        return payload["manifest"]["config_hash"], payload["ev"]

    def test_exact_draws_leave_burnin_out_of_config_hash(self, tmp_path, capsys, table2):
        csv = tmp_path / "data.csv"
        table2.to_csv(csv)
        spec = write_spec(tmp_path, {"family": "polynomial-regression", "order": 2,
                                     "hypothesis": {"equalities": ["b2"]}})
        argv = ["ev", spec, "--data", str(csv)]
        low, high = (self._hash_and_ev(capsys, argv, burnin) for burnin in (1000, 5000))
        assert low == high

    def test_random_walk_keeps_burnin_in_config_hash(self, tmp_path, capsys):
        # a generic model is sampled by a Metropolis sampler, which reads
        # the burn-in: here independence Metropolis-Hastings, whose gate passes
        spec = write_spec(tmp_path, {"family": "generic", "coordinates": ["u"],
                                     "log_kernel": "-(u - 1)^2 / 2",
                                     "hypothesis": {"equalities": ["u"]}})
        (low_hash, _), (high_hash, _) = (self._hash_and_ev(capsys, ["ev", spec], burnin)
                                         for burnin in (1000, 5000))
        assert low_hash != high_hash

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

    def test_data_without_x_and_y_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "ab.csv"
        csv.write_text("a,b\n" + "".join(f"{i},{i * i % 7}\n" for i in range(12)))
        assert main(["select", "--data", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dataset has no column 'x'; its columns are a, b\n"

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
        assert table[0] == "order,d,r_emp,r_fpe,r_sbc,r_gcv,r_sms,aic,ev,sev"
        assert len(table) == 5
        curves = np.loadtxt(plot, delimiter=",", skiprows=1)
        assert curves.shape[1] == 6  # x, target, orders 0-3

    def test_plot_reads_the_table_fits(self, tmp_path, capsys, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a: calls.append(a) or qr(*a))
        plot = tmp_path / "curves.csv"
        code, _ = run(capsys, ["select", "--builtin", "sakamoto", "--emit-plot", str(plot)])
        assert code == 0
        assert len(calls) == 6  # one per order 0..5
        curves = np.loadtxt(plot, delimiter=",", skiprows=1)
        assert curves.shape == (101, 8)

    @pytest.mark.parametrize("criterion", ["sbc", "fbst"])
    def test_negative_kmax_exits_2(self, tmp_path, capsys, criterion):
        csv = tmp_path / "table.csv"
        assert main(["select", "--builtin", "sakamoto", "--kmax", "-1", "--criterion",
                     criterion, "--seed", "0", "--csv", str(csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "k_max must be >= 0" in captured.err

    def test_fbst_criterion(self, capsys):
        code, payload = run(
            capsys,
            ["select", "--builtin", "sakamoto", "--criterion", "fbst", "--kmax", "3",
             "--seed", "0", "--draws", "5000", "--chains", "2", "--burnin", "1000"],
        )
        assert code == 0
        assert payload["selected_order"] == 2
        assert payload["rows"][3]["ev"] > 0.5


    @pytest.mark.parametrize("criterion", ["sbc", "fbst"])
    def test_burnin_left_out_of_config_hash(self, capsys, criterion):
        # select samples only regression models, which take exact draws
        hashes = {run(capsys, ["select", "--builtin", "sakamoto", "--criterion", criterion,
                               "--kmax", "1", "--seed", "0", "--draws", "1000", "--chains", "2",
                               "--burnin", burnin])[1]["manifest"]["config_hash"]
                  for burnin in ("100", "900")}
        assert len(hashes) == 1


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

    def test_negative_trials_rejected(self, capsys):
        assert main(["verify-logic", "--trials", "-5", "--seed", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: --trials must be at least 0\n"

    def test_zero_trials_exits_0(self, capsys):
        code, payload = run(capsys, ["verify-logic", "--grid", "4", "--trials", "0", "--seed", "0"])
        assert code == 0 and payload["total_violations"] == 0

    def test_config_hash_reproducible_across_interpreters(self):
        # each fresh interpreter lays its functions out at other addresses
        env = dict(os.environ, PYTHONPATH=str(Path(fbst.__file__).resolve().parents[1]))
        argv = [sys.executable, "-c", "import sys; from fbst.cli import main; main(sys.argv[1:])",
                "verify-logic", "--grid", "4", "--trials", "1", "--seed", "0"]
        hashes = [
            json.loads(subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
                       .stdout)["manifest"]["config_hash"]
            for _ in range(2)
        ]
        assert hashes[0] == hashes[1]


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
        # the same model, hypothesis, seed and flags as `fbst ev` reads
        _, single = run(capsys, ["ev", write_spec(tmp_path, GAUSS_SPEC), "--seed", "0"] + FAST)
        assert payload["ev"] == single["ev"]
        assert payload["log_s_star"] == [[single["log_s_star"]]]

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
        serial = NET_SPEC["serial"]
        for spec in ({"serial": []}, {"serial": 5, "disjuncts": [[]]},
                     {"serial": [], "disjuncts": [[]]},
                     {"serial": serial, "disjuncts": [1]}, {"serial": serial, "disjuncts": []},
                     {"serial": serial, "disjuncts": [[None, None]]}):
            net = write_spec(tmp_path, spec, name="bad.json")
            assert main(["compose", net, "--seed", "0"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert "Traceback" not in captured.err

    def _hash_and_ev(self, capsys, net, burnin):
        code, payload = run(capsys, ["compose", net, "--seed", "0", "--draws", "2000",
                                     "--chains", "2", "--burnin", str(burnin)])
        assert code == 0
        return payload["manifest"]["config_hash"], payload["ev"]

    def test_exact_draws_leave_burnin_out_of_config_hash(self, tmp_path, capsys):
        net = write_spec(tmp_path, NET_SPEC, name="net.json")
        low, high = (self._hash_and_ev(capsys, net, burnin) for burnin in (1000, 5000))
        assert low == high
        # `fbst ev`'s value at these flags
        assert low[1] == pytest.approx(0.31525, abs=5e-5)

    def test_random_walk_keeps_burnin_in_config_hash(self, tmp_path, capsys):
        # one generic slot beside an exact one: a Metropolis sampler runs
        generic = {"family": "generic", "coordinates": ["u"], "log_kernel": "-(u - 1)^2 / 2"}
        net = write_spec(tmp_path, {"serial": NET_SPEC["serial"] + [generic],
                                    "disjuncts": [[{"equalities": ["theta"]}, None]]},
                         name="net.json")
        (low_hash, _), (high_hash, _) = (self._hash_and_ev(capsys, net, burnin)
                                         for burnin in (1000, 5000))
        assert low_hash != high_hash

    @pytest.mark.parametrize("model, hypothesis, code", [
        (BANANA, {"equalities": INCONSISTENT}, 3),
        (BANANA, {"equalities": "a"}, 2),
        (BOUNDED_BANANA, {"equalities": OUTSIDE}, 3),
    ], ids=["inconsistent", "malformed", "outside-bounds"])
    def test_hypotheses_fail_before_sampling(self, tmp_path, capsys, monkeypatch, model, hypothesis,
                                             code):
        calls = []
        monkeypatch.setattr(composition, "sample_posterior", lambda *a: calls.append(a))
        net = write_spec(tmp_path, {"serial": [model], "disjuncts": [[hypothesis]]},
                         name="net.json")
        assert main(["compose", net, "--seed", "0"]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert calls == []

    def test_models_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(composition, "model_from_spec",
                            lambda spec: built.append(spec) or model_from_spec(spec))
        net = write_spec(tmp_path, NET_SPEC, name="net.json")
        self._hash_and_ev(capsys, net, 1000)
        assert built == NET_SPEC["serial"]


NET_SPEC = {
    "serial": [{"family": "gaussian-mean", "mean": 1.0, "variance": 1.0}],
    "disjuncts": [[{"equalities": ["theta"]}]],
}


@pytest.mark.parametrize("argv, want_code", [
    (["select", "--builtin", "sakamoto", "--kmax", "3"], 0),
    (["verify-logic", "--grid", "10", "--trials", "100", "--seed", "0"], 0),
    (["verify-logic", "--grid", "10", "--trials", "100", "--seed", "0",
      "--rule", "broken-negative-control"], 1),
    (["compose", "NET", "--seed", "0"] + FAST, 0),
])
def test_out_file_holds_what_stdout_prints(tmp_path, capsys, argv, want_code):
    argv = [write_spec(tmp_path, NET_SPEC) if a == "NET" else a for a in argv]
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == want_code
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["manifest"]["command"] == argv[0]


@pytest.mark.parametrize("argv", [
    ["select", "--builtin", "sakamoto", "--kmax", "3", "--criterion", "fbst", "--seed", "0",
     "--draws", "1000"],
    ["compose", "NET2", "--seed", "0"] + FAST,
], ids=["select", "compose"])
def test_no_command_builds_a_ladder(tmp_path, capsys, monkeypatch, argv):
    # `fbst ev`'s twin is TestEv::test_decision_builds_no_ladder
    def refuse(ladder):
        raise AssertionError("ladder built")

    monkeypatch.setattr(fbst.TruthLadder, "__post_init__", refuse)
    net2 = {"serial": NET_SPEC["serial"] * 2, "disjuncts": [[{"equalities": ["theta"]}, None]]}
    argv = [write_spec(tmp_path, net2) if a == "NET2" else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("nmax", ["1", "0", "-5"])
@pytest.mark.parametrize("argv", [
    ["ev", "GAUSS", "--seed", "0"] + FAST,
    ["select", "--builtin", "sakamoto"],
    ["select", "--builtin", "sakamoto", "--criterion", "fbst", "--seed", "0"] + FAST,
    ["compose", "NET", "--seed", "0"] + FAST,
])
def test_nmax_below_two_exits_2(tmp_path, capsys, argv, nmax):
    specs = {"GAUSS": GAUSS_SPEC, "NET": NET_SPEC}
    argv = [write_spec(tmp_path, specs[a]) if a in specs else a for a in argv]
    assert main(argv + ["--nmax", nmax]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n_max must be at least 2" in captured.err


def test_unwritable_out_file_exits_2_with_empty_stdout(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["verify-logic", "--grid", "4", "--trials", "10", "--seed", "0",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
