import json
import math

import numpy as np
import pytest

from fbst import (
    Dataset,
    SamplerConfig,
    SingularDesignError,
    benchmark_dataset,
    coordinate_zero_hypothesis,
    empirical_error,
    evalue,
    make_polynomial_regression_model,
    penalty_factor,
    sample_posterior,
    select_order,
)
from fbst import modelsel
from fbst.cli import main
from fbst.model import least_squares
from fbst.modelsel import (
    aic,
    fitted_curves,
    order_fits,
    selection_table,
    synthesize_dataset,
    target_function,
)

# published reference table for the 21-point benchmark: rows are orders 0-5,
# columns are (r_emp, r_fpe, r_sbc, r_gcv, r_sms)
REFERENCE_ERRORS = np.array(
    [
        [0.03712, 0.04494, 0.04307, 0.04535, 0.04419],
        [0.02223, 0.02964, 0.02787, 0.03025, 0.02858],
        [0.01130, 0.01661, 0.01534, 0.01724, 0.01560],
        [0.01129, 0.01835, 0.01667, 0.01946, 0.01667],
        [0.01088, 0.01959, 0.01751, 0.02133, 0.01710],
        [0.01087, 0.02173, 0.01913, 0.02445, 0.01811],
    ]
)

FAST_CFG = SamplerConfig(seed=0, chains=2, draws=5_000, burnin=1_000)


def top_coefficient_evalue(data, k, cfg):
    """ev(b_k = 0) in the order-k model, built and sampled on its own."""
    model = make_polynomial_regression_model(data, k)
    return evalue(model, coordinate_zero_hypothesis(k, k + 2), sample_posterior(model, cfg))


def exact_line():
    """12 points on y = 2x - 0.5, which orders >= 1 fit with SSR = 0."""
    x = np.linspace(0, 1, 12)
    return Dataset(np.column_stack([x, 2.0 * x - 0.5]), ("x", "y"))


class TestEmpiricalError:
    def test_reference_column(self, table2):
        for k in range(6):
            assert empirical_error(table2, k) == pytest.approx(
                REFERENCE_ERRORS[k, 0], abs=1e-4
            )

    def test_monotone_in_order(self, table2):
        errs = [empirical_error(table2, k) for k in range(9)]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_order_too_large(self, table2):
        with pytest.raises(ValueError):
            empirical_error(table2, 19)

    def test_model_reads_the_same_fit(self, table2):
        n = table2.n
        for k in range(9):
            model = make_polynomial_regression_model(table2, k)
            _, _, _, beta_hat, ssr = least_squares(table2, k)
            assert empirical_error(table2, k) == ssr / n
            assert np.array_equal(model.mode[:-1], beta_hat)
            assert model.mode[-1] == 0.5 * math.log((n - k) * (ssr / (n - k)) / (n + 1))

    def test_order9_design_is_singular(self, table2):
        with pytest.raises(SingularDesignError):
            empirical_error(table2, 9)
        with pytest.raises(SingularDesignError):
            make_polynomial_regression_model(table2, 9)


class TestPenaltyFactors:
    def test_reference_examples(self):
        # d = 2, n = 21 for the order-0 model
        assert 0.03712 * penalty_factor("fpe", 2, 21) == pytest.approx(0.04494, abs=1e-4)
        assert 0.03712 * penalty_factor("sbc", 2, 21) == pytest.approx(0.04307, abs=1e-4)

    def test_sms_small_q_limit(self):
        # r_sms -> 1 as q -> 0
        assert penalty_factor("sms", 1, 10 ** 7) == pytest.approx(1.0, abs=1e-6)

    def test_all_factors_exceed_one(self):
        for crit in ("fpe", "sbc", "gcv", "sms"):
            for d in (2, 5):
                assert penalty_factor(crit, d, 21) > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            penalty_factor("fpe", 21, 21)
        with pytest.raises(ValueError):
            penalty_factor("mdl", 2, 21)


class TestSelectionTable:
    def test_penalized_columns_match_reference(self, table2):
        rows = selection_table(table2, 5)
        for k, row in enumerate(rows):
            got = [row.r_emp, row.r_fpe, row.r_sbc, row.r_gcv, row.r_sms]
            assert np.allclose(got, REFERENCE_ERRORS[k], atol=1e-4)

    def test_penalized_is_factor_times_empirical(self, table2):
        rows = selection_table(table2, 5)
        for row in rows:
            for crit in ("fpe", "sbc", "gcv", "sms"):
                expected = row.r_emp * penalty_factor(crit, row.d, table2.n)
                assert row.penalized(crit) == pytest.approx(expected, abs=1e-12)

    def test_dimension_column(self, table2):
        rows = selection_table(table2, 3)
        assert [r.d for r in rows] == [2, 3, 4, 5]

    def test_evalue_columns_absent_by_default(self, table2):
        rows = selection_table(table2, 2)
        assert all(r.ev is None and r.sev is None for r in rows)

    def test_singular_order_fails_before_sampling(self, table2, monkeypatch):
        calls = []

        def counting_sampler(model, cfg):
            calls.append(cfg.seed)
            return sample_posterior(model, cfg)

        monkeypatch.setattr(modelsel, "sample_posterior", counting_sampler)
        with pytest.raises(SingularDesignError):
            selection_table(table2, 9, FAST_CFG, with_evalues=True)
        assert calls == []

    def test_one_fit_per_order(self, table2, monkeypatch):
        fits = []
        monkeypatch.setattr(modelsel, "least_squares", lambda *a: fits.append(a) or least_squares(*a))
        rows = selection_table(table2, 5)
        assert len(fits) == 6
        monkeypatch.undo()
        # the same bits as each column computed on its own
        for row in rows:
            assert row.aic == aic(table2, row.order)
            assert row.r_emp == empirical_error(table2, row.order)

    def test_evalue_columns_seeded_per_order(self, table2):
        cfg = SamplerConfig(seed=7, chains=2, draws=1_000, burnin=200)
        rows = selection_table(table2, 2, cfg, with_evalues=True)
        for row in rows:
            own = SamplerConfig(seed=7 + 1000 * row.order, chains=2, draws=1_000, burnin=200)
            report = top_coefficient_evalue(table2, row.order, own)
            assert (row.ev, row.sev) == (report.ev, report.sev)

    def test_one_qr_factorization_per_order(self, table2, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a: calls.append(a) or qr(*a))
        out = select_order(table2, 5, "fbst", sampler_cfg=SamplerConfig(seed=0, draws=1_000))
        assert out["selected_order"] == 2
        assert len(calls) == 6

    @pytest.mark.parametrize("criterion", ["sbc", "aic", "fbst"])
    def test_exact_fit_fails_before_sampling(self, monkeypatch, criterion):
        calls = []

        def counting_sampler(model, cfg):
            calls.append(cfg.seed)
            return sample_posterior(model, cfg)

        monkeypatch.setattr(modelsel, "sample_posterior", counting_sampler)
        with pytest.raises(ValueError, match=r"order 1 fits the data exactly \(SSR = 0\)"):
            select_order(exact_line(), 3, criterion, sampler_cfg=FAST_CFG)
        assert calls == []

    def test_exact_fit_has_no_aic(self):
        with pytest.raises(ValueError, match=r"order 1 fits the data exactly \(SSR = 0\)"):
            aic(exact_line(), 1)


class TestAic:
    def test_order0_value(self, table2):
        # direct evaluation of -2 loglik + 2d at the order-0 fit
        sigma2 = empirical_error(table2, 0)
        n = table2.n
        expected = n * math.log(2 * math.pi * sigma2) + n + 4.0
        assert aic(table2, 0) == pytest.approx(expected, abs=1e-12)
        assert aic(table2, 0) == pytest.approx(-5.57, abs=0.05)

    def test_shift_cancels_in_differences(self, table2):
        shifted = Dataset(
            np.column_stack([table2.column("x"), table2.column("y") + 10.0]), ("x", "y")
        )
        base = [aic(table2, k) for k in range(4)]
        moved = [aic(shifted, k) for k in range(4)]
        # intercept absorbs the shift: the whole profile is unchanged
        assert np.allclose(np.diff(base), np.diff(moved), atol=1e-8)

    def test_minimized_at_order_2(self, table2):
        vals = [aic(table2, k) for k in range(6)]
        assert int(np.argmin(vals)) == 2


class TestSelectOrder:
    def test_penalized_criteria_pick_order_2(self, table2):
        for crit in ("fpe", "sbc", "gcv", "aic"):
            out = select_order(table2, 5, criterion=crit)
            assert out["selected_order"] == 2

    def test_rows_included(self, table2):
        out = select_order(table2, 5, criterion="sbc")
        assert len(out["rows"]) == 6
        assert out["rows"][2]["r_sbc"] == pytest.approx(0.01534, abs=1e-4)

    def test_unknown_criterion(self, table2):
        with pytest.raises(ValueError):
            select_order(table2, 5, criterion="bic")

    def test_fbst_scan_picks_order_2(self, table2):
        out = select_order(table2, 4, criterion="fbst", sampler_cfg=FAST_CFG)
        # orders 3-4 keep their top-coefficient null; order 2 rejects it
        assert out["selected_order"] == 2
        evs = [r["ev"] for r in out["rows"]]
        assert evs[2] < 0.05 and evs[3] > 0.5 and evs[4] > 0.5

    def test_fbst_defaults_to_zero_when_nothing_rejects(self):
        # constant data: no polynomial coefficient is ever needed
        rng = np.random.default_rng(0)
        x = np.arange(21) * 0.05
        y = 1.0 + rng.normal(0, 1e-3, size=21)
        data = Dataset(np.column_stack([x, y]), ("x", "y"))
        out = select_order(data, 2, criterion="fbst", sampler_cfg=FAST_CFG)
        assert out["selected_order"] == 0


class TestEvalueColumn:
    def test_order2_rejects_null(self, table2):
        rep = top_coefficient_evalue(table2, 2, FAST_CFG)
        assert rep.ev < 0.06

    def test_order3_keeps_null(self, table2):
        rep = top_coefficient_evalue(table2, 3, FAST_CFG)
        assert rep.ev > 0.9


class TestGenerator:
    def test_benchmark_shape(self, table2):
        assert table2.n == 21
        assert table2.column("x")[1] == 0.05

    def test_target_function_values(self):
        assert target_function(0.3) == 0.0
        assert target_function(1.0) == pytest.approx(math.exp(0.49) - 1.0)

    def test_synthesized_dataset_reproducible(self):
        a = synthesize_dataset(7)
        b = synthesize_dataset(7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, synthesize_dataset(8).values)

    def test_synthesized_near_target(self):
        data = synthesize_dataset(3, n=21)
        resid = data.column("y") - target_function(data.column("x"))
        assert np.abs(resid).max() < 0.5

    def test_fitted_curves_shapes(self, table2):
        curves = fitted_curves(table2, order_fits(table2, 3))
        assert curves["x"].shape == (101,)
        assert set(f"order_{k}" for k in range(4)) <= set(curves)


class TestSelectCli:
    FAST = ["--seed", "0", "--draws", "1000", "--chains", "2", "--burnin", "200"]

    def test_fbst_scan_up_to_order_8(self, capsys):
        code = main(["select", "--builtin", "sakamoto", "--kmax", "8", "--criterion", "fbst"]
                    + self.FAST)
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 9

    def test_order_9_fails_alike_under_every_criterion(self, capsys):
        errors = []
        for criterion in ("sbc", "fbst"):
            argv = ["select", "--builtin", "sakamoto", "--kmax", "9", "--criterion", criterion]
            assert main(argv + self.FAST) == 2
            errors.append(capsys.readouterr().err)
        assert errors == ["error: X'X is numerically singular\n"] * 2

    def test_exact_fit_exits_2_under_every_criterion(self, tmp_path, capsys):
        csv = tmp_path / "line.csv"
        exact_line().to_csv(csv)
        for criterion in ("sbc", "fbst"):
            argv = ["select", "--data", str(csv), "--kmax", "3", "--criterion", criterion]
            assert main(argv + self.FAST) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "order 1 fits the data exactly (SSR = 0)" in captured.err
