import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fbst import (
    Dataset,
    DomainError,
    Hypothesis,
    ParameterSpace,
    SingularDesignError,
    StatisticalModel,
    complement,
    gaussian_mean_evalue_oracle,
    hypothesis_contains,
    hypothesis_from_spec,
    log_surprise,
    make_gaussian_mean_model,
    make_polynomial_regression_model,
    model_from_spec,
    point_hypothesis,
)
from fbst.expressions import ExpressionError, compile_expression


def two_sided_normal_tail(z):
    # quadrature oracle: mass of the standard normal outside [-z, z]
    pdf = lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)
    inner, _ = quad(pdf, -z, z, epsabs=1e-13)
    return 1.0 - inner


class TestParameterSpace:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            ParameterSpace(("a",), np.array([1.0]), np.array([0.0]))

    def test_contains(self):
        sp = ParameterSpace(("a", "b"), np.array([0.0, -np.inf]), np.array([1.0, np.inf]))
        assert sp.contains([0.5, 100.0])
        assert not sp.contains([1.5, 0.0])


class TestLogSurprise:
    def test_flat_reference_equals_kernel(self, gauss_model):
        theta = np.array([0.3])
        assert log_surprise(gauss_model, theta) == gauss_model.log_kernel(theta)

    def test_standard_normal_difference(self):
        m = make_gaussian_mean_model(0.0, 1.0)
        assert log_surprise(m, [0.0]) - log_surprise(m, [1.0]) == pytest.approx(0.5)

    def test_out_of_bounds_raises(self):
        sp = ParameterSpace(("a",), np.array([0.0]), np.array([1.0]))
        m = StatisticalModel(sp, lambda th: np.zeros(np.shape(th)[:-1]))
        with pytest.raises(DomainError):
            log_surprise(m, [2.0])

    def test_regression_matches_direct_formula(self, reg2_model, table2):
        # independent termwise transcription of the posterior density
        ex = reg2_model.extra
        X, y, n, k = ex["X"], ex["y"], ex["n"], ex["k"]
        beta_hat = np.linalg.solve(X.T @ X, X.T @ y)
        s2 = float((y - X @ beta_hat) @ (y - X @ beta_hat)) / (n - k)
        beta = beta_hat + 0.05
        sigma = 0.13
        quad_term = float((beta - beta_hat) @ (X.T @ X) @ (beta - beta_hat))
        direct = -(n + 1) * math.log(sigma) - ((n - k) * s2 + quad_term) / (2 * sigma ** 2)
        theta = np.concatenate([beta, [math.log(sigma)]])
        assert log_surprise(reg2_model, theta) == pytest.approx(direct, rel=1e-12)

    def test_surprise_ratio_identity(self):
        m = make_gaussian_mean_model(0.5, 2.0)
        for theta in (-1.0, 0.0, 0.7, 3.0):
            got = math.exp(log_surprise(m, [theta]) - log_surprise(m, [0.5]))
            assert got == pytest.approx(math.exp(-((theta - 0.5) ** 2) / 4.0), abs=1e-12)


class TestHypothesis:
    def test_empty_constraints_contains_everything(self):
        H = Hypothesis()
        assert hypothesis_contains(H, [3.0, -2.0])

    def test_equality_with_tolerance(self):
        H = point_hypothesis([0.0, 5.0])
        assert hypothesis_contains(H, [0.0, 5.0], 1e-9)
        H1 = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 0],))
        assert hypothesis_contains(H1, [0.0, 5.0], 1e-9)
        assert not hypothesis_contains(H1, [1e-6, 5.0], 1e-9)

    def test_violated_inequality(self):
        H = Hypothesis(inequalities=(lambda th: np.asarray(th)[..., 0],))
        assert not hypothesis_contains(H, [0.1, 0.0])
        assert hypothesis_contains(H, [-0.1, 0.0])

    def test_complement_of_everything_is_empty(self):
        full = Hypothesis()
        empty = complement(full)
        assert not hypothesis_contains(empty, [0.0])

    def test_complement_involution(self):
        H = Hypothesis(inequalities=(lambda th: np.asarray(th)[..., 0] - 1.0,))
        back = complement(complement(H))
        grid = np.linspace(-3, 3, 41)[:, None]
        assert np.array_equal(H.contains(grid), back.contains(grid))

    def test_sharp_complement_membership(self):
        H = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 0],))
        C = complement(H)
        assert hypothesis_contains(C, [0.1, 0.0])
        assert not hypothesis_contains(C, [0.0, 0.0])
        assert H.is_sharp and not C.is_sharp
        assert C.hdim(2) == 2

    def test_membership_xor_outside_boundary_band(self):
        H = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 0],))
        C = complement(H)
        rng = np.random.default_rng(0)
        probes = rng.normal(size=(200, 2))
        probes = probes[np.abs(probes[:, 0]) > 1e-6]
        inside_h = H.contains(probes)
        inside_c = C.contains(probes)
        assert np.all(inside_h ^ inside_c)

    def test_complement_residuals_measure_its_closure(self):
        # complement of {a^2 + b^2 <= 1, b <= 0.6}: the closure is the union
        # of {a^2 + b^2 >= 1} and {b >= 0.6}
        inner = hypothesis_from_spec({"inequalities": ["a^2 + b^2 - 1", "b - 0.6"]}, ("a", "b"))
        C = complement(inner)
        # on the boundary of b <= 0.6: outside the open complement, inside its closure
        assert not hypothesis_contains(C, [0.2, 0.6])
        assert C.residuals([0.2, 0.6]) == (0.0, 0.0)
        # inside the inner set: 0.5 below b = 0.6, 0.95 inside the circle
        assert C.residuals([0.2, 0.1]) == (0.0, pytest.approx(0.5, abs=1e-15))
        assert C.residuals([0.0, 2.0]) == (0.0, 0.0)

    def test_complement_residuals_of_sharp_and_empty_sets(self):
        sharp = complement(point_hypothesis([0.0, 5.0]))
        assert sharp.residuals([0.0, 5.0]) == (0.0, 0.0)
        assert sharp.residuals([3.0, -1.0]) == (0.0, 0.0)
        assert complement(Hypothesis()).residuals([0.0]) == (0.0, math.inf)

    def test_constraint_order_irrelevant(self):
        g1 = lambda th: np.asarray(th)[..., 0] - 1.0
        g2 = lambda th: -np.asarray(th)[..., 0]
        a = Hypothesis(inequalities=(g1, g2))
        b = Hypothesis(inequalities=(g2, g1))
        grid = np.linspace(-2, 2, 31)[:, None]
        assert np.array_equal(a.contains(grid), b.contains(grid))


class TestGaussianMeanFamily:
    def test_oracle_at_mode_is_one(self):
        assert gaussian_mean_evalue_oracle(0.7, 2.0, 0.7) == 1.0

    def test_oracle_one_sigma(self):
        # oracle frozen from high-precision quadrature of the normal density
        expected = two_sided_normal_tail(1.0)
        assert expected == pytest.approx(0.3173105, abs=1e-6)
        assert gaussian_mean_evalue_oracle(1.0, 1.0, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_oracle_at_1p96(self):
        expected = two_sided_normal_tail(1.96)
        assert expected == pytest.approx(0.0500, abs=1e-4)
        assert gaussian_mean_evalue_oracle(0.0, 1.0, 1.96) == pytest.approx(expected, abs=1e-12)

    def test_variance_must_be_positive(self):
        with pytest.raises(ValueError):
            make_gaussian_mean_model(0.0, 0.0)


class TestPolynomialRegressionFamily:
    def test_order0_intercept_is_mean(self, table2):
        m = make_polynomial_regression_model(table2, 0)
        assert m.extra["beta_hat"][0] == pytest.approx(np.mean(table2.column("y")), abs=1e-12)
        assert m.extra["beta_hat"][0] == pytest.approx(0.1460, abs=1e-4)

    def test_exact_line_interpolates(self):
        x = np.linspace(0, 1, 12)
        data = Dataset(np.column_stack([x, 2.0 * x - 0.5]), ("x", "y"))
        m = make_polynomial_regression_model(data, 1)
        resid = data.column("y") - m.extra["X"] @ m.extra["beta_hat"]
        assert np.max(np.abs(resid)) < 1e-12

    def test_order2_mean_squared_residual(self, reg2_model):
        assert reg2_model.extra["ssr"] / reg2_model.extra["n"] == pytest.approx(0.01130, abs=1e-4)

    def test_normal_equations(self, table2):
        for k in range(5):
            m = make_polynomial_regression_model(table2, k)
            lhs = m.extra["XtX"] @ m.extra["beta_hat"]
            rhs = m.extra["X"].T @ table2.column("y")
            assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_singular_design(self):
        x = np.zeros(10)
        data = Dataset(np.column_stack([x, np.arange(10.0)]), ("x", "y"))
        with pytest.raises(SingularDesignError):
            make_polynomial_regression_model(data, 1)

    def test_too_few_rows(self, table2):
        small = Dataset(table2.values[:4], ("x", "y"))
        with pytest.raises(ValueError):
            make_polynomial_regression_model(small, 3)


class TestDataset:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.0, np.nan]]), ("x", "y"))

    def test_csv_round_trip(self, tmp_path, table2):
        path = tmp_path / "data.csv"
        table2.to_csv(path)
        back = Dataset.from_csv(path)
        assert back.columns == table2.columns
        assert np.allclose(back.values, table2.values)


class TestExpressions:
    def test_basic_arithmetic(self):
        f = compile_expression("2*a + b^2 - exp(0)", ("a", "b"))
        assert f(np.array([1.5, 3.0])) == pytest.approx(3.0 + 9.0 - 1.0)

    def test_batched_evaluation(self):
        f = compile_expression("a - b", ("a", "b"))
        out = f(np.array([[1.0, 0.5], [2.0, 2.0]]))
        assert np.allclose(out, [0.5, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ExpressionError):
            compile_expression("a + z", ("a",))

    def test_rejects_calls_outside_whitelist(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')", ("a",))


class TestModelSpec:
    def test_gaussian_spec(self):
        model, hyp = model_from_spec(
            {
                "family": "gaussian-mean",
                "mean": 1.0,
                "variance": 1.0,
                "hypothesis": {"equalities": ["theta"]},
            }
        )
        assert model.family == "gaussian-mean"
        assert hyp.is_sharp
        assert hypothesis_contains(hyp, [0.0])

    def test_generic_spec_with_bounds(self):
        model, _ = model_from_spec(
            {
                "family": "generic",
                "coordinates": ["u"],
                "bounds": [[0, None]],
                "log_kernel": "-(log(u))^2/2 - log(u)",
            }
        )
        assert model.space.lower[0] == 0.0
        assert math.isinf(model.space.upper[0])

    def test_linear_equalities_detected(self):
        hyp = hypothesis_from_spec({"equalities": ["a - 2*b"]}, ("a", "b"))
        assert hyp.linear_equalities is not None
        assert np.allclose(hyp.linear_equalities[0].coeffs, [1.0, -2.0])

    def test_nonlinear_equalities_not_marked_linear(self):
        hyp = hypothesis_from_spec({"equalities": ["a*a - 1"]}, ("a",))
        assert hyp.linear_equalities is None

    def test_affine_detection_without_numpy_warnings(self):
        # log(a) is -inf at the origin, where the affine probe starts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hyp = hypothesis_from_spec({"equalities": ["log(a) - 1"]}, ("a", "b"))
            affine = hypothesis_from_spec({"equalities": ["a - 2*b + 1"]}, ("a", "b"))
        assert hyp.linear_equalities is None and len(hyp.equalities) == 1
        (lin,) = affine.linear_equalities
        assert np.array_equal(lin.coeffs, [1.0, -2.0]) and lin.offset == 1.0
