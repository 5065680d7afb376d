import dataclasses
import math
import warnings
from fractions import Fraction

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
    coordinate_zero_hypothesis,
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
from fbst.model import _laplace_fit, least_squares
from fbst.optimizer import closed_form_constrained_mode


def reference_residuals(H, theta):
    """The earlier per-point residuals, exact on finite constraint values."""
    if H.negated_of is not None:
        inner = H.negated_of
        if inner.equalities:
            return 0.0, 0.0
        gap = min((-float(g(theta)) for g in inner.inequalities), default=np.inf)
        return 0.0, max(0.0, gap)
    eq = max((abs(float(h(theta))) for h in H.equalities), default=0.0)
    ineq = max((max(0.0, float(g(theta))) for g in H.inequalities), default=0.0)
    return eq, ineq


def reference_contains(H, theta, eq_tol=1e-9):
    """The earlier per-point membership test."""
    if H.negated_of is not None:
        return not reference_contains(H.negated_of, theta, eq_tol)
    return (all(float(g(theta)) <= 0.0 for g in H.inequalities)
            and all(abs(float(h(theta))) <= eq_tol for h in H.equalities))


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
        X, y, n, k = least_squares(table2, 2)[0], table2.column("y"), table2.n, 2
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


# bounded in a, with a reference: log(0) on the closed bound a = 0, NaN
# right of b = 4, +inf at b = -4, and a reference of -inf at b = 0
EVALUATOR_SPEC = {"family": "generic", "coordinates": ["a", "b"],
                  "log_kernel": "log(a) - b^2 + sqrt(4 - b) + 1/(b + 4)^2",
                  "log_reference": "log(abs(b))", "bounds": [[0, 1], [None, None]]}
EVALUATOR_ROWS = {  # row: (kernel live, log s)
    (0.5, 1.0): (True, "finite"),
    (1.0, 2.0): (True, "finite"),  # on the closed bound a = 1
    (1.5, 1.0): (False, -np.inf),  # outside
    (-0.5, 1.0): (False, -np.inf),  # outside, where log(a) would be NaN
    (0.0, 1.0): (False, -np.inf),  # closed bound, kernel -inf
    (0.5, 5.0): (False, -np.inf),  # NaN kernel
    (0.5, -4.0): (False, -np.inf),  # +inf kernel
    (0.5, 0.0): (True, np.inf),  # reference -inf: s = +inf
}


class TestEvaluator:
    """One rule for the kernel and the surprise, for one point and a batch."""

    @pytest.fixture
    def recorded(self):
        model = model_from_spec(EVALUATOR_SPEC)[0]
        seen = {"kernel": [], "reference": []}

        def record(name, fn):
            return lambda th: seen[name].append(th) or fn(th)

        return dataclasses.replace(model, log_kernel=record("kernel", model.log_kernel),
                                   log_reference=record("reference", model.log_reference)), seen

    def test_batch_and_single_points_agree(self, recorded):
        model, seen = recorded
        rows = np.array(list(EVALUATOR_ROWS), dtype=float)
        live = np.array([v[0] for v in EVALUATOR_ROWS.values()])
        inside = model.space.contains(rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kern = model.log_kernel_safe(rows)
            assert np.array_equal(seen["kernel"][-1], rows[inside])
            surprise = model.log_surprise_safe(rows)
            assert np.array_equal(seen["reference"][-1], rows[live])
            for i, row in enumerate(rows):
                one_kern, one_s = model.log_kernel_safe(row), model.log_surprise_safe(row)
                assert np.ndim(one_kern) == np.ndim(one_s) == 0
                assert np.array_equal(one_kern, kern[i]) and np.array_equal(one_s, surprise[i])
                if inside[i]:
                    assert np.array_equal(log_surprise(model, row), one_s)
                else:
                    with pytest.raises(DomainError):
                        log_surprise(model, row)
            assert np.array_equal(log_surprise(model, rows[inside]), surprise[inside])
        assert np.array_equal(kern > -np.inf, live)
        for got, (_, want) in zip(surprise, EVALUATOR_ROWS.values()):
            assert np.isfinite(got) if want == "finite" else got == want

    def test_inside_call_hands_theta_over_unchanged(self, recorded):
        model, seen = recorded
        rows = np.array([[0.5, 1.0], [0.2, -1.0]])
        model.log_surprise_safe(rows)
        assert seen["kernel"][-1] is rows and seen["reference"][-1] is rows
        model.log_kernel_safe(rows[0])
        assert seen["kernel"][-1].shape == (2,)

    def test_constant_expressions_give_one_value_a_row(self):
        model = model_from_spec({"family": "generic", "coordinates": ["a"], "log_kernel": "0",
                                 "log_reference": "1", "bounds": [[0, 1]]})[0]
        rows = np.array([[0.25], [0.5], [1.0]])
        assert np.array_equal(model.log_kernel_safe(rows), np.zeros(3))
        assert np.array_equal(model.log_surprise_safe(rows), np.full(3, -1.0))
        assert np.array_equal(model.log_surprise_safe(np.array([[0.5], [2.0]])), [-1.0, -np.inf])
        assert model.log_surprise_safe(rows[0]) == -1.0

    def test_overflow_still_warns(self):
        # log(0) and NaN are values of the rule; an overflow is not hidden
        model = model_from_spec({"family": "generic", "coordinates": ["a"],
                                 "log_kernel": "exp(a)", "bounds": [[0, None]]})[0]
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert model.log_kernel_safe(np.array([1000.0])) == -np.inf


class TestHypothesis:
    def test_empty_constraints_contains_everything(self):
        H = Hypothesis()
        assert hypothesis_contains(H, [3.0, -2.0])

    def test_equality_with_tolerance(self):
        H = point_hypothesis([0.0, 5.0])
        assert hypothesis_contains(H, [0.0, 5.0])
        H1 = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 0],))
        assert hypothesis_contains(H1, [0.0, 5.0])
        assert hypothesis_contains(H1, [1e-10, 5.0])
        assert not hypothesis_contains(H1, [1e-6, 5.0])

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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_evaluator_matches_per_point_reference(self, seed):
        names = ("a", "b")
        plain = [
            Hypothesis(),
            hypothesis_from_spec({"inequalities": ["a^2 + b^2 - 1", "b - 0.5"]}, names),
            hypothesis_from_spec({"equalities": ["a - b"], "inequalities": ["a - 0.25"]}, names),
            hypothesis_from_spec({"equalities": ["a*b - 0.25", "a + b - 1"]}, names),
            point_hypothesis([0.5, -0.25]),
        ]
        # the complements: of Theta, of sets with and without an equality
        hyps = plain + [complement(H) for H in plain]
        # a quarter-step grid hits the equalities and the boundaries exactly
        grid = np.random.default_rng(seed).integers(-8, 9, size=(400, 2)) / 4.0
        for H in hyps:
            want = np.array([reference_residuals(H, th) for th in grid])
            eq, ineq = H.residuals(grid)
            assert eq.shape == ineq.shape == (len(grid),)
            assert np.array_equal(np.column_stack([eq, ineq]), want)
            assert all(H.residuals(th) == tuple(w) for th, w in zip(grid[:20], want))
            member = [reference_contains(H, th) for th in grid]
            assert np.array_equal(H.contains(grid), member)

    def test_nan_residual_is_infeasible_in_any_order(self):
        names = ("a", "b")
        ab, ba = (hypothesis_from_spec({"equalities": eqs}, names)
                  for eqs in (["a", "sqrt(b) - 1"], ["sqrt(b) - 1", "a"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ab.residuals([0.0, -1.0]) == ba.residuals([0.0, -1.0]) == (math.inf, 0.0)
            assert not ab.contains([0.0, -1.0]) and not ba.contains([0.0, -1.0])
            ineq = hypothesis_from_spec({"inequalities": ["sqrt(a) - 1"]}, names)
            assert ineq.residuals(np.array([[-1.0, 0.0], [0.0, 0.0]]))[1].tolist() == [math.inf, 0.0]
            # the same point lies in the complement, and in its closure
            assert complement(ineq).contains([-1.0, 0.0])
            assert complement(ineq).residuals([-1.0, 0.0]) == (0.0, 0.0)
            assert complement(ineq).residuals([0.25, 0.0]) == (0.0, 0.5)

    def test_single_point_membership_is_numpy_bool(self):
        H = point_hypothesis([1.0, 2.0])
        for hyp in (H, complement(H), Hypothesis()):
            assert isinstance(hyp.contains([1.0, 2.0]), np.bool_)
        assert not ~H.contains([1.0, 2.0])

    def test_affine_row_reads_only_its_coordinates(self):
        # an infinite coordinate leaves the rows that do not read it at 0
        H = point_hypothesis([1.0, 2.0])
        assert H.residuals([1.0, math.inf]) == (math.inf, 0.0)
        assert coordinate_zero_hypothesis(0, 2).residuals([0.0, math.inf]) == (0.0, 0.0)

    def test_closure_pieces(self):
        names = ("a", "b")
        ineqs = hypothesis_from_spec({"inequalities": ["a^2 + b^2 - 1", "b - 0.5"]}, names)
        assert ineqs.closure() == (ineqs,)
        pieces = complement(ineqs).closure()
        # {a^2 + b^2 >= 1} and {b >= 0.5}
        assert [len(p.inequalities) for p in pieces] == [1, 1]
        assert [p.contains([0.0, 0.75]) for p in pieces] == [False, True]
        assert [p.contains([1.0, 0.0]) for p in pieces] == [True, False]
        mixed = hypothesis_from_spec({"equalities": ["a"], "inequalities": ["b"]}, names)
        (whole,) = complement(mixed).closure()
        assert not (whole.equalities or whole.inequalities or whole.negated_of)
        assert complement(Hypothesis()).closure() == ()

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

    @pytest.mark.parametrize("m, v", [(0.0, 1.0), (1.0, 2.0), (0.05, 1.0 / 200), (-3.0, 7.3)])
    def test_kernel_bits_equal_the_plain_formula(self, m, v):
        # the kernel's in-place form against -((theta - m)**2) / (2v), bit
        # for bit: random batches, one point, overflow to -inf, and NaN
        model = make_gaussian_mean_model(m, v)
        batch = np.random.default_rng(0).normal(m, 3.0 * math.sqrt(v), (64, 1))
        edge = np.array([[1e200], [-1e200], [np.nan], [m], [np.inf]])
        with np.errstate(over="ignore"):
            for theta in (batch, batch.reshape(8, 8, 1), batch[0], edge, edge[0], edge[2]):
                want = -((theta[..., 0] - m) ** 2) / (2.0 * v)
                got = model.log_kernel(theta)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want, equal_nan=True)
            assert np.array_equal(model.log_kernel(edge[:2]), [-np.inf, -np.inf])


class TestPolynomialRegressionFamily:
    def test_order0_intercept_is_mean(self, table2):
        m = make_polynomial_regression_model(table2, 0)
        assert m.mode[0] == pytest.approx(np.mean(table2.column("y")), abs=1e-12)
        assert m.mode[0] == pytest.approx(0.1460, abs=1e-4)

    def test_exact_line_interpolates(self):
        x = np.linspace(0, 1, 12)
        data = Dataset(np.column_stack([x, 2.0 * x - 0.5]), ("x", "y"))
        X, _, _, beta_hat, _ = least_squares(data, 1)
        assert np.max(np.abs(data.column("y") - X @ beta_hat)) < 1e-12
        # the fit leaves an SSR of 0, where the 1/sigma posterior is improper
        with pytest.raises(ValueError, match="improper"):
            make_polynomial_regression_model(data, 1)

    @pytest.mark.parametrize("k", range(9))
    def test_fit_against_exact_arithmetic(self, table2, exact_fit, k):
        # cond(X'X) is 1.1e7 at order 5 and 3.8e11 at order 8; solving the
        # normal equations there is off by 1.8e-10 and 3e-6, the QR fit by
        # 1.7e-13 and 1.5e-11
        want = np.array([float(b) for b in exact_fit(range(k + 1))[0]])
        got = least_squares(table2, k)[3]
        assert np.max(np.abs(got - want) / np.abs(want)) <= 5e-11

    def test_order2_mean_squared_residual(self, table2):
        assert least_squares(table2, 2)[4] / table2.n == pytest.approx(0.01130, abs=1e-4)

    def test_normal_equations(self, table2):
        for k in range(5):
            m = make_polynomial_regression_model(table2, k)
            X = least_squares(table2, k)[0]
            lhs = X.T @ X @ m.mode[:-1]
            rhs = X.T @ table2.column("y")
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

    def test_order8_proposal_factor_has_the_posterior_covariance(self, table2):
        # cond(X'X) is 3.8e11 at order 8, under the 1e12 rule, and an explicit
        # inverse of X'X is not positive definite there; L^-T never forms it
        m = make_polynomial_regression_model(table2, 8)
        C = m.proposal_chol
        cov = (C @ C.T)[:9, :9]
        _, _, R_inv, _, ssr = least_squares(table2, 8)
        ref = ssr / (table2.n - 8) * (R_inv @ R_inv.T)
        assert np.max(np.abs(cov - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(C, np.triu(C))

    @pytest.mark.parametrize("k", range(6))
    def test_log_kernel_against_exact_arithmetic(self, table2, k):
        # -n lam - exp(-2 lam) (ssr + |X (beta - beta_hat)|^2) / 2 from the
        # model's float beta_hat and ssr: the quadratic form in exact
        # rationals, the exponential in mpmath.  cond(X'X) is 1.1e7 at
        # order 5, where a Cholesky factor of a formed X'X in place of the QR
        # factor of X is off by about 1.7e-10.
        mp = pytest.importorskip("mpmath")
        model = make_polynomial_regression_model(table2, k)
        X, _, _, beta_hat, ssr = least_squares(table2, k)
        steps = np.random.default_rng(k).standard_normal((4, k + 2)) @ model.proposal_chol.T
        points = np.vstack([model.mode, model.mode + 2.38 / math.sqrt(k + 2) * steps])
        got = model.log_kernel(points)
        for theta, value in zip(points, got):
            diff = [Fraction(b) - Fraction(b_hat) for b, b_hat in zip(theta[:-1], beta_hat)]
            q = Fraction(ssr) + sum(sum(Fraction(x) * dj for x, dj in zip(row, diff)) ** 2
                                    for row in X)
            with mp.workdps(50):
                lam = mp.mpf(theta[-1])
                exact = -table2.n * lam - mp.exp(-2 * lam) * (mp.mpf(q.numerator) / q.denominator) / 2
                assert abs(value - exact) <= 1e-11
            assert abs(model.log_kernel(theta) - value) <= 1e-12

    @pytest.mark.parametrize("k", range(9))
    def test_kernel_bits_do_not_depend_on_layout(self, table2, k):
        model = make_polynomial_regression_model(table2, k)
        batch = model.draw(np.random.default_rng(k), 500)
        rows = model.log_kernel(np.ascontiguousarray(batch))
        assert np.array_equal(model.log_kernel(np.asfortranarray(batch)), rows)
        # stacked batches keep their shape, each slab as if alone
        slabs = np.ascontiguousarray(batch).reshape(2, 250, k + 2)
        stacked = model.log_kernel(slabs)
        assert stacked.shape == (2, 250)
        assert all(np.array_equal(stacked[i], model.log_kernel(slabs[i])) for i in range(2))
        assert np.ndim(model.log_kernel(batch[0])) == 0

    def test_dropping_the_top_coefficient_gives_the_lower_order_fit(self, table2):
        # the b_k = 0 projection of the order-k fit is the order-(k-1) fit
        for k in range(1, 6):
            a = np.eye(k + 1)[k]
            opt = closed_form_constrained_mode(make_polynomial_regression_model(table2, k), a)
            lower = make_polynomial_regression_model(table2, k - 1).mode[:-1]
            assert np.max(np.abs(opt.theta_star[:k] - lower)) <= 1e-12


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

    def test_constant_gives_one_value_a_row(self):
        f = compile_expression("log(2) + pi", ("a", "b"))
        assert f(np.zeros((3, 2))).shape == (3,) and f(np.zeros((4, 3, 2))).shape == (4, 3)
        assert np.ndim(f(np.zeros(2))) == 0 and f(np.zeros(2)) == math.log(2) + math.pi

    def test_unknown_name(self):
        with pytest.raises(ExpressionError):
            compile_expression("a + z", ("a",))

    def test_rejects_calls_outside_whitelist(self):
        with pytest.raises(ExpressionError):
            compile_expression("__import__('os')", ("a",))

    @pytest.mark.parametrize("text", ["True", "a + True", "False * a", "'1' + a", "None"])
    def test_rejects_non_numeric_constants(self, text):
        # bool is an int subclass: True would otherwise compile to 1
        with pytest.raises(ExpressionError, match="non-numeric constant"):
            compile_expression(text, ("a",))


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
        assert np.array_equal(model.closed_form(), [1.0])
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


def _generic(kernel, coordinates=("a",), bounds=None):
    spec = {"family": "generic", "coordinates": list(coordinates), "log_kernel": kernel}
    if bounds is not None:
        spec["bounds"] = bounds
    return model_from_spec(spec)[0]


class TestLaplaceFit:
    def test_gaussian_fit_is_its_mean_and_covariance(self):
        # -(a - 1.3)^2 - (b + 0.6)^2 - (a - 1.3)(b + 0.6) has precision
        # [[2, 1], [1, 2]]: the factor's C C' is its inverse
        model = _generic("-(a - 1.3)^2 - (b + 0.6)^2 - (a - 1.3)*(b + 0.6)", ("a", "b"))
        center, factor = model.laplace
        assert np.allclose(center, [1.3, -0.6], rtol=0.0, atol=1e-6)
        assert np.allclose(factor @ factor.T, np.linalg.inv([[2.0, 1.0], [1.0, 2.0]]), rtol=0.0, atol=1e-6)
        # the fit is the sampler's, never a start of the optimizer's
        assert model.mode is None

    def test_bounded_fit_without_warnings(self):
        # Beta(8, 14) on [0, 1]: mode 7/20, log-kernel curvature 7/p^2 + 13/(1 - p)^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = _generic("7*log(p) + 13*log(1-p)", ("p",), [[0, 1]])
        center, factor = model.laplace
        p = 7 / 20
        assert center[0] == pytest.approx(p, abs=1e-6)
        assert factor[0, 0] ** 2 == pytest.approx(1.0 / (7 / p**2 + 13 / (1 - p) ** 2), rel=1e-5)

    def test_start_outside_the_support_retries_from_the_crude_search(self):
        # log(a) is -inf at the space's center a = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = _generic("log(a) - a^2")
        assert model.laplace[0][0] == pytest.approx(math.sqrt(0.5), abs=1e-6)

    def test_two_modes_fit_one_after_the_retry(self):
        # the center a = 0 is a local minimum; the crude search climbs to a
        # = 3.  The build's gate refuses this fit, so the fit is read alone
        model = _generic("log(exp(-(a-3)^2/2) + exp(-(a+3)^2/2))")
        assert model.laplace is None
        assert _laplace_fit(model)[0][0] == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("kernel, bounds", [("0", [[0, 1]]), ("a", [[0, 1]]), ("a^2", None)])
    def test_no_mode_no_fit(self, kernel, bounds):
        # a flat kernel, a mode on the boundary, a minimum: no negative definite Hessian
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _generic(kernel, bounds=bounds).laplace is None

    def test_builtin_families_have_no_fit(self, table2):
        assert make_gaussian_mean_model(0.0, 1.0).laplace is None
        assert make_polynomial_regression_model(table2, 2).laplace is None
