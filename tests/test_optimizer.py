import math
import time

import numpy as np
import pytest

from fbst import (
    Hypothesis,
    InfeasibleHypothesisError,
    OptimizerConfig,
    ParameterSpace,
    SamplerConfig,
    StatisticalModel,
    closed_form_constrained_mode,
    complement,
    coordinate_zero_hypothesis,
    hypothesis_from_spec,
    log_surprise,
    make_gaussian_mean_model,
    maximize_surprise,
    model_from_spec,
    point_hypothesis,
    sample_posterior,
)

SMALL_CFG = OptimizerConfig(restarts=8, outer_iterations=6)
C4_CFG = OptimizerConfig(restarts=4, outer_iterations=4)


class TestClosedForm:
    def test_unconstrained_gaussian_mode(self, gauss_model):
        opt = maximize_surprise(gauss_model, Hypothesis())
        assert opt.method == "closed-form"
        assert opt.theta_star[0] == pytest.approx(1.0)
        assert opt.log_s_star == pytest.approx(log_surprise(gauss_model, [1.0]))

    def test_gaussian_pinned_point(self, gauss_model):
        opt = maximize_surprise(gauss_model, point_hypothesis([0.0]))
        assert opt.method == "closed-form"
        assert opt.theta_star[0] == 0.0
        assert opt.eq_residual <= 1e-12

    def test_complement_of_sharp_contains_mode(self, gauss_model):
        H = complement(point_hypothesis([0.0]))
        opt = maximize_surprise(gauss_model, H)
        assert opt.method == "closed-form"
        assert opt.theta_star[0] == pytest.approx(1.0)

    def test_regression_unconstrained_sigma(self, reg2_model):
        opt = maximize_surprise(reg2_model, Hypothesis())
        ex = reg2_model.extra
        sigma2 = (ex["n"] - ex["k"]) * ex["s2"] / (ex["n"] + 1)
        assert np.allclose(opt.theta_star[:3], ex["beta_hat"])
        assert opt.theta_star[3] == pytest.approx(0.5 * math.log(sigma2))

    def test_constrained_sigma_against_grid_search(self, reg2_model):
        # 1-D oracle: profile the surprise along the constrained beta
        opt = closed_form_constrained_mode(reg2_model, np.array([0.0, 0.0, 1.0]))
        beta_tilde = opt.theta_star[:3]
        lam_star = opt.theta_star[3]
        lams = np.linspace(lam_star - 0.5, lam_star + 0.5, 20_001)
        thetas = np.column_stack([np.tile(beta_tilde, (lams.size, 1)), lams])
        vals = log_surprise(reg2_model, thetas)
        assert np.max(vals) <= opt.log_s_star + 1e-8
        assert abs(lams[np.argmax(vals)] - lam_star) < 1e-4

    def test_constrained_beta_is_best_on_constraint(self, reg2_model):
        a = np.array([0.0, 1.0, -1.0])
        opt = closed_form_constrained_mode(reg2_model, a)
        assert abs(a @ opt.theta_star[:3]) < 1e-12
        rng = np.random.default_rng(0)
        for _ in range(50):
            beta = opt.theta_star[:3] + rng.normal(scale=0.05, size=3)
            beta = beta - a * (a @ beta) / (a @ a)  # stay on the constraint
            theta = np.concatenate([beta, [opt.theta_star[3]]])
            assert log_surprise(reg2_model, theta) <= opt.log_s_star + 1e-10

    def test_top_coefficient_zero_uses_closed_form(self, reg2_model, reg2_sample):
        H = coordinate_zero_hypothesis(2, reg2_model.space.dimension)
        opt = maximize_surprise(reg2_model, H, reg2_sample)
        assert opt.method == "closed-form"
        assert abs(opt.theta_star[2]) < 1e-12


class TestGenericPath:
    def test_matches_closed_form_without_linear_metadata(self, reg2_model, reg2_sample):
        # same constraint, but expressed as an opaque callable -> generic path
        H = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 2],))
        opt = maximize_surprise(reg2_model, H, reg2_sample, SMALL_CFG)
        ref = closed_form_constrained_mode(reg2_model, np.array([0.0, 0.0, 1.0]))
        assert opt.method == "multistart"
        assert opt.log_s_star == pytest.approx(ref.log_s_star, abs=1e-6)
        assert opt.eq_residual <= 1e-8

    def test_slack_hypothesis_reaches_mode(self, gauss_model, gauss_sample):
        H = Hypothesis(inequalities=(lambda th: np.abs(np.asarray(th)[..., 0]) - 5.0,))
        opt = maximize_surprise(gauss_model, H, gauss_sample, SMALL_CFG)
        assert opt.method == "closed-form"  # the set contains the exact mode
        assert opt.theta_star[0] == pytest.approx(1.0, abs=1e-4)

    def test_binding_inequality(self, gauss_model, gauss_sample):
        # mode at 1 excluded; optimum sits on the boundary theta = 0.5
        H = Hypothesis(inequalities=(lambda th: np.asarray(th)[..., 0] - 0.5,))
        opt = maximize_surprise(gauss_model, H, gauss_sample, SMALL_CFG)
        assert opt.theta_star[0] == pytest.approx(0.5, abs=1e-4)

    def test_nested_hypotheses_monotone(self, reg2_model, reg2_sample):
        # a larger feasible set can only raise the supremum
        small = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 2],
                                       lambda th: np.asarray(th)[..., 1]))
        big = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 2],))
        lo = maximize_surprise(reg2_model, small, reg2_sample, SMALL_CFG)
        hi = maximize_surprise(reg2_model, big, reg2_sample, SMALL_CFG)
        assert hi.log_s_star >= lo.log_s_star - 1e-9

    def test_restart_stability(self, reg2_model, reg2_sample):
        H = Hypothesis(equalities=(lambda th: np.asarray(th)[..., 2],))
        a = maximize_surprise(reg2_model, H, reg2_sample, SMALL_CFG)
        b = maximize_surprise(
            reg2_model, H, reg2_sample, OptimizerConfig(restarts=16, outer_iterations=6)
        )
        assert a.log_s_star == pytest.approx(b.log_s_star, abs=1e-6)

    def test_infeasible_hypothesis(self, gauss_model, gauss_sample):
        H = Hypothesis(
            equalities=(
                lambda th: np.asarray(th)[..., 0],
                lambda th: np.asarray(th)[..., 0] - 1.0,
            )
        )
        with pytest.raises(InfeasibleHypothesisError):
            maximize_surprise(gauss_model, H, gauss_sample, SMALL_CFG)

    def test_closed_form_flags_infeasible_pin(self):
        sp = ParameterSpace(("u",), np.array([0.0]), np.array([1.0]))
        model = StatisticalModel(sp, lambda th: np.zeros(np.shape(th)[:-1]))
        H = hypothesis_from_spec({"equalities": ["u - 2"]}, ("u",))
        with pytest.raises(InfeasibleHypothesisError):
            maximize_surprise(model, H)


class TestValidation:
    def test_closed_form_wrong_family(self, gauss_model):
        with pytest.raises(ValueError):
            closed_form_constrained_mode(gauss_model, np.array([1.0]))

    def test_degenerate_direction(self, reg2_model):
        with pytest.raises(ValueError):
            closed_form_constrained_mode(reg2_model, np.zeros(3))


def _opaque(A, b, k):
    """A beta = b as callables without linear metadata."""
    return tuple(lambda th, a=a, c=c: np.asarray(th)[..., : k + 1] @ a - c for a, c in zip(A, b))


class TestAffineSystems:
    @pytest.mark.parametrize("slot", ["gaussian", "order-3"])
    def test_inconsistent_pair_raises_at_once(self, slot, gauss_model, gauss_sample, reg_fits):
        if slot == "gaussian":
            model, sample, pair = gauss_model, gauss_sample, ["theta", "theta - 1"]
        else:
            (model, sample), pair = reg_fits[3], ["b2 + b3", "b2 + b3 - 1"]
        H = hypothesis_from_spec({"equalities": pair}, model.space.names)
        started = time.perf_counter()
        with pytest.raises(InfeasibleHypothesisError):
            maximize_surprise(model, H, sample)
        assert time.perf_counter() - started < 0.1

    def test_two_rows_at_c4_config(self, reg_fits):
        # b2 = b3 = 0 on the order-3 model: exact with linear metadata, and
        # SLSQP reaches the same optimum from opaque callables
        model, sample = reg_fits[3]
        A = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        ref = closed_form_constrained_mode(model, A)
        assert ref.log_s_star == pytest.approx(31.38282, abs=1e-5)
        linear = hypothesis_from_spec({"equalities": ["b2", "b3"]}, model.space.names)
        exact = maximize_surprise(model, linear, sample, C4_CFG)
        assert exact.method == "closed-form"
        assert abs(exact.log_s_star - ref.log_s_star) <= 1e-9
        general = maximize_surprise(model, Hypothesis(equalities=_opaque(A, np.zeros(2), 3)),
                                    sample, C4_CFG)
        assert general.method == "multistart"
        assert abs(general.log_s_star - ref.log_s_star) <= 1e-6
        assert general.eq_residual <= 1e-8

    def test_redundant_rows_match_reduced_system(self, gauss_model, reg_fits):
        model, sample = reg_fits[3]
        names = model.space.names
        full = hypothesis_from_spec({"equalities": ["b2", "b3", "b2 - b3", "2*b3"]}, names)
        reduced = hypothesis_from_spec({"equalities": ["b2", "b3"]}, names)
        a, b = (maximize_surprise(model, H, sample, C4_CFG) for H in (full, reduced))
        assert a.method == b.method == "closed-form"
        assert np.array_equal(a.theta_star, b.theta_star)
        assert a.eq_residual <= 1e-12
        # a pinned point, written twice
        pin = hypothesis_from_spec({"equalities": ["theta - 0.5", "2*theta - 1"]}, ("theta",))
        opt = maximize_surprise(gauss_model, pin)
        assert opt.method == "closed-form" and opt.theta_star[0] == 0.5
        # SLSQP, where an inequality rules the closed forms out
        plane, _ = model_from_spec({"family": "generic", "coordinates": ["a", "b"],
                                    "log_kernel": "-((a - 1)^2 + (b + 0.5)^2) / 0.5"})
        opts = [maximize_surprise(plane, hypothesis_from_spec(
                    {"equalities": eqs, "inequalities": ["a - 0.2"]}, ("a", "b")))
                for eqs in (["a - b", "2*a - 2*b", "b - a"], ["a - b"])]
        assert opts[0].method == opts[1].method == "multistart"
        assert opts[0].log_s_star == pytest.approx(opts[1].log_s_star, abs=1e-9)
        assert np.allclose(opts[0].theta_star, opts[1].theta_star, atol=1e-6)


class TestGeneralPathCases:
    VAR = 0.16

    def test_bimodal_circle_finds_higher_mode(self):
        # two equal surprise modes at (+-1, 0); the circle passes 0.05 from
        # the left one and 0.55 from the right one
        def kernel(th):
            th = np.asarray(th, dtype=float)
            a, b = th[..., 0], th[..., 1]
            v = self.VAR
            return np.logaddexp(-((a - 1) ** 2 + b ** 2) / (2 * v),
                                -((a + 1) ** 2 + b ** 2) / (2 * v))

        center, radius = -0.3, 0.75
        model = StatisticalModel(ParameterSpace(("a", "b"), np.full(2, -np.inf), np.full(2, np.inf)),
                                 kernel)
        H = Hypothesis(equalities=(
            lambda th: (np.asarray(th)[..., 0] - center) ** 2 + np.asarray(th)[..., 1] ** 2
            - radius ** 2,))
        phi = np.linspace(-np.pi, np.pi, 200_001)
        grid = log_surprise(model, np.column_stack([center + radius * np.cos(phi),
                                                    radius * np.sin(phi)]))
        right = np.abs(phi) < np.pi / 2
        assert grid.max() - grid[right].max() > 0.9  # the right-hand mode is lower
        # from the space's center alone, SLSQP stops short of the higher mode
        lone = maximize_surprise(model, H, None, OptimizerConfig(restarts=0))
        assert lone.log_s_star < grid.max() - 0.5
        sample = sample_posterior(model, SamplerConfig(seed=3, chains=4, draws=5_000, burnin=1_000))
        opt = maximize_surprise(model, H, sample, SMALL_CFG)
        assert opt.log_s_star == pytest.approx(grid.max(), abs=1e-6)
        assert opt.theta_star[0] < 0

    def test_complement_of_inequalities_against_grid(self):
        # the mode (0.2, 0.1) lies inside the inner set, so the supremum sits
        # on the boundary of one of its two pieces
        model, _ = model_from_spec({"family": "generic", "coordinates": ["a", "b"],
                                    "log_kernel": "-(a - 0.2)^2 / 0.1 - (b - 0.1)^2 / 1.0"})
        inner = hypothesis_from_spec({"inequalities": ["a^2 + b^2 - 1", "b - 0.6"]}, ("a", "b"))
        H = complement(inner)
        opt = maximize_surprise(model, H, None, OptimizerConfig(restarts=0))
        axis = np.linspace(-2.0, 2.0, 1_201)
        pts = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        vals = log_surprise(model, pts)[H.contains(pts)]
        # every grid point lies in H; the grid is 1/300 apart
        assert opt.log_s_star >= vals.max() - 1e-9
        assert opt.log_s_star - vals.max() < 1e-2
        assert opt.method == "multistart"
        assert opt.ineq_residual <= 1e-8
        # the residuals are the complement's own, measured on its closure
        assert (opt.eq_residual, opt.ineq_residual) == H.residuals(opt.theta_star)
        assert opt.theta_star == pytest.approx([0.2, 0.6], abs=1e-6)
        assert opt.eq_residual == 0.0

    def test_complement_of_sharp_set_through_mode(self, gauss_model):
        # the closure of the complement is the whole line: s* is the mode's
        opt = maximize_surprise(gauss_model, complement(point_hypothesis([1.0])))
        assert opt.log_s_star == pytest.approx(float(log_surprise(gauss_model, [1.0])), abs=1e-9)
