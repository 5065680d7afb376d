import dataclasses
import math
import time
import warnings

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
    make_polynomial_regression_model,
    maximize_surprise,
    model_from_spec,
    point_hypothesis,
    sample_posterior,
)
from fbst import optimizer
from fbst.model import exact_mode, least_squares, unbounded_space
from fbst.optimizer import SLSQP_OPTIONS, STEP, WALL, UnboundedSurpriseError, _slsqp

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

    def test_regression_unconstrained_sigma(self, reg2_model, table2):
        opt = maximize_surprise(reg2_model, Hypothesis())
        _, _, _, beta_hat, ssr = least_squares(table2, 2)
        sigma2 = ssr / (table2.n + 1)
        assert np.allclose(opt.theta_star[:3], beta_hat)
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


class TestExactMode:
    # the closed form against exact rationals, relative to the largest
    # coordinate (970 at order 8); the QR closed form is off by 1.4e-12 at
    # order 8, the explicit (X'X)^-1 it replaced by 7.9e-11 at order 6 and
    # 5.1e-8 at order 8.  The three ways to reach it give the same bits.
    @pytest.mark.parametrize("k", range(9))
    def test_top_coefficient_zero_equals_reference(self, table2, exact_zero_mode, k):
        model = make_polynomial_regression_model(table2, k)
        A = np.eye(k + 2)[[k]]
        got = exact_mode(model, A, np.zeros(1))
        want = exact_zero_mode(k, [k])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        H = coordinate_zero_hypothesis(k, k + 2)
        assert np.array_equal(maximize_surprise(model, H).theta_star, got)
        assert np.array_equal(closed_form_constrained_mode(model, A[:, :-1]).theta_star, got)

    def test_two_rows_equal_reference(self, table2, exact_zero_mode):
        model = make_polynomial_regression_model(table2, 3)
        A = np.eye(5)[[2, 3]]
        got = exact_mode(model, A, np.zeros(2))
        want = exact_zero_mode(3, [2, 3])
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
        assert np.array_equal(closed_form_constrained_mode(model, A[:, :-1]).theta_star, got)

    def test_only_built_in_families_answer(self, gauss_model, reg2_model):
        assert np.array_equal(exact_mode(gauss_model), [1.0])
        assert np.array_equal(exact_mode(reg2_model), reg2_model.mode)
        assert exact_mode(gauss_model, np.eye(1), np.zeros(1)) is None
        # a constraint on log_sigma has no closed form
        assert exact_mode(reg2_model, np.eye(4)[[3]], np.zeros(1)) is None

    @pytest.mark.parametrize("k", range(6))
    def test_closed_form_survives_a_replaced_kernel(self, table2, k):
        # how a tracer or a test wraps a model: a new log_kernel, the rest kept
        model = make_polynomial_regression_model(table2, k)
        wrapped = dataclasses.replace(model, log_kernel=lambda th: model.log_kernel(th))
        H = coordinate_zero_hypothesis(k, k + 2)
        got, want = maximize_surprise(wrapped, H), maximize_surprise(model, H)
        assert got.method == want.method == "closed-form"
        assert np.array_equal(got.theta_star, want.theta_star)

    def test_gaussian_closed_form_survives_a_replaced_kernel(self, gauss_model):
        wrapped = dataclasses.replace(gauss_model, log_kernel=lambda th: gauss_model.log_kernel(th))
        opt = maximize_surprise(wrapped, Hypothesis())
        assert opt.method == "closed-form"
        assert np.array_equal(opt.theta_star, gauss_model.mode)

    # a generic model's mode is a start, not an answer: the surprise peaks at u = 2
    GENERIC = StatisticalModel(unbounded_space(("u",)),
                               lambda th: -((np.asarray(th)[..., 0] - 2.0) ** 2) / 2.0,
                               mode=np.array([0.0]))

    @pytest.mark.parametrize("H", [Hypothesis(),
                                   hypothesis_from_spec({"inequalities": ["u - 5"]}, ("u",))],
                             ids=["theta", "u<=5"])
    def test_generic_mode_is_a_start_not_an_answer(self, H):
        assert exact_mode(self.GENERIC) is None
        opt = maximize_surprise(self.GENERIC, H)
        assert opt.method == "multistart"
        assert opt.theta_star[0] == pytest.approx(2.0, abs=1e-6)


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


class TestBoundaryFlag:
    BOUNDS = (-np.inf, -3.0, -1e-7, 0.0, 1e-7, 2.5, np.inf)
    # on, near and far from a bound, relative to max(1, |b|)
    OFFSETS = (0.0, 5e-9, 1e-8, 2e-8, 1e-6, 9e-6, 2e-5, 1.0)
    FIXED = (0.0, 1e-9, -1e-9, 1e-300, 5.0, -5.0, np.inf, -np.inf, np.nan)

    def _points(self, b):
        near = [] if np.isinf(b) else [b + s * o * max(1.0, abs(b)) for s in (1.0, -1.0) for o in self.OFFSETS]
        return near + list(self.FIXED)

    @pytest.mark.parametrize("b", BOUNDS)
    def test_same_as_isclose(self, b):
        # np.isclose's default tolerances: |t - b| <= 1e-8 + 1e-5 |b|
        flags = [optimizer._on_bound(np.array([t, -7.0]), np.array([b, 4.0])) for t in self._points(b)]
        assert flags == [bool(np.isclose(t, b)) for t in self._points(b)]
        assert True in flags and False in flags

    def test_optimum_flag_same_as_isclose(self):
        sp = ParameterSpace(("u", "v"), np.array([-np.inf, -1e-7]), np.array([2.5, np.inf]))
        model = StatisticalModel(sp, lambda th: np.zeros(np.shape(th)[:-1]))
        seen = set()
        for u in self._points(2.5):
            for v in self._points(-1e-7)[::3]:
                theta = np.array([u, v])
                got = optimizer._finish(model, Hypothesis(), theta, "multistart").boundary_flag
                want = bool(np.any(np.isclose(theta, sp.lower) | np.isclose(theta, sp.upper)))
                assert got == want
                seen.add(got)
        assert seen == {False, True}


# the reference vanishes at a = 0 while the kernel does not: s = +inf there
DIVERGENT_SPEC = {"family": "generic", "coordinates": ["a", "b"], "log_kernel": "-(a - 0.5)^2 - b^2",
                  "log_reference": "log(a)", "bounds": [[0, 1], [None, None]]}


class TestUnboundedSurprise:
    def test_feasible_ray(self):
        model, H = model_from_spec({"family": "generic", "coordinates": ["a", "b"],
                                    "log_kernel": "a - b^2", "hypothesis": {"equalities": ["b"]}})
        with pytest.raises(UnboundedSurpriseError, match="feasible ray"):
            maximize_surprise(model, H, None, OptimizerConfig(restarts=0))

    @pytest.fixture(scope="class")
    def divergent_sample(self):
        model = model_from_spec(DIVERGENT_SPEC)[0]
        return model, sample_posterior(model, SamplerConfig(seed=0, chains=2, draws=1000, burnin=200))

    @pytest.mark.parametrize("hypothesis", [{"equalities": ["a"]}, {"inequalities": ["a - 0.1"]}])
    def test_infinite_surprise_is_the_supremum(self, divergent_sample, hypothesis):
        # s = +inf is SLSQP's best value (-WALL), not a wall to walk away from
        model, sample = divergent_sample
        H = hypothesis_from_spec(hypothesis, model.space.names)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnboundedSurpriseError, match="diverges on the hypothesis set"):
                maximize_surprise(model, H, sample)

    def test_finite_supremum_away_from_the_pole(self, divergent_sample):
        model, sample = divergent_sample
        H = hypothesis_from_spec({"inequalities": ["0.3 - a"]}, model.space.names)
        opt = maximize_surprise(model, H, sample)
        assert opt.theta_star == pytest.approx([0.3, 0.0], abs=1e-6)
        assert opt.log_s_star == pytest.approx(-0.04 - math.log(0.3), abs=1e-9)

    def test_losses_map_infinities_to_the_walls(self, divergent_sample):
        model, _ = divergent_sample
        rows = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 0.0]])  # s = +inf, e^-0.25, outside
        assert np.array_equal(optimizer._losses(model, rows), [-WALL, 0.25, WALL])
        assert [optimizer._losses(model, row) for row in rows] == [-WALL, 0.25, WALL]


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


def _slack(theta):
    return np.abs(np.asarray(theta)[..., 0]) - 0.5


def _same_optimum(a, b):
    assert np.array_equal(a.theta_star, b.theta_star)
    assert (a.log_s_star, a.eq_residual, a.ineq_residual, a.method, a.boundary_flag) == \
           (b.log_s_star, b.eq_residual, b.ineq_residual, b.method, b.boundary_flag)


class TestHypothesisAnalysis:
    """What depends on H alone is computed once and kept on H."""

    def test_reused_gaussian_hypotheses_match_fresh_copies(self):
        sharp = point_hypothesis([0.0])
        slack = Hypothesis(inequalities=(_slack,))
        for i, mean in enumerate(np.linspace(-1.0, 1.0, 8)):
            model = make_gaussian_mean_model(mean, 0.05)
            sample = sample_posterior(model, SamplerConfig(seed=i, chains=2, draws=1000, burnin=100))
            fresh = (point_hypothesis([0.0]), Hypothesis(inequalities=(_slack,)))
            for reused, new in zip((sharp, slack), fresh):
                for H, G in ((reused, new), (complement(reused), complement(new))):
                    _same_optimum(maximize_surprise(model, H, sample, C4_CFG),
                                  maximize_surprise(model, G, sample, C4_CFG))

    def test_reused_coordinate_zero_matches_fresh_copies(self, reg_fits):
        for k, (model, sample) in reg_fits.items():
            H = coordinate_zero_hypothesis(k, k + 2)
            for _ in range(2):
                _same_optimum(maximize_surprise(model, H, sample, C4_CFG),
                              maximize_surprise(model, coordinate_zero_hypothesis(k, k + 2),
                                                sample, C4_CFG))

    def test_inconsistent_pair_raises_on_every_call(self, gauss_model, gauss_sample):
        H = hypothesis_from_spec({"equalities": ["theta", "theta - 1"]}, ("theta",))
        for _ in range(3):
            with pytest.raises(InfeasibleHypothesisError, match="inconsistent"):
                maximize_surprise(gauss_model, H, gauss_sample)

    def test_one_least_squares_check_per_hypothesis(self, monkeypatch, reg_fits):
        model, sample = reg_fits[3]
        H = hypothesis_from_spec({"equalities": ["b2", "b3"]}, model.space.names)
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: calls.append(a) or lstsq(*a, **kw))
        opts = [maximize_surprise(model, H, sample, C4_CFG) for _ in range(8)]
        assert len(calls) == 1
        assert all(np.array_equal(o.theta_star, opts[0].theta_star) for o in opts)

    def test_complement_closure_pieces_kept(self, gauss_model, gauss_sample):
        inner = hypothesis_from_spec({"inequalities": ["theta - 2", "-theta - 2"]}, ("theta",))
        H = complement(inner)
        assert complement(inner) is H
        pieces = H.closure()
        assert len(pieces) == 2
        H.residuals(np.array([0.0]))
        maximize_surprise(gauss_model, H, gauss_sample, C4_CFG)
        assert all(a is b for a, b in zip(H.closure(), pieces))


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

    @pytest.fixture
    def sqrt_case(self):
        # sqrt(a) is NaN at every draw and at the mode a = -2; sup over H is
        # log s = -2, at a = 0
        model, _ = model_from_spec({"family": "generic", "coordinates": ["a", "b"],
                                    "log_kernel": "-0.5*((a+2)^2 + b^2)"})
        H = hypothesis_from_spec({"inequalities": ["sqrt(a) - 1"]}, ("a", "b"))
        sample = sample_posterior(model, SamplerConfig(seed=0, chains=2, draws=2000, burnin=500))
        return model, H, sample

    def test_nan_constraint_never_yields_a_point_outside(self, sqrt_case):
        # np.clip passes the NaN value of sqrt(a) to SLSQP, which then walks
        # to the unconstrained mode (-2, 0) even from (0, 0), a point of H;
        # its residuals there are (0, inf), so the search fails rather than
        # return a point outside H
        model, H, sample = sqrt_case
        with pytest.raises(InfeasibleHypothesisError):
            maximize_surprise(model, H, sample)

    def test_complement_counts_nan_constraint_as_inside(self, sqrt_case):
        # the complement holds the global mode, where sqrt(a) is NaN
        model, H, sample = sqrt_case
        C = complement(H)
        assert C.contains([-2.0, 0.0]) and C.residuals([-2.0, 0.0]) == (0.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = maximize_surprise(model, C, sample)
        assert C.contains(opt.theta_star)
        assert opt.log_s_star == pytest.approx(0.0, abs=1e-6)
        assert (opt.eq_residual, opt.ineq_residual) == (0.0, 0.0)

    def test_complement_of_sharp_set_through_mode(self, gauss_model):
        # the closure of the complement is the whole line: s* is the mode's
        opt = maximize_surprise(gauss_model, complement(point_hypothesis([1.0])))
        assert opt.log_s_star == pytest.approx(float(log_surprise(gauss_model, [1.0])), abs=1e-9)


def _surprise_at(model, theta):
    # the optimizer's former scalar evaluator, kept so that the reference
    # below makes its own bounds test and WALL mapping, not `_losses`'
    theta = np.asarray(theta, dtype=float)
    if not model.space.contains(theta):
        return -math.inf
    return float(log_surprise(model, theta))


def _reference_slsqp(model, sub, theta0, bounds):
    """The previous `_slsqp`: SLSQP with scipy's own difference quotients,
    one objective or constraint call per point."""
    from scipy.optimize import minimize

    def objective(theta):
        val = _surprise_at(model, theta)
        return -val if np.isfinite(val) else WALL

    cons = [{"type": "eq", "fun": h} for h in sub.equalities]
    cons += [{"type": "ineq", "fun": lambda th, g=g: -np.clip(g(th), -WALL, WALL)}
             for g in sub.inequalities]
    with np.errstate(all="ignore"):
        res = minimize(objective, theta0, method="SLSQP", bounds=bounds,
                       constraints=cons, options=SLSQP_OPTIONS)
    return res.x


def _gaussian_2d(mean, var=0.09, bounds=None):
    spec = {"family": "generic", "coordinates": ["a", "b"],
            "log_kernel": f"-((a - {mean[0]})^2 + (b - {mean[1]})^2) / (2 * {var})"}
    if bounds is not None:
        spec["bounds"] = bounds
    return model_from_spec(spec)[0]


class TestBatchedDifferences:
    """SLSQP's gradients from one batched call per point against scipy's own
    2-point differences: the same iterates, so the same optimum, bit for bit,
    wherever the kernel gives a point the same value in every batch."""

    @staticmethod
    def both(monkeypatch, *args):
        got = maximize_surprise(*args)
        monkeypatch.setattr(optimizer, "_slsqp", _reference_slsqp)
        want = maximize_surprise(*args)
        monkeypatch.undo()
        assert got.method == want.method == "multistart"
        return got, want

    @pytest.mark.parametrize("name, spec", [
        ("circle", {"equalities": ["a^2 + b^2 - 1.44"]}),
        ("half-plane", {"inequalities": ["a + b - 0.2"]}),
    ])
    def test_same_optimum_bit_for_bit(self, monkeypatch, name, spec):
        model = _gaussian_2d([1.3, -0.6] if name == "circle" else [0.6, 0.1])
        H = hypothesis_from_spec(spec, ("a", "b"))
        sample = sample_posterior(model, SamplerConfig(seed=2, chains=4, draws=1_000, burnin=200))
        for cfg in (OptimizerConfig(restarts=0), SMALL_CFG):
            got, want = self.both(monkeypatch, model, H, sample, cfg)
            assert np.array_equal(got.theta_star, want.theta_star)
            assert got.log_s_star == want.log_s_star

    def test_pieces_of_a_complement(self, monkeypatch):
        # one SLSQP run per piece {g_i >= 0} of the closure
        model, _ = model_from_spec({"family": "generic", "coordinates": ["a", "b"],
                                    "log_kernel": "-(a - 0.2)^2 / 0.1 - (b - 0.1)^2 / 1.0"})
        inner = hypothesis_from_spec({"inequalities": ["a^2 + b^2 - 1", "b - 0.6"]}, ("a", "b"))
        H = complement(inner)
        assert len(H.closure()) == 2
        got, want = self.both(monkeypatch, model, H, None, OptimizerConfig(restarts=0))
        assert np.array_equal(got.theta_star, want.theta_star)
        for piece in H.closure():
            for theta0 in ([0.0, 0.0], [1.5, -0.5]):
                assert np.array_equal(_slsqp(model, piece, np.array(theta0), None),
                                      _reference_slsqp(model, piece, np.array(theta0), None))

    def test_quotients_equal_scipys(self):
        # the d + 1 point call against scipy's approx_derivative, one point
        # per call: steps at |x| >= 2^27, where x + sqrt(eps) rounds to x,
        # and steps flipped or cut at the bounds [0, 1] of the first axis
        # the function scipy's SLSQP calls for its own differences
        from scipy.optimize._numdiff import approx_derivative

        lower, upper = np.array([0.0, -np.inf, -np.inf]), np.array([1.0, np.inf, np.inf])

        def fun(th):
            th = np.asarray(th)
            return np.exp(th[..., 0]) * np.sin(th[..., 1]) + th[..., 2] ** 3 / (1 + th[..., 0])

        jac = optimizer._forward_differences(fun, lower, upper)
        rng = np.random.default_rng(0)
        points = [[1.0, 0.0, 0.0], [0.0, -3e9, 2e8], [1.0 - STEP / 3, 0.5, -0.5],
                  [STEP / 3, 1.0, 1.0], [0.5, 1e-300, -1e-300]]
        points += [[rng.random(), *rng.normal(scale=10.0 ** rng.integers(-3, 10), size=2)]
                   for _ in range(50)]
        for x in map(np.array, points):
            want = approx_derivative(fun, x, method="2-point", abs_step=STEP, bounds=(lower, upper))
            assert np.array_equal(jac(x), want)
        # x is clipped into the bounds first, as scipy's constraint jacobian does
        x = np.array([1.0 + 1e-6, 0.5, 0.5])
        assert np.array_equal(jac(x), approx_derivative(fun, np.clip(x, lower, upper), method="2-point",
                                                        abs_step=STEP, bounds=(lower, upper)))
        # a box narrower than one step: the step is cut to the farther bound
        narrow = (np.array([0.0, 0.0, -np.inf]), np.array([1e-8, 1.0, np.inf]))
        cut = optimizer._forward_differences(fun, *narrow)
        for x in ([0.7e-8, 0.5, 0.0], [0.2e-8, 0.5, 0.0]):
            x = np.array(x)
            want = approx_derivative(fun, x, method="2-point", abs_step=STEP, bounds=narrow)
            assert np.array_equal(cut(x), want)
        # no finite bound: scipy returns the steps unchanged
        free = optimizer._forward_differences(fun, np.full(3, -np.inf), np.full(3, np.inf))
        x = np.array([2.0, -1e9, 0.3])
        assert np.array_equal(free(x), approx_derivative(fun, x, method="2-point", abs_step=STEP))

    def test_bounded_start_within_one_step_of_the_bound(self):
        # a + h leaves [0, 1] at the start, so the step is flipped; the mode
        # (1.5, 0.3) lies outside the box, so the iterates reach the bound
        from scipy.optimize import Bounds

        model = _gaussian_2d([1.5, 0.3], var=0.1, bounds=[[0, 1], [None, None]])
        bounds = Bounds(model.space.lower, model.space.upper)
        assert (1.0 - STEP / 2) + STEP > 1.0
        for spec in ({"inequalities": ["a + b - 1.1"]}, {"equalities": ["a^2 + b^2 - 0.8"]}):
            H = hypothesis_from_spec(spec, ("a", "b"))
            for theta0 in ([1.0 - STEP / 2, 0.3], [1.0, -0.2], [0.0, 0.5]):
                theta0 = np.array(theta0)
                got = _slsqp(model, H, theta0, bounds)
                assert np.array_equal(got, _reference_slsqp(model, H, theta0, bounds))
                assert model.space.contains(got)

    def test_regression_within_rounding(self, monkeypatch, reg2_model, reg2_sample):
        # the regression kernel rounds a one-row and a many-row batch
        # differently in the last bits, so SLSQP may stop a little elsewhere
        # along the flat direction of its quadratic
        for spec in ({"equalities": ["b2 * b1 - 0.01"]}, {"inequalities": ["b2 - 0.5 * b1 - 0.1"]}):
            H = hypothesis_from_spec(spec, reg2_model.space.names)
            got, want = self.both(monkeypatch, reg2_model, H, reg2_sample, SMALL_CFG)
            assert abs(got.log_s_star - want.log_s_star) <= 1e-10
            assert np.max(np.abs(got.theta_star - want.theta_star)) <= 1e-7
