import math
import tracemalloc

import numpy as np
import pytest

from fbst import (
    CompositeStructure,
    SamplerConfig,
    TruthLadder,
    conjunctive_evalue,
    disjunctive_evalue,
    eval_truth,
    make_gaussian_mean_model,
    mellin_convolve,
    point_hypothesis,
    sample_posterior,
)
from fbst.composition import MissingComponentError, analyze_network, convolve_all
from fbst.truth import estimate_truth_ladder, sup_distance
from test_truth import (
    _reference_condense,
    _reference_ladder_from_atoms,
    assert_same_ladder,
    iid_chi2_sample,
)


def two_point(a, b):
    return TruthLadder(np.log([a, b]), np.array([0.5, 1.0]))


def unit_atom():
    return TruthLadder(np.array([0.0]), np.array([1.0]))


def _reference_mellin(w1, w2, n_max=512, pair_budget=2 ** 20):
    cap = max(2, int(math.isqrt(pair_budget)))
    w1c = _reference_condense(w1, cap)
    w2c = _reference_condense(w2, cap)
    m1, m2 = w1c.atom_masses(), w2c.atom_masses()
    sums = (w1c.log_v[:, None] + w2c.log_v[None, :]).ravel()
    masses = (m1[:, None] * m2[None, :]).ravel()
    return _reference_condense(_reference_ladder_from_atoms(sums, masses, "convolved"), n_max)


def _reference_convolve_all(ladders, n_max=512):
    items = list(ladders)
    while len(items) > 1:
        nxt = [_reference_mellin(items[i], items[i + 1], n_max) for i in range(0, len(items) - 1, 2)]
        items = nxt + items[len(items) - len(items) % 2:]
    return items[0]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def chi2_ladders():
    """The exact-calculus benchmark's shape: 512-point ladders of 20 000 iid
    draws of a d-dimensional unit gaussian, d = 1..4."""
    return [estimate_truth_ladder(iid_chi2_sample(d, seed=d)) for d in (1, 2, 3, 4)]


def integer_ladder(n, seed):
    """n integer supports with random masses: pair sums tie heavily."""
    masses = np.random.default_rng(seed).random(n)
    w = np.cumsum(masses) / masses.sum()
    w[-1] = 1.0
    return TruthLadder(np.arange(n, dtype=float), w)


class TestSinglePassBuilder:
    def test_bit_identical_on_512_point_ladders(self, chi2_ladders):
        a, b = chi2_ladders[0], chi2_ladders[3]
        assert a.size == b.size == 512
        assert_same_ladder(mellin_convolve(a, b), _reference_mellin(a, b))

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_bit_identical_k_fold(self, chi2_ladders, k):
        parts = chi2_ladders[:k]
        assert_same_ladder(convolve_all(parts, 512), _reference_convolve_all(parts, 512))

    def test_bit_identical_under_pair_budget(self, chi2_ladders):
        # both inputs are condensed to isqrt(budget) = 100 points first
        a, b = chi2_ladders[1], chi2_ladders[2]
        got = mellin_convolve(a, b, n_max=64, pair_budget=10_000)
        assert_same_ladder(got, _reference_mellin(a, b, n_max=64, pair_budget=10_000))

    @pytest.mark.parametrize("n, n_max", [(40, 512), (600, 512), (600, 64)])
    def test_integer_supports_with_ties(self, n, n_max):
        # ties are summed in another order: the supports are equal, the
        # masses equal to rounding
        a, b = integer_ladder(n, 1), integer_ladder(n, 2)
        got, want = mellin_convolve(a, b, n_max), _reference_mellin(a, b, n_max)
        assert np.array_equal(got.log_v, want.log_v)
        assert np.max(np.abs(got.w - want.w)) <= 1e-14
        assert got.w[-1] == 1.0 and got.size <= n_max

    def test_memory_of_one_512_by_512_convolution(self, chi2_ladders):
        # 262 144 pair sums; measured peaks (numpy 2.4): 12.9 MB, and 23.3 MB
        # for the reference, which builds and validates a full-size ladder
        a, b = chi2_ladders[0], chi2_ladders[1]
        assert _peak_bytes(mellin_convolve, a, b) < 16_000_000
        assert _peak_bytes(_reference_mellin, a, b) > 16_000_000


class TestMellinConvolve:
    def test_two_by_two_exact(self):
        # atoms {1,2} x {3,4} -> products {3,4,6,8}, each mass 1/4
        joint = mellin_convolve(two_point(1, 2), two_point(3, 4))
        assert np.allclose(joint.log_v, np.log([3, 4, 6, 8]))
        assert np.allclose(joint.atom_masses(), 0.25)
        assert eval_truth(joint, math.log(5.0)) == 0.5

    def test_duplicate_products_merge(self):
        # {1,2} x {2,4}: products {2,4,4,8} -> support {2,4,8}, masses .25/.5/.25
        joint = mellin_convolve(two_point(1, 2), two_point(2, 4))
        assert np.allclose(joint.log_v, np.log([2, 4, 8]))
        assert np.allclose(joint.atom_masses(), [0.25, 0.5, 0.25])

    def test_unit_atom_is_identity(self):
        lad = two_point(1, 5)
        joint = mellin_convolve(lad, unit_atom())
        assert np.allclose(joint.log_v, lad.log_v)
        assert np.allclose(joint.w, lad.w)

    def test_commutative(self):
        a, b = two_point(1, 3), two_point(2, 7)
        ab = mellin_convolve(a, b)
        ba = mellin_convolve(b, a)
        assert np.allclose(ab.log_v, ba.log_v)
        assert np.allclose(ab.w, ba.w)

    def test_condensation_bound(self):
        rng = np.random.default_rng(0)
        vals = np.sort(rng.standard_normal(3_000))
        big = TruthLadder(vals, np.arange(1, vals.size + 1) / vals.size)
        joint = mellin_convolve(big, big, n_max=512)
        assert joint.size <= 512
        assert joint.provenance == "convolved"

    def test_matches_monte_carlo_oracle(self):
        # log-product of two independent gaussians vs direct simulation
        rng = np.random.default_rng(1)
        x = rng.normal(size=60_000)
        y = rng.normal(size=60_000) * 0.5
        la = TruthLadder(np.sort(x), np.arange(1, x.size + 1) / x.size)
        lb = TruthLadder(np.sort(y), np.arange(1, y.size + 1) / y.size)
        joint = mellin_convolve(la, lb)
        direct = np.sort(x + rng.permutation(y))
        oracle = TruthLadder(direct, np.arange(1, direct.size + 1) / direct.size)
        assert sup_distance(joint, oracle) < 0.02


class TestConvolveAll:
    def test_single_ladder_passthrough(self):
        lad = two_point(1, 2)
        out = convolve_all([lad])
        assert np.allclose(out.log_v, lad.log_v)

    def test_three_fold_exact(self):
        # {1,2}^3 -> products 1..8 with binomial masses
        out = convolve_all([two_point(1, 2)] * 3)
        assert np.allclose(out.log_v, np.log([1, 2, 4, 8]))
        assert np.allclose(out.atom_masses(), [1, 3, 3, 1] / np.array(8.0))

    def test_order_independent(self):
        parts = [two_point(1, 2), two_point(3, 5), two_point(2, 9)]
        a = convolve_all(parts)
        b = convolve_all(parts[::-1])
        assert np.allclose(a.log_v, b.log_v)
        assert np.allclose(a.w, b.w)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convolve_all([])


class TestCompositeEvalues:
    def test_conjunction_at_global_maxes_is_one(self):
        parts = (two_point(1, 2), two_point(3, 4))
        grid = np.array([[math.log(2.0), math.log(4.0)]])
        c = CompositeStructure(parts, grid)
        assert conjunctive_evalue(c) == 1.0

    def test_conjunction_below_smallest_product(self):
        parts = (two_point(1, 2), two_point(3, 4))
        grid = np.array([[math.log(1.0), math.log(3.0)]])
        c = CompositeStructure(parts, grid)
        # only the (1,3) atom lies at or below the cutoff
        assert conjunctive_evalue(c) == 0.25

    def test_nan_row_rejected_conjunctively(self):
        parts = (two_point(1, 2), two_point(3, 4))
        grid = np.array([[math.log(2.0), np.nan]])
        c = CompositeStructure(parts, grid)
        with pytest.raises(MissingComponentError):
            conjunctive_evalue(c)

    def test_disjunction_takes_best_row(self):
        parts = (two_point(1, 2), two_point(3, 4))
        grid = np.array(
            [
                [math.log(1.0), math.log(3.0)],
                [math.log(2.0), math.log(4.0)],
            ]
        )
        c = CompositeStructure(parts, grid)
        assert disjunctive_evalue(c) == 1.0

    def test_nan_slot_uses_component_supremum(self):
        parts = (two_point(1, 2), two_point(3, 4))
        c_nan = CompositeStructure(parts, np.array([[math.log(2.0), np.nan]]))
        c_top = CompositeStructure(parts, np.array([[math.log(2.0), math.log(4.0)]]))
        assert disjunctive_evalue(c_nan) == disjunctive_evalue(c_top) == 1.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            CompositeStructure((two_point(1, 2),), np.array([[0.0, 0.0]]))

    def test_two_gaussian_joint_against_direct_mc(self):
        # conjunction of two sharp point hypotheses: compare the composed
        # truth value with one computed from a direct joint sample
        m1 = make_gaussian_mean_model(0.0, 1.0)
        m2 = make_gaussian_mean_model(1.0, 2.0)
        cfg = SamplerConfig(seed=5, chains=2, draws=30_000, burnin=3_000)
        s1 = sample_posterior(m1, cfg)
        s2 = sample_posterior(
            m2, SamplerConfig(seed=6, chains=2, draws=30_000, burnin=3_000)
        )
        l1 = estimate_truth_ladder(s1)
        l2 = estimate_truth_ladder(s2)
        star1 = -((0.5 - 0.0) ** 2) / 2.0  # log s1 at theta=0.5
        star2 = -((0.5 - 1.0) ** 2) / 4.0  # log s2 at theta=0.5
        c = CompositeStructure((l1, l2), np.array([[star1, star2]]))
        got = conjunctive_evalue(c)
        combined = s1.log_surprise + np.random.default_rng(7).permutation(
            s2.log_surprise
        )
        oracle = float(np.mean(combined <= star1 + star2))
        assert got == pytest.approx(oracle, abs=0.02)


class TestAnalyzeNetwork:
    def _spec(self, disjuncts):
        serial = [
            {"family": "gaussian-mean", "mean": 0.0, "variance": 1.0},
            {"family": "gaussian-mean", "mean": 2.0, "variance": 1.0},
        ]
        return {"serial": serial, "disjuncts": disjuncts}

    def test_network_end_to_end(self):
        spec = self._spec(
            [[{"equalities": ["theta"]}, None], [None, {"equalities": ["theta - 2"]}]]
        )
        cfg = SamplerConfig(seed=0, chains=2, draws=10_000, burnin=2_000)
        structure, ev = analyze_network(spec, cfg)
        assert structure.k == 2 and structure.q == 2
        # second row constrains component 2 at its mode: disjunction near 1
        assert ev == pytest.approx(1.0, abs=0.02)

    def test_network_spec_validation(self):
        from fbst import SpecError

        with pytest.raises(SpecError):
            analyze_network({"serial": []})
        with pytest.raises(SpecError):
            analyze_network(self._spec([[None]]))
