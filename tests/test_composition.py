import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fbst import (
    CompositeStructure,
    SamplerConfig,
    TruthLadder,
    conjunctive_evalue,
    disjunctive_evalue,
    eval_truth,
    evalue,
    make_gaussian_mean_model,
    mellin_convolve,
    point_hypothesis,
    sample_posterior,
)
from fbst import composition
from fbst.composition import (
    MissingComponentError,
    _pair_counts,
    _stable_pair_order,
    analyze_models,
    analyze_network,
    convolve_all,
    convolved_truth,
    network_models,
)
from fbst.evalue import chi2_cdf, chi2_quantile
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


def _reference_mellin(w1, w2, n_max=512):
    cap = math.isqrt(2 ** 20)  # the pair budget's points per side
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

    def test_bit_identical_under_pair_budget(self):
        # both inputs are condensed to isqrt(DEFAULT_PAIR_BUDGET) = 1024
        # points first
        a, b = (estimate_truth_ladder(iid_chi2_sample(d, seed=d), n_max=2_000) for d in (2, 3))
        assert a.size == b.size == 2_000 > math.isqrt(composition.DEFAULT_PAIR_BUDGET)
        got = mellin_convolve(a, b, n_max=64)
        assert_same_ladder(got, _reference_mellin(a, b, n_max=64))

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
        # 262 144 pair sums; measured peaks (numpy 2.4): 6.6 MB, and 23.3 MB
        # for the reference, which builds and validates a full-size ladder
        a, b = chi2_ladders[0], chi2_ladders[1]
        assert _peak_bytes(mellin_convolve, a, b) < 16_000_000
        assert _peak_bytes(_reference_mellin, a, b) > 16_000_000


def random_ladder(log_v, seed):
    masses = np.random.default_rng(seed).random(len(log_v))
    w = np.cumsum(masses) / masses.sum()
    w[-1] = 1.0
    return TruthLadder(np.asarray(log_v, dtype=float), w)


def clustered_ladder(seed):
    """200 supports within 1e-9 of 0 and one at 1e7: every pair sum near 0
    shares the least key quantum (about 6e-7 here)."""
    near = np.sort(np.random.default_rng(seed).random(200)) * 1e-9
    return random_ladder(np.append(near, 1e7), seed)


class TestKeySort:
    @staticmethod
    def argsorts_in(monkeypatch, fn, *args):
        """fn(*args) and the `kind` of each np.argsort call it made."""
        kinds = []
        argsort = np.argsort

        def spy(x, *a, **kw):
            kinds.append(kw.get("kind"))
            return argsort(x, *a, **kw)

        monkeypatch.setattr(composition.np, "argsort", spy)
        try:
            return fn(*args), kinds
        finally:
            monkeypatch.undo()

    def test_sums_within_one_quantum_are_repaired(self, monkeypatch):
        a, b = clustered_ladder(1), clustered_ladder(2)
        got, kinds = self.argsorts_in(monkeypatch, mellin_convolve, a, b)
        assert kinds == ["stable"]  # the repair ran, once
        assert_same_ladder(got, _reference_mellin(a, b))

    def test_no_repair_on_512_point_ladders(self, monkeypatch, chi2_ladders):
        # the key's quantum (span / 2^43) parts every pair sum here
        got, kinds = self.argsorts_in(monkeypatch, mellin_convolve, chi2_ladders[0], chi2_ladders[3])
        assert kinds == []
        assert_same_ladder(got, _reference_mellin(chi2_ladders[0], chi2_ladders[3]))

    def test_order_is_the_stable_argsort(self):
        # ties, sums one quantum apart, -inf supports and a far outlier;
        # sums in distinct quanta skip the gather, and strictly increase
        paths = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            a, b = (np.unique(np.round(rng.normal(size=rng.integers(1, 40)), rng.integers(0, 12)))
                    for _ in range(2))
            if seed % 3 == 0:
                a = np.append(-np.inf, a)
            if seed % 4 == 0:
                b = np.append(b, 1e9)
            sums = np.add.outer(a, b).ravel()
            got_sums, order, gathered = _stable_pair_order(a, b)
            assert np.array_equal(got_sums, sums)
            assert np.array_equal(order, np.argsort(sums, kind="stable"))
            if gathered is None:
                assert np.all(np.diff(sums[order]) > 0.0)
            else:
                assert np.array_equal(gathered, sums[order])
            paths.add(gathered is None)
        assert paths == {False, True}

    def test_distinct_quanta_skip_the_gather(self, chi2_ladders):
        # each ordered pair of two of the d = 1..4 fixture ladders takes
        # the path that forms only the kept supports; a ladder with itself
        # ties a_i + a_j with a_j + a_i and keeps the gather
        for a in chi2_ladders:
            for b in chi2_ladders:
                assert (_stable_pair_order(a.log_v, b.log_v)[2] is None) == (a is not b)
                assert_same_ladder(mellin_convolve(a, b), _reference_mellin(a, b))

    @pytest.mark.parametrize("ladders", ["ties", "log0", "clustered"])
    def test_shared_quanta_keep_the_gather(self, ladders):
        a, b = {"ties": (integer_ladder(40, 1), integer_ladder(40, 2)),
                "log0": (random_ladder([-np.inf, -1.0, 0.0], 3), random_ladder([2.0, 5.0], 4)),
                "clustered": (clustered_ladder(1), clustered_ladder(2))}[ladders]
        assert _stable_pair_order(a.log_v, b.log_v)[2] is not None

    @pytest.mark.parametrize("other", ["chi2", "log0"])
    def test_support_with_log_zero(self, chi2_ladders, other):
        # log 0 = -inf: its pair sums are all -inf, a run of ties summed in
        # another order than the reference's
        a = random_ladder([-np.inf, -1.0, 0.0], 3)
        b = chi2_ladders[1] if other == "chi2" else random_ladder([-np.inf, 2.0], 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mellin_convolve(a, b)
        want = _reference_mellin(a, b)
        assert got.log_v[0] == -np.inf
        assert np.array_equal(got.log_v, want.log_v)
        assert np.max(np.abs(got.w - want.w)) <= 1e-15

    def test_memory_bound_of_one_512_by_512_convolution(self, chi2_ladders):
        # four pair-sized arrays of 2.1 MB at most, three when the sums fall
        # in distinct quanta, as here; measured peak 6.6 MB (8.7 MB with four)
        a, b = chi2_ladders[0], chi2_ladders[1]
        assert _peak_bytes(mellin_convolve, a, b) < 10_000_000


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

    def test_infinite_optima_summing_to_nan_raise(self):
        # -inf + inf is NaN: neither reading 1 nor 0 is an answer
        parts = (two_point(1, 2), two_point(3, 4))
        c = CompositeStructure(parts, np.array([[-np.inf, np.inf], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            conjunctive_evalue(c, 0)
        with pytest.raises(ValueError):
            disjunctive_evalue(c)

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


def brute_counts(a, b, v):
    """#{j : fl(a[i] + b[j]) <= v[q]}, from every pair sum."""
    sums = np.add.outer(a, b)
    return np.sum(sums[None] <= np.asarray(v)[:, None, None], axis=2)


def brute_truth(left, right, v):
    """The mass of every atom pair whose sum fl(a_i + b_j) is <= v."""
    pair = np.multiply.outer(left.atom_masses(), right.atom_masses())
    hit = np.add.outer(left.log_v, right.log_v)[None] <= np.asarray(v)[:, None, None]
    out = np.sum(pair * hit, axis=(1, 2)) / pair.sum()
    return np.where(np.isposinf(v), 1.0, np.where(np.isneginf(v), 0.0, out))


class TestQueryRead:
    def test_absorbed_pairs_are_counted(self):
        # every b is tiny next to a: 212 of the 401 sums round to a or
        # below, where a search for v - a finds 201
        a, b, v = np.array([1e6]), np.linspace(-1e-9, 1e-9, 401), np.array([1e6])
        assert brute_counts(a, b, v)[0, 0] == 212
        assert np.searchsorted(b, v - a, side="right")[0] == 201
        assert _pair_counts(a, b, v)[0, 0] == 212

    def test_counts_equal_the_pair_sums(self):
        # ties, absorption, -inf atoms and queries at pair sums
        for seed in range(300):
            rng = np.random.default_rng(seed)
            b = np.unique(np.round(rng.normal(size=rng.integers(1, 60)) * 10.0 ** rng.integers(-12, 2),
                                   rng.integers(0, 14)))
            a = np.unique(rng.normal(size=rng.integers(1, 30)) * 10.0 ** rng.integers(0, 8))
            if seed % 3 == 0:
                a = np.append(-np.inf, a)
            if seed % 5 == 0:
                b = np.append(-np.inf, b)
            sums = np.add.outer(a, b).ravel()
            v = np.concatenate([rng.choice(sums, 4), rng.normal(size=2) * 10.0 ** rng.integers(0, 8)])
            assert np.array_equal(_pair_counts(a, b, v), brute_counts(a, b, v))

    def test_two_ladders_read_exactly(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            a, b = (np.unique(np.round(rng.normal(size=rng.integers(1, 80)), 2)) for _ in range(2))
            if seed % 4 == 0:
                a = np.append(-np.inf, a)
            left, right = random_ladder(a, seed), random_ladder(b, seed + 1)
            sums = np.add.outer(a, b).ravel()
            v = np.concatenate([rng.choice(sums, 5), [-np.inf, np.inf, sums.max() + 1.0]])
            got = convolved_truth([left, right], v)
            assert np.max(np.abs(got - brute_truth(left, right, v))) <= 1e-12
            # every pair counted reads exactly 1, no pair exactly 0
            assert got[-3] == 0.0 and got[-2] == got[-1] == 1.0

    def test_one_ladder_and_edge_queries_match_eval_truth(self):
        lad = random_ladder([-np.inf, -1.0, 0.5], 3)
        v = np.array([-np.inf, -2.0, -1.0, 0.0, 0.5, np.inf])
        assert np.array_equal(convolved_truth([lad], v), eval_truth(lad, v))
        # the joint ladder's reading of infinite queries, at any k
        edges = v[[0, 5]]
        for k in (2, 3):
            assert np.array_equal(convolved_truth([lad] * k, edges), eval_truth(convolve_all([lad] * k), edges))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nan_query_raises(self, k):
        lad = random_ladder([-np.inf, -1.0, 0.5], 3)
        with pytest.raises(ValueError):
            convolved_truth([lad] * k, np.array([0.0, np.nan]))

    @pytest.mark.parametrize("seed", range(12))
    def test_within_one_condensation_of_the_joint_ladder(self, seed):
        # only the last condensation to n_max is dropped, so the value lies
        # at or above the joint ladder's and within 1/n_max of it
        rng = np.random.default_rng(seed)
        n_max = 64
        k, q = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        ladders = [random_ladder(np.sort(rng.normal(size=int(rng.integers(40, 200)))), seed * 10 + j)
                   for j in range(k)]
        grid = rng.normal(size=(q, k)) * 0.5
        c = CompositeStructure(ladders, grid)
        old = eval_truth(_reference_convolve_all(ladders, n_max), grid.sum(axis=1))
        new = np.array([conjunctive_evalue(c, i, n_max) for i in range(q)])
        assert np.all(new - old >= -1e-12)
        assert np.all(new - old <= 1.0 / n_max + 1e-12)
        assert disjunctive_evalue(c, n_max) == new.max()

    @pytest.mark.parametrize("k, calls", [(1, 0), (2, 0), (3, 1), (4, 2), (5, 3)])
    def test_convolutions_made(self, monkeypatch, k, calls):
        made = []
        mellin = composition.mellin_convolve

        def counted(*args, **kwargs):
            made.append(1)
            return mellin(*args, **kwargs)

        monkeypatch.setattr(composition, "mellin_convolve", counted)
        parts = [two_point(1 + j, 3 + j) for j in range(k)]
        c = CompositeStructure(parts, np.zeros((2, k)))
        disjunctive_evalue(c)
        assert len(made) == calls


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
        grid, ev = analyze_network(spec, cfg)
        assert grid.shape == (2, 2)
        # second row constrains component 2 at its mode: disjunction near 1
        assert ev == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("family, hypothesis", [
        ({"family": "gaussian-mean", "mean": 1.0, "variance": 1.0}, {"equalities": ["theta"]}),
        ({"family": "generic", "coordinates": ["a", "b"],
          "log_kernel": "-((a - 1.2)^2 + (b + 0.4)^2) / (2 * 0.09)"}, {"equalities": ["a - 1.3"]}),
    ], ids=["exact", "independence"])
    def test_one_slot_reads_the_evalue(self, family, hypothesis):
        # the same model, hypothesis and config read the same draws, and
        # both count them against the same log s*
        cfg = SamplerConfig(seed=3, chains=2, draws=5_000, burnin=1_000)
        spec = {"serial": [family], "disjuncts": [[hypothesis]]}
        grid, ev = analyze_network(spec, cfg)
        (model,), ((H,),) = network_models(spec)
        report = evalue(model, H, sample_posterior(model, cfg))
        assert grid[0, 0] == report.log_s_star
        assert ev == report.ev

    @pytest.mark.parametrize("k", [2, 3])
    def test_joint_count_is_unbiased(self, k):
        # N(0, 1) slots, log s = -theta^2 / 2, each pinned at c with
        # k c^2 = z: the composite W is chi2_k.sf(z) = 1 - Q(k, -2 q)
        models = [make_gaussian_mean_model(0.0, 1.0)] * k
        cfg = SamplerConfig(chains=4, draws=50_000)
        for exact in (0.01, 0.3):
            c = math.sqrt(chi2_quantile(k, 1.0 - exact) / k)
            rows = [[point_hypothesis([c])] * k]
            errors = []
            for seed in range(20):
                # slot j reads seed + j, so the runs share no slot's draws
                grid, ev = analyze_models(models, rows, dataclasses.replace(cfg, seed=100 * seed))
                errors.append(ev - (1.0 - chi2_cdf(k, -2.0 * grid[0].sum())))
            errors = np.array(errors)
            assert abs(errors.mean()) <= 3 * errors.std(ddof=1) / math.sqrt(errors.size), (exact, errors)

    def test_network_spec_validation(self):
        from fbst import SpecError

        with pytest.raises(SpecError):
            analyze_network({"serial": []})
        with pytest.raises(SpecError):
            analyze_network(self._spec([[None]]))
