import json
import tracemalloc

import numpy as np
import pytest

from fbst import (
    Decision,
    GridModel,
    check_logical_properties,
    coordinate_zero_hypothesis,
    complement,
    evalue,
    gfbst_decide,
    modal_table,
    region_estimator_decide,
)
from fbst.cli import main
from fbst.gfbst import ACCEPT, AGNOSTIC, BLOCK, CONDITIONS, REJECT, InconsistentEvidenceError


def _reference_evalue(grid, mask):
    """e-value by summing the masses of the closed lower cut cell by cell."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        return 0.0
    return float(grid.masses[grid.surprise <= grid.surprise[mask].max()].sum())


def _scrambled(ev_h, ev_hbar, c, rule="scrambled"):
    """A rule that is not monotone in the e-values, so that every logical
    condition can fail: the monotonicity, consonance and compatibility
    checks then have witnesses to find."""
    return np.floor((np.asarray(ev_h) + 3.0 * np.asarray(ev_hbar)) * 101.0) % 3 / 2


def _reference_decide(grid, mask, c, rule):
    ev_h, ev_hbar = _reference_evalue(grid, mask), _reference_evalue(grid, ~mask)
    if rule == "scrambled":
        return float(_scrambled(ev_h, ev_hbar, c))
    if rule == "gfbst":
        return gfbst_decide(ev_h, ev_hbar, c).value
    if rule == "broken-negative-control":
        return REJECT if ev_h < c else ACCEPT if ev_h > 1.0 - c else AGNOSTIC
    raise ValueError(f"unknown decision rule {rule!r}")


def _reference_random_mask(grid, rng):
    n = grid.cells
    size = int(np.exp(rng.uniform(0.0, np.log(n - 1))))
    size = min(max(size, 1), n - 1)
    kind = rng.integers(0, 3)
    flat_order = np.argsort(grid.surprise, axis=None)
    if kind == 0:
        idx = rng.choice(n, size=size, replace=False)
    elif kind == 1:
        idx = flat_order[:size]
    else:
        idx = flat_order[-size:]
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask.reshape(grid.masses.shape)


def _reference_check_logical_properties(grid, trials, c=0.05, seed=0, rule="gfbst"):
    """The harness as first written: one trial at a time, each hypothesis
    decided on its own.  check_logical_properties must return its report."""
    rng = np.random.default_rng(seed)
    counts = {name: 0 for name in CONDITIONS}
    witnesses: dict = {}

    def note(name, payload):
        counts[name] += 1
        witnesses.setdefault(name, payload)

    for trial in range(trials):
        a = _reference_random_mask(grid, rng)
        b = _reference_random_mask(grid, rng)
        extra = _reference_random_mask(grid, rng)
        family = {"A": a, "B": b, "A'": a | extra, "A|B": a | b, "A&B": a & b}
        decisions, evs = {}, {}
        for name, mask in family.items():
            evs[name] = _reference_evalue(grid, mask)
            decisions[name] = _reference_decide(grid, mask, c, rule)
            evs[f"~{name}"] = _reference_evalue(grid, ~mask)
            decisions[f"~{name}"] = _reference_decide(grid, ~mask, c, rule)

        for name in family:
            dh, dc = decisions[name], decisions[f"~{name}"]
            if (dh == ACCEPT) != (dc == REJECT):
                note("I.i", {"trial": trial, "hypothesis": name})
            if (dh != REJECT) != (dc != ACCEPT):
                note("I.ii", {"trial": trial, "hypothesis": name})
            if (dh == AGNOSTIC) != (dc == AGNOSTIC):
                note("I.iii", {"trial": trial, "hypothesis": name})
        if decisions["A"] == ACCEPT and decisions["A'"] != ACCEPT:
            note("M.i", {"trial": trial})
        if decisions["A"] != REJECT and decisions["A'"] == REJECT:
            note("M.ii", {"trial": trial})
        if decisions["A|B"] != REJECT and (
            decisions["A"] == REJECT and decisions["B"] == REJECT
        ):
            note("C.i", {"trial": trial})
        if decisions["A"] == ACCEPT and decisions["B"] == ACCEPT and (
            decisions["A&B"] != ACCEPT
        ):
            note("C.ii", {"trial": trial})
        for n1 in decisions:
            for n2 in decisions:
                if n1 != n2 and evs[n1] > evs[n2] and decisions[n1] < decisions[n2]:
                    note("compatibility", {"trial": trial, "pair": (n1, n2)})

    return {
        "rule": rule,
        "threshold": c,
        "trials": trials,
        "seed": seed,
        "counts": counts,
        "total_violations": sum(counts.values()),
        "witnesses": witnesses,
    }


class TestDecide:
    def test_reject(self):
        d = gfbst_decide(0.01, 1.0, 0.05)
        assert d.rejected and d.value == REJECT

    def test_accept(self):
        d = gfbst_decide(1.0, 0.01, 0.05)
        assert d.accepted and d.value == ACCEPT

    def test_agnostic(self):
        d = gfbst_decide(0.3, 1.0, 0.05)
        assert d.agnostic and d.value == AGNOSTIC

    def test_boundary_is_agnostic(self):
        assert gfbst_decide(0.05, 1.0, 0.05).agnostic
        assert gfbst_decide(1.0, 0.05, 0.05).agnostic

    def test_inconsistent_pair(self):
        with pytest.raises(InconsistentEvidenceError):
            gfbst_decide(0.01, 0.02, 0.05)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            gfbst_decide(0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            gfbst_decide(0.5, 1.0, 1.0)

    def test_single_switch_in_threshold(self):
        # as c grows a decision moves away from agnostic exactly once
        for ev_h, ev_hbar in ((0.3, 1.0), (1.0, 0.2), (0.9, 1.0)):
            vals = [gfbst_decide(ev_h, ev_hbar, c).value for c in np.linspace(0.01, 0.99, 99)]
            switches = sum(a != b for a, b in zip(vals, vals[1:]))
            assert switches <= 1
            assert AGNOSTIC in vals

    def test_sharp_hypothesis_never_accepted(self, reg2_model, reg2_sample):
        # the complement of a sharp set carries the global surprise mode,
        # so its e-value is 1 and acceptance is impossible at any threshold
        H = coordinate_zero_hypothesis(2, 4)
        rep_h = evalue(reg2_model, H, reg2_sample)
        rep_c = evalue(reg2_model, complement(H), reg2_sample)
        assert rep_c.ev == 1.0
        for c in (0.01, 0.05, 0.5, 0.99):
            assert not gfbst_decide(rep_h.ev, rep_c.ev, c).accepted


class TestRegionEstimator:
    def test_contained(self):
        S = np.array([True, True, False, False])
        H = np.array([True, True, True, False])
        assert region_estimator_decide(S, H).accepted

    def test_disjoint(self):
        S = np.array([True, False, False, False])
        H = np.array([False, True, True, False])
        assert region_estimator_decide(S, H).rejected

    def test_overlap(self):
        S = np.array([True, True, False, False])
        H = np.array([False, True, True, False])
        assert region_estimator_decide(S, H).agnostic

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            region_estimator_decide(np.zeros(3, bool), np.ones(3, bool))

    def test_characterizes_gfbst_on_grid(self):
        # the GFBST is the region-estimator test of the surprise upper cut
        rng = np.random.default_rng(3)
        grid = GridModel.random(12, rng)
        c = 0.05
        # level: largest surprise whose closed lower cut has mass < c
        flat_s = grid.surprise.ravel()
        order = np.argsort(flat_s)
        cum = np.cumsum(grid.masses.ravel()[order])
        below = cum < c
        level = flat_s[order][below][-1] if below.any() else -np.inf
        S = grid.upper_cut(level)
        for _ in range(200):
            mask = rng.random(grid.masses.shape) < rng.uniform(0.05, 0.95)
            if not mask.any() or mask.all():
                continue
            direct = grid.decide(mask, c).value
            via_region = region_estimator_decide(S, mask).value
            assert direct == via_region


class TestModalTable:
    def test_accept_row(self):
        rec = modal_table(gfbst_decide(1.0, 0.01, 0.05))
        assert rec["necessity"] and rec["possibility"] and rec["non_contingency"]
        assert not rec["impossibility"] and not rec["contingency"]

    def test_reject_row(self):
        rec = modal_table(gfbst_decide(0.01, 1.0, 0.05))
        assert rec["impossibility"] and rec["non_necessity"] and rec["non_contingency"]
        assert not rec["necessity"] and not rec["possibility"]

    def test_agnostic_row(self):
        rec = modal_table(gfbst_decide(0.5, 1.0, 0.05))
        assert rec["contingency"] and rec["possibility"] and rec["non_necessity"]
        assert not rec["necessity"] and not rec["impossibility"]

    def test_exactly_three_operators_hold(self):
        for pair in ((1.0, 0.01), (0.01, 1.0), (0.5, 1.0)):
            rec = modal_table(gfbst_decide(*pair, 0.05))
            assert sum(rec.values()) == 3


class TestGridModel:
    def test_mass_normalization(self):
        g = GridModel(np.ones((3, 3)), np.arange(9.0).reshape(3, 3))
        assert g.masses.sum() == pytest.approx(1.0)

    def test_evalue_full_grid_is_one(self):
        rng = np.random.default_rng(0)
        g = GridModel.random(5, rng)
        assert g.evalue(np.ones((5, 5), bool)) == pytest.approx(1.0)

    def test_evalue_of_top_cell_is_one(self):
        rng = np.random.default_rng(1)
        g = GridModel.random(5, rng)
        mask = g.surprise == g.surprise.max()
        assert g.evalue(mask) == pytest.approx(1.0)

    def test_evalue_of_bottom_cell(self):
        rng = np.random.default_rng(2)
        g = GridModel.random(5, rng)
        mask = g.surprise == g.surprise.min()
        assert g.evalue(mask) == pytest.approx(g.masses[mask].sum())

    def test_evalue_monotone_in_mask(self):
        rng = np.random.default_rng(3)
        g = GridModel.random(8, rng)
        small = rng.random((8, 8)) < 0.2
        big = small | (rng.random((8, 8)) < 0.3)
        assert g.evalue(big) >= g.evalue(small)

    def test_complement_max_is_one(self):
        rng = np.random.default_rng(4)
        g = GridModel.random(8, rng)
        for _ in range(50):
            mask = rng.random((8, 8)) < rng.uniform(0.1, 0.9)
            if not mask.any() or mask.all():
                continue
            assert max(g.evalue(mask), g.evalue(~mask)) == pytest.approx(1.0, abs=1e-12)

    def test_evalues_against_brute_force(self):
        # ties in the surprise values, the empty mask and the full mask
        rng = np.random.default_rng(6)
        surprise = rng.integers(0, 5, size=(6, 6)).astype(float)
        g = GridModel(rng.random((6, 6)), surprise)
        masks = rng.random((50, 6, 6)) < rng.uniform(0.02, 0.5, size=(50, 1, 1))
        masks[0] = False
        masks[1] = True
        masks[2] = surprise == 2.0
        evs = g.evalues(masks)
        assert evs.shape == (50,)
        assert evs[0] == 0.0 and g.evalue(masks[0]) == 0.0
        for mask, ev in zip(masks, evs):
            assert ev == pytest.approx(_reference_evalue(g, mask), abs=1e-14)
            assert g.evalue(mask) == ev
        assert g.evalues(masks.reshape(5, 10, 6, 6)).shape == (5, 10)
        with pytest.raises(ValueError):
            g.evalues(np.ones((3, 36), bool))

    def test_nan_surprise_rejected(self):
        with pytest.raises(ValueError):
            GridModel(np.ones((2, 2)), np.array([[0.0, np.nan], [1.0, 2.0]]))

    def test_unknown_rule(self):
        rng = np.random.default_rng(5)
        g = GridModel.random(4, rng)
        with pytest.raises(ValueError):
            g.decide(np.ones((4, 4), bool), 0.05, rule="coin-flip")


class TestLogicalHarness:
    def test_gfbst_satisfies_all_conditions(self):
        rng = np.random.default_rng(0)
        grid = GridModel.random(20, rng)
        report = check_logical_properties(grid, trials=200, c=0.05, seed=1)
        assert report["total_violations"] == 0
        assert set(report["counts"]) == set(CONDITIONS)

    def test_negative_control_is_caught(self):
        rng = np.random.default_rng(0)
        grid = GridModel.random(20, rng)
        report = check_logical_properties(
            grid, trials=200, c=0.05, seed=1, rule="broken-negative-control"
        )
        assert report["total_violations"] >= 1
        assert report["witnesses"]

    @pytest.mark.parametrize("n", [4, 10, 20])
    @pytest.mark.parametrize("rule", ["gfbst", "broken-negative-control"])
    @pytest.mark.parametrize("c", [0.05, 0.15])
    def test_same_report_as_reference(self, n, rule, c):
        # several blocks, the last one partial, and no trials at all
        for seed, trials in ((0, 0), (1, 1), (2, 40), (3, BLOCK + 37)):
            grid = GridModel.random(n, np.random.default_rng(seed + 10))
            got = check_logical_properties(grid, trials, c, seed, rule)
            want = _reference_check_logical_properties(grid, trials, c, seed, rule)
            assert got == want
            assert list(got["witnesses"]) == list(want["witnesses"])
            assert all(type(w["trial"]) is int for w in got["witnesses"].values())

    def test_witnesses_of_every_condition(self, monkeypatch):
        import fbst.gfbst

        monkeypatch.setattr(fbst.gfbst, "decision_values", _scrambled)
        grid = GridModel.random(10, np.random.default_rng(8))
        got = check_logical_properties(grid, 2 * BLOCK + 5, 0.05, 4, "scrambled")
        want = _reference_check_logical_properties(grid, 2 * BLOCK + 5, 0.05, 4, "scrambled")
        assert got == want
        assert list(got["witnesses"]) == list(want["witnesses"])
        assert set(got["witnesses"]) == set(CONDITIONS)

    def test_cli_negative_control_output(self, capsys):
        code = main(["verify-logic", "--grid", "10", "--trials", "300", "--seed", "5",
                     "--rule", "broken-negative-control"])
        payload = json.loads(capsys.readouterr().out)
        payload.pop("manifest")
        grid = GridModel.random(10, np.random.default_rng(5))
        want = _reference_check_logical_properties(grid, 300, 0.05, 5,
                                                   "broken-negative-control")
        assert code == 1
        assert json.dumps(payload) == json.dumps(want)

    def test_memory_independent_of_trials(self):
        # measured peaks (numpy 2.4): 2.0 MB in blocks of BLOCK = 128 trials,
        # 30 MB with all 2000 trials in one block
        grid = GridModel.random(20, np.random.default_rng(0))
        tracemalloc.start()
        try:
            check_logical_properties(grid, 2000, 0.05, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_report_is_reproducible(self):
        rng = np.random.default_rng(7)
        grid = GridModel.random(10, rng)
        a = check_logical_properties(grid, trials=50, seed=3)
        b = check_logical_properties(grid, trials=50, seed=3)
        assert a["counts"] == b["counts"]
