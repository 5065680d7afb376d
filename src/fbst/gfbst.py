"""Three-valued GFBST decisions and the logical-property verification harness.

Decisions are encoded as {0 reject, 1/2 agnostic, 1 accept}.  The harness
runs on an exact finite grid model where e-values are computed by sorting
cells, so every logical condition can be checked without Monte-Carlo error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REJECT, AGNOSTIC, ACCEPT = 0.0, 0.5, 1.0

CONDITIONS = ("I.i", "I.ii", "I.iii", "M.i", "M.ii", "C.i", "C.ii", "compatibility")


class InconsistentEvidenceError(ValueError):
    """Both ev(H) and ev(complement) fell below the threshold."""


@dataclass(frozen=True)
class Decision:
    value: float  # 0, 0.5, or 1
    threshold: float
    ev_h: float
    ev_hbar: float

    @property
    def accepted(self) -> bool:
        return self.value == ACCEPT

    @property
    def rejected(self) -> bool:
        return self.value == REJECT

    @property
    def agnostic(self) -> bool:
        return self.value == AGNOSTIC


def decision_values(ev_h, ev_hbar, c: float, rule: str = "gfbst") -> np.ndarray:
    """Decision values of a rule, elementwise over arrays of e-value pairs.

    "gfbst" rejects if ev(H) < c, accepts if ev(complement) < c, and is
    agnostic otherwise; a boundary value ev(H) == c counts as agnostic
    (strict inequality).  "broken-negative-control" deliberately ignores
    ev(complement): it rejects if ev(H) < c and accepts if ev(H) > 1 - c,
    so it is not a region-estimator test.
    """
    ev_h = np.asarray(ev_h)
    if rule == "gfbst":
        if not 0.0 < c < 1.0:
            raise ValueError("threshold must lie strictly inside (0, 1)")
        below_h = ev_h < c
        below_hbar = np.asarray(ev_hbar) < c
        if np.any(below_h & below_hbar):
            raise InconsistentEvidenceError("both e-values below the threshold")
        return np.where(below_h, REJECT, np.where(below_hbar, ACCEPT, AGNOSTIC))
    if rule == "broken-negative-control":
        return np.where(ev_h < c, REJECT, np.where(ev_h > 1.0 - c, ACCEPT, AGNOSTIC))
    raise ValueError(f"unknown decision rule {rule!r}")


def gfbst_decide(ev_h: float, ev_hbar: float, c: float) -> Decision:
    """The GFBST decision on one pair of e-values (see `decision_values`)."""
    return Decision(float(decision_values(ev_h, ev_hbar, c)), c, ev_h, ev_hbar)


def region_estimator_decide(S, H) -> Decision:
    """Accept if S inside H, reject if S inside the complement, else agnostic."""
    S = np.asarray(S, dtype=bool)
    H = np.asarray(H, dtype=bool)
    if not S.any():
        raise ValueError("region estimator must be non-empty")
    if np.all(H[S]):
        value = ACCEPT
    elif not np.any(H[S]):
        value = REJECT
    else:
        value = AGNOSTIC
    return Decision(value, float("nan"), float("nan"), float("nan"))


def modal_table(decision: Decision) -> dict:
    """The six modal operators for a decision, with Table-1 equivalences."""
    box = decision.accepted
    not_diamond = decision.rejected
    nabla = decision.agnostic
    record = {
        "necessity": box,
        "impossibility": not_diamond,
        "contingency": nabla,
        "possibility": box or nabla,
        "non_necessity": not_diamond or nabla,
        "non_contingency": box or not_diamond,
    }
    # internal consistency of the modal encodings
    assert record["possibility"] == (not record["impossibility"])
    assert record["non_necessity"] == (not record["necessity"])
    assert record["non_contingency"] == (not record["contingency"])
    assert record["necessity"] == (record["non_contingency"] and record["possibility"])
    assert record["impossibility"] == (record["non_contingency"] and record["non_necessity"])
    assert record["contingency"] == (record["possibility"] and record["non_necessity"])
    return record


@dataclass(frozen=True)
class GridModel:
    """Exact finite testbed: 2-D grid of posterior masses and surprise values.

    The cells are ranked by descending surprise once, at construction.  A
    cell-subset hypothesis's e-value is the cumulative mass of the closed
    lower cut of its highest-surprise cell, which is its first cell in rank
    order: `_ev_rank[r]` holds that mass for the cell of rank r, and one
    extra 0 for the empty hypothesis.  Masks in rank order, each ending in a
    True sentinel column, thus find their e-values with one argmax.
    """

    masses: np.ndarray
    surprise: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float)
        surprise = np.asarray(self.surprise, dtype=float)
        if masses.shape != surprise.shape or masses.ndim != 2:
            raise ValueError("masses and surprise must be matching 2-D arrays")
        if np.any(masses < 0):
            raise ValueError("cell masses must be non-negative")
        if np.any(np.isnan(surprise)):
            raise ValueError("surprise values must not be NaN")
        masses = masses / masses.sum()
        order = np.argsort(surprise, axis=None)
        sorted_s = surprise.ravel()[order]
        # cum[j] is the mass of the j lowest-surprise cells and cut[r] the
        # size of the closed lower cut of the cell of rank r (ties share it)
        cum = np.concatenate(([0.0], np.cumsum(masses.ravel()[order])))
        cut = np.searchsorted(sorted_s, sorted_s[::-1], "right")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "surprise", surprise)
        object.__setattr__(self, "_rank", order[::-1])  # rank -> cell
        object.__setattr__(self, "_ev_rank", np.append(cum[cut], 0.0))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "GridModel":
        masses = rng.random((n, n)) + 1e-6
        # flat reference: surprise equals the posterior cell mass
        g = cls(masses, masses / masses.sum())
        return g

    @property
    def cells(self) -> int:
        return self.masses.size

    def _ranked_evalues(self, ranked: np.ndarray) -> np.ndarray:
        """E-values of masks in rank order, shape (..., cells + 1), whose
        last column is the True sentinel."""
        return self._ev_rank[ranked.argmax(axis=-1)]

    def evalues(self, masks) -> np.ndarray:
        """Exact e-values (closed lower cut) of a stack of cell-subset
        hypotheses, shape (..., *grid shape) -> (...); an empty subset
        has e-value 0."""
        masks = np.asarray(masks, dtype=bool)
        if masks.shape[-2:] != self.surprise.shape:
            raise ValueError("masks must end in the grid's shape")
        flat = masks.reshape(masks.shape[:-2] + (self.cells,))
        ranked = np.ones(flat.shape[:-1] + (self.cells + 1,), dtype=bool)
        ranked[..., :-1] = flat[..., self._rank]
        return self._ranked_evalues(ranked)

    def evalue(self, mask: np.ndarray) -> float:
        """Exact e-value of one cell-subset hypothesis."""
        return float(self.evalues(mask))

    def decide(self, mask: np.ndarray, c: float, rule: str = "gfbst") -> Decision:
        mask = np.asarray(mask, dtype=bool)
        ev_h, ev_hbar = self.evalues(np.stack([mask, ~mask])).tolist()
        return Decision(float(decision_values(ev_h, ev_hbar, c, rule)), c, ev_h, ev_hbar)

    def upper_cut(self, level: float) -> np.ndarray:
        """Tangential-set style region estimator: cells with surprise > level."""
        return self.surprise > level


# trials whose hypothesis families are evaluated together, so that the
# harness's memory does not grow with the number of trials
BLOCK = 128

FAMILY = ("A", "B", "A'", "A|B", "A&B")
# each family member followed by its complement
NAMES = tuple(x for name in FAMILY for x in (name, f"~{name}"))
# a trial's checks in the order they are made: condition and witness payload
# (the diagonal pairs of the compatibility check never fire)
CHECKS = (
    [(cond, {"hypothesis": name}) for name in FAMILY for cond in ("I.i", "I.ii", "I.iii")]
    + [(cond, {}) for cond in ("M.i", "M.ii", "C.i", "C.ii")]
    + [("compatibility", {"pair": (n1, n2)}) for n1 in NAMES for n2 in NAMES]
)
_COLUMNS = {name: [j for j, (cond, _) in enumerate(CHECKS) if cond == name] for name in CONDITIONS}


def _draw_masks(
    grid: GridModel, shapes: np.random.Generator, keys: np.random.Generator, out: np.ndarray
) -> None:
    """Fill `out`, a bool block (..., cells) in rank order, with masks of
    proper non-empty subsets, one mask per row in C order.

    Each mask reads two uniforms u from `shapes`: its size is log-uniform in
    [1, cells - 1] and its kind is int(3 u[1]).  Kind 0 reads `cells`
    uniform keys from `keys`, one per cell in cell order, and holds the
    cells with the `size` smallest keys; kind 1 holds the `size`
    lowest-surprise cells (rejectable hypotheses) and kind 2 the `size`
    highest (their complements become rejectable).  Both streams are read
    one mask at a time, so the masks do not depend on how rows are blocked.
    """
    n = grid.cells
    ranks = np.arange(n, dtype=np.min_scalar_type(n))  # the smallest type compares fastest
    u = shapes.random(out.shape[:-1] + (2,))
    size = np.clip(np.exp(u[..., 0] * np.log(n - 1)).astype(np.intp), 1, n - 1).astype(ranks.dtype)
    kind = (3.0 * u[..., 1]).astype(np.intp)
    np.less(ranks, size[..., None], out=out)  # kind 2: a prefix of the ranks
    low = kind == 1
    out[low] = ranks >= n - size[low, None]  # kind 1: a suffix
    pick = kind == 0
    k = keys.random((int(pick.sum()), n))
    want = size[pick]
    chosen = k <= np.sort(k, axis=1)[np.arange(len(k)), want - 1, None]
    # keys tied at the cut: the `size` smallest, in cell order
    for row in np.flatnonzero(chosen.sum(axis=1) != want):
        chosen[row] = False
        chosen[row, np.argsort(k[row], kind="stable")[: want[row]]] = True
    out[pick] = chosen[:, grid._rank]


def _checks(evs: np.ndarray, dec: np.ndarray) -> np.ndarray:
    """(trials, len(CHECKS)) violations, from the e-values and decisions of
    each trial's family members and their complements, (trials, 5, 2)."""
    dh, dc = dec[..., 0], dec[..., 1]
    a, b, a_prime, union, inter = dh.T
    invertibility = np.stack(
        [(dh == ACCEPT) != (dc == REJECT),
         (dh != REJECT) != (dc != ACCEPT),
         (dh == AGNOSTIC) != (dc == AGNOSTIC)],
        axis=2,
    )
    monotone_consonant = np.stack(
        [(a == ACCEPT) & (a_prime != ACCEPT),
         (a != REJECT) & (a_prime == REJECT),
         (union != REJECT) & (a == REJECT) & (b == REJECT),
         (a == ACCEPT) & (b == ACCEPT) & (inter != ACCEPT)],
        axis=1,
    )
    evs, dec = evs.reshape(len(evs), -1), dec.reshape(len(dec), -1)  # NAMES order
    compatibility = (evs[:, :, None] > evs[:, None, :]) & (dec[:, :, None] < dec[:, None, :])
    return np.concatenate(
        [invertibility.reshape(len(dec), -1), monotone_consonant,
         compatibility.reshape(len(dec), -1)],
        axis=1,
    )


def check_logical_properties(
    grid: GridModel,
    trials: int,
    c: float = 0.05,
    seed: int = 0,
    rule: str = "gfbst",
) -> dict:
    """Count violations of the invertibility, monotonicity, consonance,
    and significance-compatibility conditions over random hypothesis families.

    Each trial draws masks A, B and E, in that order, and forms the family
    A, B, A' = A | E, A | B and A & B; each member is decided with its
    complement.  The masks come from two streams spawned from `seed`: mask
    sizes and kinds from the first, random subsets' keys from the second
    (see `_draw_masks`).  They are drawn BLOCK trials at a time and kept in
    the grid's descending-surprise rank order, where each e-value is one
    lookup; each stream is read one mask at a time, so the report does not
    depend on BLOCK.  Compatibility is checked in its strict form,
    ev(H1) > ev(H2) implies decision(H1) >= decision(H2); ties at ev = 1 are
    uninformative for region-estimator tests.  A condition's witness is its first
    violation, by trial and then in CHECKS order, and the witnesses are
    listed in the order they were found.
    """
    shapes, keys = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    counts = {name: 0 for name in CONDITIONS}
    first: dict = {}  # condition -> (trial, column of CHECKS)
    n = grid.cells
    # (trial, member, [member, complement], rank), each a mask in rank order
    # followed by the True sentinel column of GridModel._ranked_evalues
    block = np.ones((min(BLOCK, trials), len(FAMILY), 2, n + 1), dtype=bool)
    for start in range(0, trials, BLOCK):
        count = min(BLOCK, trials - start)
        family = block[:count]
        a, b, a_prime, union, inter = family[:, :, 0, :n].swapaxes(0, 1)
        # A, B, and E in the slot of A'
        _draw_masks(grid, shapes, keys, family[:, :3, 0, :n])
        np.logical_or(a, b, out=union)
        np.logical_and(a, b, out=inter)
        np.logical_or(a_prime, a, out=a_prime)
        np.logical_not(family[:, :, 0, :n], out=family[:, :, 1, :n])
        evs = grid._ranked_evalues(family)
        hits = _checks(evs, decision_values(evs, evs[..., ::-1], c, rule))
        for name, cols in _COLUMNS.items():
            sub = hits[:, cols]
            counts[name] += int(sub.sum())
            if name not in first and sub.any():
                trial, k = divmod(int(np.argmax(sub)), len(cols))
                first[name] = (start + trial, cols[k])
    witnesses = {
        name: {"trial": trial, **CHECKS[col][1]}
        for name, (trial, col) in sorted(first.items(), key=lambda item: item[1])
    }

    total = sum(counts.values())
    return {
        "rule": rule,
        "threshold": c,
        "trials": trials,
        "seed": seed,
        "counts": counts,
        "total_violations": total,
        "witnesses": witnesses,
    }
