"""Three-valued GFBST decisions and the logical-property verification harness.

Decisions are encoded as {0 reject, 1/2 agnostic, 1 accept}.  The harness
runs on an exact finite grid model where e-values are computed by sorting
cells, so every logical condition can be checked without Monte-Carlo error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    The cells are sorted by surprise once, at construction: a cell-subset
    hypothesis's e-value is then the cumulative mass up to the last cell
    whose surprise is at most the subset's largest.
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
        # cell -> number of cells in its closed lower cut, and cut sizes ->
        # their cumulative mass, with cum[0] = 0 for the empty hypothesis;
        # cut is stored in the smallest integer type that holds it, so that
        # a batch of masks times cut stays small
        cut = np.searchsorted(sorted_s, surprise.ravel(), "right")
        cum = np.concatenate(([0.0], np.cumsum(masses.ravel()[order])))
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "surprise", surprise)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_cut", cut.astype(np.min_scalar_type(cut.size)))
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "GridModel":
        masses = rng.random((n, n)) + 1e-6
        # flat reference: surprise equals the posterior cell mass
        g = cls(masses, masses / masses.sum())
        return g

    @property
    def cells(self) -> int:
        return self.masses.size

    def evalues(self, masks) -> np.ndarray:
        """Exact e-values (closed lower cut) of a stack of cell-subset
        hypotheses, shape (..., *grid shape) -> (...); an empty subset
        has e-value 0."""
        masks = np.asarray(masks, dtype=bool)
        if masks.shape[-2:] != self.surprise.shape:
            raise ValueError("masks must end in the grid's shape")
        flat = masks.reshape(masks.shape[:-2] + (self.cells,))
        return self._cum[(flat * self._cut).max(axis=-1)]

    def evalue(self, mask: np.ndarray) -> float:
        """Exact e-value of one cell-subset hypothesis."""
        return float(self.evalues(mask))

    def decide(self, mask: np.ndarray, c: float, rule: str = "gfbst") -> Decision:
        mask = np.asarray(mask, dtype=bool)
        ev_h, ev_hbar = self.evalue(mask), self.evalue(~mask)
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


def _random_mask(grid: GridModel, rng: np.random.Generator) -> np.ndarray:
    """Proper non-empty subset with size log-uniform in [1, cells - 1]."""
    n = grid.cells
    size = int(np.exp(rng.uniform(0.0, np.log(n - 1))))
    size = min(max(size, 1), n - 1)
    kind = rng.integers(0, 3)
    if kind == 0:
        idx = rng.choice(n, size=size, replace=False)
    elif kind == 1:  # low-surprise cells: rejectable hypotheses
        idx = grid._order[:size]
    else:  # high-surprise cells: complements become rejectable
        idx = grid._order[-size:]
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask.reshape(grid.masses.shape)


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
    complement.  Compatibility is checked in its strict form, ev(H1) > ev(H2)
    implies decision(H1) >= decision(H2); ties at ev = 1 are uninformative
    for region-estimator tests.  A condition's witness is its first
    violation, by trial and then in CHECKS order, and the witnesses are
    listed in the order they were found.
    """
    rng = np.random.default_rng(seed)
    counts = {name: 0 for name in CONDITIONS}
    first: dict = {}  # condition -> (trial, column of CHECKS)
    for start in range(0, trials, BLOCK):
        drawn = np.array([[_random_mask(grid, rng) for _ in range(3)]
                          for _ in range(start, min(start + BLOCK, trials))])
        a, b, extra = drawn.swapaxes(0, 1)
        family = np.stack([a, b, a | extra, a | b, a & b], axis=1)
        # (trial, member, [member, complement]); each is the other's complement
        evs = grid.evalues(np.stack([family, ~family], axis=2))
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
