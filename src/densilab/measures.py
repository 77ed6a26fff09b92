"""Pigeonhole selection of sets that are small for three measures at once.

Given K disjoint sets and three measures, at most k sets can exceed a
1/(k+1) share of any one measure's total (k+1 of them would overshoot
the total).  Discarding the violators of the first two measures and then
keeping the smallest survivors for the third leaves K - 3k sets that are
small for all three; with K >= 4k + 1 that is at least k + 1 sets.
"""

import numpy as np
from dataclasses import dataclass


@dataclass(frozen=True)
class MeasureTriple:
    """Three measure values for each of K disjoint sets, plus totals.

    ``values`` has shape (K, 3); per-measure column sums must not exceed
    the corresponding total.
    """

    values: np.ndarray
    totals: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        t = np.asarray(self.totals, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or t.shape != (3,):
            raise ValueError("need a (K, 3) value array and 3 totals")
        if not (np.all(v >= 0) and np.all(t >= 0)):  # NaN is not a measure
            raise ValueError("measure values must be nonnegative")
        if np.any(v.sum(axis=0) > t * (1 + 1e-12) + 1e-300):
            raise ValueError("per-measure sums exceed the stated totals")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "totals", t)

    @property
    def k_sets(self):
        return self.values.shape[0]

    @classmethod
    def from_csv(cls, path):
        """K rows, 3 columns; the totals are the column sums."""
        v = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
        return cls(values=v, totals=v.sum(axis=0))

    @classmethod
    def random(cls, k, rng):
        """A random instance with K = 4k + 1 sets and sums <= totals."""
        kk = 4 * k + 1
        v = rng.uniform(size=(kk, 3))
        slack = rng.uniform(0.0, 1.0, size=3)
        totals = v.sum(axis=0) / np.maximum(slack, 1e-3)
        return cls(values=v, totals=totals)


def select_small_sets(triple, k):
    """Indices of >= k + 1 sets with nu_j(U_i) <= nu_j(total)/(k + 1) for all j.

    Three passes, one per measure: drop the (at most k) sets exceeding
    the bound for measures 1 and 2, then keep the K - 3k smallest
    survivors for measure 3, found by a partition in linear time.  Ties
    at exactly the bound count as satisfying it, and ties in measure 3 go
    to the lower index so the output is deterministic.  Requires K >= 4k + 1.
    Returns ascending indices; raises ``ValueError`` if under k + 1 sets meet the
    bounds (k + 1 exceed one where a column sum tops its total within rounding).

    The sets are tracked as boolean masks of length K, and the only copy
    of a column is the survivors' third measure, partitioned in place.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    kk = triple.k_sets
    if kk < 4 * k + 1:
        raise ValueError(f"need K >= 4k + 1 = {4 * k + 1} sets, got {kk}")
    bounds = triple.totals / (k + 1)
    values = triple.values
    survivors = values[:, 0] <= bounds[0]
    survivors &= values[:, 1] <= bounds[1]
    want = kk - 3 * k
    if np.count_nonzero(survivors) > want:  # else rounding let over 2k sets be dropped
        third = values[:, 2][survivors]
        third.partition(want - 1)
        cut = third[want - 1]
        del third  # the masks below need no copy of a column
        keep = values[:, 2] < cut
        keep &= survivors
        tied = survivors  # reused: from here on, the survivors at the cut
        tied &= values[:, 2] == cut
        keep[np.flatnonzero(tied)[: want - np.count_nonzero(keep)]] = True
        survivors = keep
    survivors &= values[:, 2] <= bounds[2]  # drops a set only where a sum tops its total
    if np.count_nonzero(survivors) <= k:
        raise ValueError(f"fewer than k + 1 = {k + 1} sets meet the bounds of these totals")
    return np.flatnonzero(survivors).tolist()


def brute_force_verify(triple, k, selection):
    """True iff the selection names >= k + 1 distinct sets, all meeting the bounds.

    ``selection`` is any iterable of set indices; an index outside
    0 .. K - 1 makes it False.
    """
    if not isinstance(selection, (list, tuple, np.ndarray)):
        selection = list(selection)  # an iterator or a set
    idx = np.asarray(selection)
    if len(idx) < k + 1:
        return False
    if idx.min() < 0 or idx.max() >= triple.k_sets:
        return False
    chosen = np.zeros(triple.k_sets, dtype=bool)
    chosen[idx] = True
    del idx  # the mask alone is kept through the column checks
    if np.count_nonzero(chosen) < k + 1:  # a set named twice counts once
        return False
    bounds = triple.totals / (k + 1)
    for j in range(3):  # one column at a time
        over = triple.values[:, j] > bounds[j]
        over &= chosen
        if over.any():
            return False
    return True
