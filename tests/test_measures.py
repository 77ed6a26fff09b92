import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from densilab import MeasureTriple, brute_force_verify, select_small_sets

import oracles


def _triple(values, totals=None):
    values = np.asarray(values, dtype=float)
    if totals is None:
        totals = values.sum(axis=0)
    return MeasureTriple(values=values, totals=np.asarray(totals, dtype=float))


def test_all_zero_measures_select_anything():
    t = _triple(np.zeros((5, 3)), totals=np.ones(3))
    sel = select_small_sets(t, 1)
    assert len(sel) >= 2
    assert brute_force_verify(t, 1, sel)


def test_single_violator_is_excluded():
    # nu_1 gives index 0 more than total/2; the other measures are uniform
    v = np.column_stack([
        [0.6, 0.1, 0.1, 0.1, 0.1],
        [0.1] * 5,
        [0.1] * 5,
    ])
    t = _triple(v, totals=[1.0, 1.0, 1.0])
    sel = select_small_sets(t, 1)
    assert 0 not in sel
    assert len(sel) == 2 and set(sel) <= {1, 2, 3, 4}
    assert brute_force_verify(t, 1, sel)


def test_requires_enough_sets():
    t = _triple(np.zeros((4, 3)), totals=np.ones(3))
    with pytest.raises(ValueError, match="4k"):
        select_small_sets(t, 1)
    with pytest.raises(ValueError, match="k must"):
        select_small_sets(_triple(np.zeros((5, 3)), np.ones(3)), 0)


def test_brute_force_verify_cases():
    v = np.column_stack([
        [0.6, 0.1, 0.1, 0.1, 0.1],
        [0.1] * 5,
        [0.1] * 5,
    ])
    t = _triple(v, totals=[1.0, 1.0, 1.0])
    assert brute_force_verify(t, 1, [1, 2])
    assert not brute_force_verify(t, 1, [0, 1])   # contains the violator
    assert not brute_force_verify(t, 1, [])       # size below k + 1
    assert not brute_force_verify(t, 1, [3])
    assert not brute_force_verify(t, 1, [1, 1])   # one set named twice
    assert not brute_force_verify(t, 1, [1, -1])  # -1 names no set
    assert not brute_force_verify(t, 1, [1, 5])   # nor does K
    assert brute_force_verify(t, 1, [2, 1, 2])    # two sets, each counted once
    assert brute_force_verify(t, 1, iter((3, 4)))
    assert brute_force_verify(t, 1, {1, 4})


def test_selection_allocates_no_k_sized_copies():
    # K = 4 * 2^14 + 1: the returned list of k + 1 ints is most of the peak;
    # one (K,) float copy is 0.5 MB and the parent's index arrays were 1.9 MB
    k = 2 ** 14
    t = MeasureTriple.random(k, np.random.default_rng(0))

    def select_and_verify():
        return brute_force_verify(t, k, select_small_sets(t, k))

    assert select_and_verify()
    tracemalloc.start()
    try:
        assert select_and_verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_ties_at_bound_count_as_small():
    # values exactly at total/(k+1) satisfy the non-strict bound
    v = np.full((5, 3), 0.5)
    t = _triple(v, totals=[2.5, 2.5, 2.5])
    sel = select_small_sets(t, 1)
    assert len(sel) == 2
    assert brute_force_verify(t, 1, sel)


def test_selection_is_deterministic():
    rng = np.random.default_rng(42)
    t = MeasureTriple.random(3, rng)
    assert select_small_sets(t, 3) == select_small_sets(t, 3)


def test_invariant_violator_counts():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        t = MeasureTriple.random(k, rng)
        bounds = t.totals / (k + 1)
        # pigeonhole: at most k sets exceed a 1/(k+1) share per measure
        assert np.all((t.values > bounds).sum(axis=0) <= k)
        sel = select_small_sets(t, k)
        assert len(sel) >= k + 1
        assert brute_force_verify(t, k, sel)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=0, max_value=2 ** 31))
def test_exhaustive_cross_check_small_instances(k, seed):
    # K = 4k + 1 <= 9: compare against enumeration of all (k+1)-subsets
    rng = np.random.default_rng(seed)
    t = MeasureTriple.random(k, rng)
    sel = select_small_sets(t, k)
    assert brute_force_verify(t, k, sel)
    exists = any(brute_force_verify(t, k, list(sub))
                 for sub in combinations(range(t.k_sets), k + 1))
    assert exists


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_selection_matches_the_sorting_reference(k, data):
    # the partition must keep exactly the sets a full sort keeps; values rounded
    # to one decimal put ties at the cut, in the bounds and in measure 3
    kk = data.draw(st.integers(min_value=4 * k + 1, max_value=8 * k + 3), label="K")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    values = rng.uniform(size=(kk, 3))
    if data.draw(st.booleans(), label="rounded"):
        values = np.round(values, 1)
    totals = values.sum(axis=0) / rng.uniform(0.2, 1.0, size=3)
    t = MeasureTriple(values=values, totals=totals)
    assert select_small_sets(t, k) == oracles.select_small_sets_lexsort(t, k)


@pytest.mark.parametrize("rounded", [False, True])
def test_selection_matches_the_sorting_reference_at_benchmark_size(rounded):
    k = 2 ** 14
    t = MeasureTriple.random(k, np.random.default_rng(7))
    if rounded:
        t = MeasureTriple(values=np.round(t.values, 1), totals=t.totals)
    assert t.k_sets == 4 * k + 1
    sel = select_small_sets(t, k)
    assert sel == oracles.select_small_sets_lexsort(t, k)
    assert all(type(i) is int for i in sel[:3])


def _over(k, kk):
    # k + 1 sets at (1 + 1e-13) / (k + 1) per measure, inside MeasureTriple's
    # 1e-12 slack of the totals (1, 1, 1); the remaining sets are 0
    values = np.zeros((kk, 3))
    for j in range(3):
        values[j * (k + 1):(j + 1) * (k + 1), j] = (1 + 1e-13) / (k + 1)
    return _triple(values, totals=np.ones(3))


@pytest.mark.parametrize("k, kk, selected", [(1, 5, [4]), (3, 13, [8, 9, 10, 12])],
                         ids=["too-few-survivors", "partition-keeps-violators"])
def test_too_few_small_sets_raise(k, kk, selected):
    # measures 1 and 2 drop k + 1 sets each: K = 5, k = 1 leaves one survivor,
    # fewer than K - 3k; K = 13, k = 3 leaves five, and the K - 3k smallest in
    # measure 3 hold three violators of its bound; ``selected`` is each of those
    t = _over(k, kk)
    assert not brute_force_verify(t, k, selected)
    with pytest.raises(ValueError, match=rf"fewer than k \+ 1 = {k + 1} sets"):
        select_small_sets(t, k)


def test_totals_validation():
    with pytest.raises(ValueError, match="exceed"):
        _triple(np.ones((5, 3)), totals=[1.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="nonnegative"):
        _triple(-np.ones((5, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        _triple(np.where(np.eye(5, 3) == 1, np.nan, 0.1), totals=np.ones(3))
    with pytest.raises(ValueError, match=r"\(K, 3\)"):
        MeasureTriple(values=np.ones((5, 2)), totals=np.full(3, 5.0))


def test_csv_loading(tmp_path):
    path = tmp_path / "triple.csv"
    rows = np.array([[0.1, 0.2, 0.3]] * 5)
    np.savetxt(path, rows, delimiter=",")
    t = MeasureTriple.from_csv(path)
    assert t.k_sets == 5
    assert np.allclose(t.totals, [0.5, 1.0, 1.5])
    sel = select_small_sets(t, 1)
    assert brute_force_verify(t, 1, sel)
