import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import lvalue_grid
from patrm.linkfns import (
    ALL_KINDS,
    DELTA,
    LinkKind,
    lvalue_key_grid,
    solve_branch_grid,
)

kinds = st.sampled_from(ALL_KINDS)


def _grid(kind, n):
    v = np.arange(n)
    return lvalue_grid(kind.char, n, v[:, None], v[None, :])


def _branch_solutions(kind, n, prev, fa, fb):
    """Solutions found by each branch of solve_branch_grid at one grid cell."""
    found = []
    for br in range(DELTA[kind]):
        x, valid = solve_branch_grid(kind, n, np.asarray(prev), np.asarray(fa), np.asarray(fb), br)
        if bool(np.asarray(valid)):
            found.append(int(np.asarray(x)))
    return found


def _scan(kind, n, prev, fa, fb):
    """Exhaustive solutions of L(prev, x) = L(fa, fb) from the oracle grid."""
    grid = _grid(kind, n)
    return {x for x in range(n) if grid[prev, x] == grid[fa, fb]}


def _keys(kind, n):
    return lvalue_key_grid(kind, n)[1]


def test_eval_examples():
    assert _keys(LinkKind.TOEPLITZ, 5)[1, 3] == 2
    assert _keys(LinkKind.WIGNER, 5)[2, 0] == 2
    assert _keys(LinkKind.REVERSE_CIRCULANT, 6)[3, 4] == 1
    assert _keys(LinkKind.SYMMETRIC_CIRCULANT, 10)[0, 8] == 2


# written out by hand from the link functions, independently of both the
# package and oracles.lvalue_grid
KEY_GRIDS_N4 = {
    LinkKind.WIGNER: [[0, 1, 2, 3], [1, 4, 5, 6], [2, 5, 7, 8], [3, 6, 8, 9]],
    LinkKind.TOEPLITZ: [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]],
    LinkKind.HANKEL: [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]],
    LinkKind.REVERSE_CIRCULANT: [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
    LinkKind.SYMMETRIC_CIRCULANT: [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]],
}


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_key_grid_literal_n4(kind):
    size, keys = lvalue_key_grid(kind, 4)
    assert keys.tolist() == KEY_GRIDS_N4[kind]
    assert size == max(map(max, KEY_GRIDS_N4[kind])) + 1


def test_solve_examples():
    # Toeplitz: |4 - x| = |2 - 5|
    assert sorted(_branch_solutions(LinkKind.TOEPLITZ, 10, 4, 2, 5)) == [1, 7]
    # Hankel: 4 + x = 9 + 9 needs x = 14, outside {0..9}
    assert _branch_solutions(LinkKind.HANKEL, 10, 4, 9, 9) == []
    # Wigner: {3, x} = {1, 3}
    assert _branch_solutions(LinkKind.WIGNER, 10, 3, 1, 3) == [1]
    assert _branch_solutions(LinkKind.WIGNER, 10, 2, 1, 3) == []
    expected = {x for x in range(6) if (4 + x) % 6 == (1 + 2) % 6}
    assert set(_branch_solutions(LinkKind.REVERSE_CIRCULANT, 6, 4, 1, 2)) == expected


@given(kinds, st.integers(1, 64))
def test_eval_symmetry(kind, n):
    enc = _keys(kind, n)
    assert np.array_equal(enc, enc.T)


@given(kinds, st.integers(1, 32), st.data())
def test_solve_eval_consistency_and_property_b(kind, n, data):
    prev = data.draw(st.integers(0, n - 1))
    fa = data.draw(st.integers(0, n - 1))
    fb = data.draw(st.integers(0, n - 1))
    found = _branch_solutions(kind, n, prev, fa, fb)
    assert len(found) <= DELTA[kind]
    assert set(found) == _scan(kind, n, prev, fa, fb)


def test_solve_covers_every_target_exhaustively():
    # every (prev, fa, fb) cell at once: each branch yields only genuine
    # solutions, the branches are disjoint, and together they find them all
    for kind in ALL_KINDS:
        for n in (1, 2, 7, 12):
            grid = _grid(kind, n)
            v = np.arange(n)
            prev, fa, fb = v[:, None, None], v[None, :, None], v[None, None, :]
            target = grid[fa, fb]
            found = np.zeros((n, n, n), dtype=np.int64)
            xs = []
            for br in range(DELTA[kind]):
                x, valid = np.broadcast_arrays(*solve_branch_grid(kind, n, prev, fa, fb, br))
                assert ((x[valid] >= 0) & (x[valid] < n)).all()
                assert (grid[prev, np.clip(x, 0, n - 1)] == target)[valid].all()
                xs.append(np.where(valid, x, -1 - br))
                found += valid
            if len(xs) == 2:
                assert not (xs[0] == xs[1]).any()
            scan = (grid[prev[..., None], v] == target[..., None]).sum(axis=-1)
            assert np.array_equal(found, scan)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_delta_is_the_largest_solution_count(kind):
    # Property B: the solution count of L(p, x) = t is bounded by DELTA
    # uniformly, and the bound is attained
    worst = 0
    for n in range(1, 25):
        grid = _grid(kind, n)
        for row in grid:
            worst = max(worst, int(np.unique(row, return_counts=True)[1].max()))
    assert worst == DELTA[kind]


def _property_p_count(kind, n):
    """max over column pairs i != j of #{rows k : L(k, i) = L(k, j)}."""
    keys = _grid(kind, n)
    ties = (keys[:, :, None] == keys[:, None, :]).sum(axis=0)
    np.fill_diagonal(ties, 0)
    return int(ties.max())


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_property_p_bounded(kind):
    # Property P: the count of rows matching two fixed columns is bounded
    # uniformly in n, and stabilizes with n
    assert _property_p_count(kind, 64) == _property_p_count(kind, 16)
    assert _property_p_count(kind, 64) <= 2


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_encoded_lvalues_match_eval(kind):
    # equal encodings exactly where the oracle's link values are equal
    for n in (1, 2, 16, 17):
        enc = _keys(kind, n).ravel()
        ref = _grid(kind, n).ravel()
        assert np.array_equal(enc[:, None] == enc[None, :], ref[:, None] == ref[None, :])


@given(kinds, st.integers(2, 20), st.data())
def test_solve_branches_partition_solutions(kind, n, data):
    prev = data.draw(st.integers(0, n - 1))
    fa = data.draw(st.integers(0, n - 1))
    fb = data.draw(st.integers(0, n - 1))
    found = _branch_solutions(kind, n, prev, fa, fb)
    assert len(found) == len(set(found))
    assert set(found) == _scan(kind, n, prev, fa, fb)
