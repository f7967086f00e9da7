import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import lvalue_grid
from patrm.linkfns import (
    ALL_KINDS,
    DELTA,
    LinkKind,
    branch_count,
    encoded_lvalues,
    link_eval,
    link_solve,
    solve_branch_grid,
)

kinds = st.sampled_from(ALL_KINDS)


def test_eval_examples():
    assert link_eval(LinkKind.TOEPLITZ, 5, 1, 3) == 2
    assert link_eval(LinkKind.WIGNER, 5, 2, 0) == (0, 2)
    assert link_eval(LinkKind.REVERSE_CIRCULANT, 6, 3, 4) == 1
    assert link_eval(LinkKind.SYMMETRIC_CIRCULANT, 10, 0, 8) == 2


def test_eval_range_errors():
    with pytest.raises(ValueError):
        link_eval(LinkKind.TOEPLITZ, 5, 5, 0)
    with pytest.raises(ValueError):
        link_eval(LinkKind.TOEPLITZ, 5, 0, -1)
    with pytest.raises(ValueError):
        link_solve(LinkKind.TOEPLITZ, 5, 9, 1)


def test_solve_examples():
    assert link_solve(LinkKind.TOEPLITZ, 10, 4, 3) == {1, 7}
    assert link_solve(LinkKind.HANKEL, 10, 4, 25) == set()
    assert link_solve(LinkKind.WIGNER, 10, 3, (1, 3)) == {1}
    # scan oracle for the reverse circulant case
    expected = {x for x in range(6) if (4 + x) % 6 == 3}
    assert link_solve(LinkKind.REVERSE_CIRCULANT, 6, 4, 3) == expected


@given(kinds, st.integers(1, 64), st.data())
def test_eval_symmetry(kind, n, data):
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    assert link_eval(kind, n, i, j) == link_eval(kind, n, j, i)


@given(kinds, st.integers(1, 32), st.data())
def test_solve_eval_consistency_and_property_b(kind, n, data):
    prev = data.draw(st.integers(0, n - 1))
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    target = link_eval(kind, n, i, j)
    sols = link_solve(kind, n, prev, target)
    assert len(sols) <= DELTA[kind]
    exhaustive = {x for x in range(n) if link_eval(kind, n, prev, x) == target}
    assert sols == exhaustive


@given(kinds, st.integers(2, 24))
def test_solve_covers_every_target_exhaustively(kind, n):
    for prev in range(n):
        targets = {link_eval(kind, n, prev, x) for x in range(n)}
        for t in targets:
            sols = link_solve(kind, n, prev, t)
            assert sols == {x for x in range(n) if link_eval(kind, n, prev, x) == t}
            assert 1 <= len(sols) <= DELTA[kind]


def _property_p_count(kind, n):
    """max over column pairs i != j of #{rows k : L(k, i) = L(k, j)}."""
    v = np.arange(n)
    keys = lvalue_grid(kind.char, n, v[:, None], v[None, :])
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
    n = 17
    enc = encoded_lvalues(kind, n)
    for i in range(n):
        for j in range(n):
            same = enc[i, j] == enc
            for a in range(n):
                for b in range(n):
                    want = link_eval(kind, n, i, j) == link_eval(kind, n, a, b)
                    assert bool(same[a, b]) == want
            break  # one row per i is plenty
        if i > 4:
            break


@given(kinds, st.integers(2, 20), st.data())
def test_solve_branches_partition_solutions(kind, n, data):
    prev = data.draw(st.integers(0, n - 1))
    fa = data.draw(st.integers(0, n - 1))
    fb = data.draw(st.integers(0, n - 1))
    target = link_eval(kind, n, fa, fb)
    found = []
    for br in range(branch_count(kind)):
        x, valid = solve_branch_grid(
            kind, n, np.asarray(prev), np.asarray(fa), np.asarray(fb), br
        )
        if bool(np.asarray(valid)):
            found.append(int(np.asarray(x)))
    assert sorted(found) == sorted(link_solve(kind, n, prev, target))
