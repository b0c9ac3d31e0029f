import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.linalg import (Echelon, FpSubspace, full_space, matrix_rank,
                                 rref, zero_subspace)


def reference_rref(rows, p):
    """Column-by-column Gauss-Jordan elimination of the whole matrix, the
    earlier implementation of rref, kept as the reference."""
    mat = np.array(rows, dtype=np.int64) % p
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    nrows, ncols = mat.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(mat[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            mat[[r, k]] = mat[[k, r]]
        mat[r] = (mat[r] * pow(int(mat[r, c]), p - 2, p)) % p
        for i in np.nonzero(mat[:, c])[0]:
            if i != r:
                mat[i] = (mat[i] - mat[i, c] * mat[r]) % p
        pivots.append(c)
        r += 1
    return mat[:r].astype(np.int8), pivots


@st.composite
def matrices(draw):
    """(p, rows): up to 8 rows of length 1..8 over F_p, biased towards
    dependent rows so that insertions that change nothing occur."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    ncols = draw(st.integers(1, 8))
    row = st.lists(st.integers(0, p - 1), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(st.integers(1, p - 1))
        rows.append([(c * x + y) % p for x, y in zip(rows[0], rows[1])])
    return p, np.array(rows, dtype=np.int64)


def test_rref_canonical():
    rows, pivots = rref(np.array([[2, 0, 2], [1, 1, 0]]), 3)
    assert pivots == [0, 1]
    assert np.array_equal(rows[:, :2], np.eye(2))


def test_rref_dependent_rows():
    rows, pivots = rref(np.array([[1, 2], [2, 4]]), 5)
    assert rows.shape == (1, 2) and pivots == [0]


def test_subspace_membership():
    s = FpSubspace(3, 3, [[1, 1, 0], [0, 0, 1]])
    assert s.dim == 2
    assert s.contains_vector([2, 2, 1])
    assert not s.contains_vector([1, 0, 0])


def test_subspace_canonical_equality():
    a = FpSubspace(5, 3, [[1, 2, 3], [0, 1, 4]])
    b = FpSubspace(5, 3, [[2, 4, 1], [1, 3, 2]])  # same row space
    assert a == b and hash(a) == hash(b)


def test_sum_and_containment():
    a = FpSubspace(3, 4, [[1, 0, 0, 0]])
    b = FpSubspace(3, 4, [[0, 1, 0, 0]])
    s = a.sum_with(b)
    assert s.dim == 2 and s.contains(a) and s.contains(b)
    assert not a.contains(s)


def test_zero_and_full():
    z = zero_subspace(3, 4)
    f = full_space(3, 4)
    assert z.dim == 0 and f.dim == 4
    assert f.contains(z)
    assert matrix_rank(np.eye(4), 3) == 4


def test_reduce_is_idempotent():
    s = FpSubspace(7, 5, [[1, 2, 3, 4, 5], [0, 1, 1, 1, 1]])
    v = np.array([3, 4, 5, 6, 0])
    r = s.reduce(v)
    assert np.array_equal(s.reduce(r), r)
    assert s.contains_vector((v - r) % 7)


def test_basis_digits():
    s = FpSubspace(3, 3, [[1, 2, 0]])
    assert s.basis_digits() == ["120"]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_insertion_matches_reference_rref(case):
    p, mat = case
    ref_rows, ref_pivots = reference_rref(mat, p)
    ech = Echelon(p, mat.shape[1])
    space = zero_subspace(p, mat.shape[1])
    for row in mat:
        ech.add(row)
        space = space.with_vectors(row)
    rows, pivots = rref(mat, p)
    grown = ech.subspace()
    for got_rows, got_pivots in ((grown.rows, grown.pivots), (rows, pivots),
                                 (space.rows, space.pivots)):
        assert got_pivots == ref_pivots
        assert np.array_equal(got_rows, ref_rows)
    assert rows.dtype == np.int8 and space.rows.dtype == np.int8
    assert space.key() == ref_rows.tobytes()
    assert FpSubspace(p, mat.shape[1], mat).key() == ref_rows.tobytes()


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_reduce_idempotent_and_zero_at_pivots(case, data):
    p, mat = case
    space = FpSubspace(p, mat.shape[1], mat)
    vec = np.array(data.draw(st.lists(st.integers(-2 * p, 2 * p),
                                      min_size=mat.shape[1],
                                      max_size=mat.shape[1])))
    res = space.reduce(vec)
    assert res.dtype == np.int64
    assert not res[space.pivots].any()
    assert np.array_equal(space.reduce(res), res)
    assert space.contains_vector((vec - res) % p)


def test_reduce_does_not_wrap_at_large_p():
    # int8 products of entries near p would wrap around for p >= 13
    p = 67
    s = FpSubspace(p, 3, [[1, 0, 66], [0, 1, 65]])
    v = np.array([66, 66, 0])
    assert not s.reduce(v)[:2].any()
    assert s.reduce(v)[2] == (-(66 * 66) - 66 * 65) % p
