"""Row-echelon linear algebra over the prime field F_p.

One routine does all elimination: `Echelon` keeps a reduced row-echelon
basis and grows it one vector at a time.  `rref`, `FpSubspace` and the
submodule closure all go through it.  Arithmetic is in int64; finished
bases are stored as int8 rows.
"""

from __future__ import annotations

import bisect

import numpy as np

from .trees import to_digits


def _inv_mod(x: int, p: int) -> int:
    return pow(int(x), p - 2, p)


def _reduce(rows: np.ndarray, pivots: list[int], vec, p: int) -> np.ndarray:
    """Residue of vec (or of each row of a matrix) against RREF rows: the
    coefficient of row i is the entry at pivot i, so the residue is one
    product (in int64)."""
    v = np.asarray(vec, dtype=np.int64) % p
    if pivots:
        v = (v - v[..., pivots] @ rows) % p
    return v


class Echelon:
    """Reduced row-echelon basis of a growing subspace of F_p^d.

    Rows are int64 and in pivot order; each row is 1 at its own pivot and
    0 at every other pivot, so after every insertion the rows are the
    canonical RREF of their span.
    """

    __slots__ = ("p", "rows", "pivots")

    def __init__(self, p: int, ambient: int, rows=None, pivots=()):
        self.p = p
        self.rows = (np.zeros((0, ambient), dtype=np.int64) if rows is None
                     else np.array(rows, dtype=np.int64))
        self.pivots = list(pivots)

    def reduce(self, vec) -> np.ndarray:
        return _reduce(self.rows, self.pivots, vec, self.p)

    def insert(self, res: np.ndarray) -> None:
        """Insert a nonzero residue returned by reduce: scale it to 1 at its
        leading column c, clear c from the other rows, keep pivot order."""
        p = self.p
        c = int(res.nonzero()[0][0])
        res = res * _inv_mod(res[c], p) % p
        rows, col = self.rows, self.rows[:, c:c + 1]
        if col.any():
            rows = (rows - col * res) % p
        k = bisect.bisect(self.pivots, c)
        self.rows = np.concatenate([rows[:k], res[None], rows[k:]])
        self.pivots.insert(k, c)

    def add(self, vec) -> None:
        """Reduce vec and insert the residue if it is nonzero."""
        res = self.reduce(vec)
        if res.any():
            self.insert(res)

    def subspace(self) -> "FpSubspace":
        return FpSubspace._canonical(self.p, self.rows.astype(np.int8),
                                     list(self.pivots))


def rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = np.array(rows, dtype=np.int64) % p
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    ech = Echelon(p, mat.shape[1])
    for row in mat:
        ech.add(row)
    return ech.rows.astype(np.int8), ech.pivots


class FpSubspace:
    """Subspace of F_p^d held in canonical reduced row-echelon form."""

    __slots__ = ("p", "ambient", "rows", "pivots", "_key")

    def __init__(self, p: int, ambient: int, rows=None):
        self.p = p
        self.ambient = ambient
        if rows is None or len(rows) == 0:
            self.rows = np.zeros((0, ambient), dtype=np.int8)
            self.pivots = []
        else:
            self.rows, self.pivots = rref(np.asarray(rows), p)
            if self.rows.shape[1] != ambient:
                raise ValueError("row length does not match ambient dimension")
        self._key = None

    @classmethod
    def _canonical(cls, p: int, rows: np.ndarray,
                   pivots: list[int]) -> "FpSubspace":
        """Wrap int8 rows that are already in RREF."""
        out = cls.__new__(cls)
        out.p, out.ambient = p, rows.shape[1]
        out.rows, out.pivots, out._key = rows, pivots, None
        return out

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    def key(self) -> bytes:
        if self._key is None:
            self._key = self.rows.tobytes()
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, FpSubspace) and self.p == other.p
                and self.ambient == other.ambient and self.key() == other.key())

    def __hash__(self) -> int:
        return hash((self.p, self.ambient, self.key()))

    def __repr__(self) -> str:
        return f"FpSubspace(p={self.p}, ambient={self.ambient}, dim={self.dim})"

    def echelon(self) -> Echelon:
        """A mutable copy of the basis, to grow without changing self."""
        return Echelon(self.p, self.ambient, self.rows, self.pivots)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Residue of vec after elimination against the echelon basis."""
        return _reduce(self.rows, self.pivots, vec, self.p)

    def contains_vector(self, vec) -> bool:
        return not self.reduce(vec).any()

    def contains(self, other: "FpSubspace") -> bool:
        return all(self.contains_vector(r) for r in other.rows)

    def with_vectors(self, vecs) -> "FpSubspace":
        ech = self.echelon()
        for vec in np.atleast_2d(np.asarray(vecs)):
            ech.add(vec)
        return ech.subspace()

    def sum_with(self, other: "FpSubspace") -> "FpSubspace":
        return self.with_vectors(other.rows) if other.dim else self

    def basis_digits(self) -> list[str]:
        return [to_digits(row) for row in self.rows]


def zero_subspace(p: int, ambient: int) -> FpSubspace:
    return FpSubspace(p, ambient)


def full_space(p: int, ambient: int) -> FpSubspace:
    return FpSubspace(p, ambient, np.eye(ambient, dtype=np.int8))


def matrix_rank(rows, p: int) -> int:
    return rref(np.asarray(rows), p)[0].shape[0]
