"""Row-echelon linear algebra over the prime field F_p.

One routine does all elimination: `Echelon` holds a stack of n reduced
row-echelon bases of subspaces of F_p^d, each as a square pivot-indexed
(d, d) int64 matrix.  Row c of a basis is its vector with pivot c (1 at
c, 0 at every other pivot) and is zero when c is not a pivot, so the
pivots are the nonzero diagonal entries, reducing vectors is the one
batched product (V - V @ R) % p, and inserting a residue with pivot c is
one batched scale-and-clear.  `rref`, `FpSubspace` and the submodule
closure all go through it, a single basis as a stack of one.  Finished
bases are stored as int8 rows in pivot order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .trees import to_digits


@lru_cache(maxsize=None)
def _inverses(p: int) -> np.ndarray:
    """x -> x^-1 mod p as a lookup table (0 maps to 0); read-only, as the
    cache shares it."""
    table = np.array([pow(x, p - 2, p) for x in range(p)], dtype=np.int64)
    table.flags.writeable = False
    return table


class Echelon:
    """A stack of reduced row-echelon bases of subspaces of F_p^d, held in
    `bases` as an (n, d, d) int64 array of square pivot-indexed matrices.

    Every insertion keeps each basis the canonical RREF of its span:
    `subspace(k)` reads basis k's rows and pivots off its diagonal.
    """

    __slots__ = ("p", "bases")

    def __init__(self, p: int, ambient: int, n: int = 1):
        """A stack of n zero subspaces of F_p^ambient."""
        self.p = p
        self.bases = np.zeros((n, ambient, ambient), dtype=np.int64)

    def take(self, which) -> "Echelon":
        """The bases selected by an index or mask, as a new stack."""
        out = Echelon(self.p, 0, 0)
        out.bases = self.bases[which]
        return out

    def reduce(self, vecs) -> np.ndarray:
        """Residues against the bases: of one vector per basis, shape (n, d);
        of m vectors per basis, shape (n, m, d); or of one vector against
        every basis, shape (d,), giving (n, d).  The coefficient of row c is
        the vector's entry at c and rows off the pivots are zero, so each
        residue is the one product (V - V @ R) % p (in int64)."""
        v = np.asarray(vecs, dtype=np.int64) % self.p
        if v.ndim == 2:
            return (v - (v[:, None] @ self.bases)[:, 0]) % self.p
        return (v - v @ self.bases) % self.p

    def insert(self, res: np.ndarray) -> None:
        """Insert each nonzero row of res, shape (n, d), a residue returned by
        reduce, into its own basis: scale it to 1 at its leading column c,
        clear c from the basis's other rows and store it as row c.  A zero
        row leaves its basis unchanged."""
        p = self.p
        which = np.flatnonzero(res.any(axis=1))
        if not which.size:
            return
        every = which.size == len(self.bases)
        rows = res if every else res[which]
        idx = np.arange(which.size)
        lead = (rows != 0).argmax(axis=1)
        rows = rows * _inverses(p)[rows[idx, lead]][:, None] % p
        bases = self.bases if every else self.bases[which]
        bases -= bases[idx, :, lead][:, :, None] * rows[:, None, :]
        bases %= p
        bases[idx, lead] = rows
        if not every:
            self.bases[which] = bases

    def add(self, vecs) -> None:
        """Reduce one vector per basis, shape (n, d), or one vector against
        every basis, shape (d,), and insert the nonzero residues."""
        self.insert(self.reduce(vecs))

    def add_span(self, vecs) -> None:
        """Grow a stack of one by the span of the rows of vecs, shape (m, d).

        The rows are reduced in one product; then the first nonzero residue
        is inserted, with pivot c, and the others stay reduced after one
        rank-one update: subtracting their entry at c times the new row
        clears c and leaves the old pivots zero, where the new row is zero.
        """
        rows = self.reduce(np.atleast_2d(np.asarray(vecs))[None])[0]
        while len(rows := rows[rows.any(axis=1)]):
            c = (rows[0] != 0).argmax()
            self.insert(rows[:1])
            rows = (rows[1:] - rows[1:, c, None] * self.bases[0, c]) % self.p

    def subspace(self, k: int = 0) -> "FpSubspace":
        """Basis k as an FpSubspace (int8 rows in pivot order)."""
        basis = self.bases[k]
        pivots = np.flatnonzero(basis.diagonal()).tolist()
        return FpSubspace._canonical(self.p, basis[pivots].astype(np.int8),
                                     pivots)


def rref(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    mat = np.atleast_2d(np.asarray(rows))
    ech = Echelon(p, mat.shape[1])
    ech.add_span(mat)
    space = ech.subspace()
    return space.rows, space.pivots


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
        """A mutable copy of the basis as a stack of one, to grow without
        changing self."""
        ech = Echelon(self.p, self.ambient)
        ech.bases[0, self.pivots] = self.rows
        return ech

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Residue of a vector (or of each row of a matrix) after elimination
        against the echelon basis: the coefficient of each row is the
        vector's entry at its pivot."""
        v = np.asarray(vec, dtype=np.int64) % self.p
        return (v - v.take(self.pivots, axis=-1) @ self.rows) % self.p

    def contains_vector(self, vec) -> bool:
        return not self.reduce(vec).any()

    def contains(self, other: "FpSubspace") -> bool:
        return not self.reduce(other.rows).any()

    def with_vectors(self, vecs) -> "FpSubspace":
        ech = self.echelon()
        ech.add_span(vecs)
        return ech.subspace()

    def sum_with(self, other: "FpSubspace") -> "FpSubspace":
        return self.with_vectors(other.rows) if other.dim else self

    def basis_digits(self) -> list[str]:
        return [to_digits(row) for row in self.rows]


def full_space(p: int, ambient: int) -> FpSubspace:
    return FpSubspace(p, ambient, np.eye(ambient, dtype=np.int8))


def matrix_rank(rows, p: int) -> int:
    return rref(np.asarray(rows), p)[0].shape[0]
