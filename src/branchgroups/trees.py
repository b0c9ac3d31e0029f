"""Exact arithmetic for automorphisms of the truncated p-adic tree.

Everything here lives in the Sylow pro-p subgroup of Aut T: each vertex
label is a power a^e of the rooted cycle a = (1 2 ... p).  A depth-n
portrait stores those exponents for the vertices of levels 0..n-1, in
breadth-lex order, together with the induced permutation of the same
vertices, as label positions: entry i is the label position of the image
of the vertex at position i, so entry 0 (the root) is 0.  Composition is
then two gathers and one addition instead of a tree walk; the level-n
images follow from the level-(n-1) ones and the last labels, and are
computed on demand.

Conventions, fixed once and used everywhere downstream:

  * vertices are words over {1,...,p}; the root is the empty word ();
  * vertex order is breadth-lex, the leftmost level-m vertex 1...1 has
    local index 0;
  * automorphisms act on the right, u^(fg) = (u^f)^g, and labels
    compose as eps_{fg}(u) = eps_f(u) + eps_g(u^f) mod p.

Portraits are immutable values; all operations return new objects.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

Vertex = tuple[int, ...]

_LABEL_DTYPE = np.int8
_PERM_DTYPE = np.int32

# Composition adds two int8 labels, so 2(p - 1) <= 127; digit strings
# spend one symbol of DIGITS per label, and 62 symbols also cover p <= 61.
MAX_PRIME = 61
DIGITS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int, odd: bool = False) -> int:
    """Validate a prime parameter; odd=True additionally rejects p=2.  The
    range comes first, so trial division never sees a huge p."""
    if isinstance(p, int) and p > MAX_PRIME:
        raise ValueError(f"p = {p} is outside the supported range "
                         f"p <= {MAX_PRIME}")
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if odd and p == 2:
        raise ValueError("p must be an odd prime for this construction")
    return p


def to_digits(labels) -> str:
    """Label values in 0..p-1 as one DIGITS symbol each."""
    return "".join(DIGITS[int(x)] for x in labels)


class ResourceGuardError(RuntimeError):
    """A configured computation cap was exceeded."""


# Most labels (vertices of levels 0..depth-1) a portrait may hold: depth
# 20 at p = 2, 13 at p = 3, 4 at p = 61
MAX_TREE_LABELS = 2**20


def check_depth(p: int, depth: int) -> None:
    """Raise ResourceGuardError when a depth-`depth` portrait over p would
    hold more than MAX_TREE_LABELS labels; the levels are counted one at a
    time, so a huge depth costs no more than the levels below the limit."""
    labels, level = 0, 1
    for _ in range(depth):
        labels, level = labels + level, level * p
        if labels > MAX_TREE_LABELS:
            raise ResourceGuardError(
                f"a depth-{depth} tree at p = {p} has more than "
                f"{MAX_TREE_LABELS} vertex labels")


@lru_cache(maxsize=None)
class _Tables:
    """Static index tables shared by all portraits of one (p, depth)."""

    def __init__(self, p: int, depth: int):
        check_depth(p, depth)
        self.p = p
        self.depth = depth
        # label positions, and so perm entries, cover levels 0..depth-1
        self.label_off = [0]
        for m in range(depth):
            self.label_off.append(self.label_off[-1] + p**m)
        self.nlabels = self.label_off[-1]
        # the identity's perm
        self.ident = np.arange(self.nlabels, dtype=_PERM_DTYPE)
        # helpers for building perms level by level from labels
        self.tiled_x = [
            np.tile(np.arange(p, dtype=_PERM_DTYPE), p**m) for m in range(depth)
        ]

    # hashable-by-identity is what lru_cache on the class gives us
    def label_slice(self, m: int) -> slice:
        return slice(self.label_off[m], self.label_off[m + 1])


def compose_rows(t: _Tables, a_lab: np.ndarray, a_perm: np.ndarray,
                 b_lab: np.ndarray, b_perm: np.ndarray,
                 b_rows: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of a * b (first a, then b) for depth >= 1.

    Each factor is one portrait (1-D lab and perm) or a stack of them (2-D,
    one portrait per row).  Two stacks multiply row by row, and a single
    portrait multiplies every row of the other factor; with b_rows, row r
    of a is multiplied by row b_rows[r] of the stack b.  The results are
    new arrays.
    """
    # b's labels and perm at the images of a's vertices; a stack is read by
    # flat gathers, one row offset per row
    idx = a_perm
    if b_lab.ndim == 2:
        rows = np.arange(len(b_lab)) if b_rows is None else b_rows
        idx = a_perm + (rows * t.nlabels)[:, None]
    lab = b_lab.ravel()[idx]
    lab += a_lab
    lab %= t.p
    return lab, b_perm.ravel()[idx]


def inverse_rows(t: _Tables, lab: np.ndarray, perm: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of the inverse for depth >= 1, of one portrait (1-D
    lab and perm) or of every row of a stack (2-D); new arrays.

    The inverse perm is one scatter of the identity's through perm, and the
    inverse's label at u is minus the label at u's inverse image.
    """
    off = np.arange(len(lab))[:, None] * t.nlabels if lab.ndim == 2 else 0
    inv = np.empty(perm.shape, dtype=_PERM_DTYPE)
    inv.ravel()[perm + off] = t.ident
    out = lab.ravel()[inv + off]
    np.negative(out, out=out)
    out %= t.p
    return out, inv


def power_rows(t: _Tables, lab: np.ndarray, perm: np.ndarray, e: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of the e-th power (e >= 0) for depth >= 1, of one
    portrait (1-D lab and perm) or of every row of a stack (2-D), by
    square-and-multiply; new arrays."""
    result = (np.zeros_like(lab), np.broadcast_to(t.ident, perm.shape).copy())
    while e:
        if e & 1:
            result = compose_rows(t, *result, lab, perm)
        e >>= 1
        if e:
            lab, perm = compose_rows(t, lab, perm, lab, perm)
    return result


def commutator_rows(t: _Tables, x_lab: np.ndarray, x_perm: np.ndarray,
                    y_lab: np.ndarray, y_perm: np.ndarray,
                    i: np.ndarray | None = None, j: np.ndarray | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of [x, y] = x^-1 y^-1 x y for depth >= 1: of one
    pair (1-D), of two stacks row by row (2-D), or with index arrays i and
    j, of row i[r] of x with row j[r] of y for every r.  One inverse per
    operand and three products; new arrays."""
    x_inv_lab, x_inv_perm = inverse_rows(t, x_lab, x_perm)
    if i is not None:
        x_inv_lab, x_inv_perm = x_inv_lab[i], x_inv_perm[i]
    rows = compose_rows(t, x_inv_lab, x_inv_perm,
                        *inverse_rows(t, y_lab, y_perm), j)
    rows = compose_rows(t, *rows, x_lab, x_perm, i)
    return compose_rows(t, *rows, y_lab, y_perm, j)


def _next_level(t: _Tables, lab: np.ndarray, upper: np.ndarray,
                m: int) -> np.ndarray:
    """Local images of the level-(m+1) vertices under the portrait with
    labels lab, from the local images upper of the level-m vertices."""
    p = t.p
    lab_m = lab[t.label_slice(m)].astype(_PERM_DTYPE)
    return np.repeat(upper * p, p) + (t.tiled_x[m] + np.repeat(lab_m, p)) % p


@lru_cache(maxsize=None)
def _subtree_positions(p: int, depth: int, level: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Where the subtrees below the level-`level` vertices sit among the
    label positions of depth `depth`.

    Row c of the first table holds the label positions of the subtree below
    the vertex of local index c, in the subtree's own breadth-lex order; the
    second maps every label position on levels >= level to its position in
    its subtree (0 above).  Both are read-only, as the cache shares them."""
    t, sub = _Tables(p, depth), _Tables(p, depth - level)
    pos = np.empty((p**level, sub.nlabels), dtype=np.intp)
    for k in range(sub.depth):
        pos[:, sub.label_slice(k)] = (t.label_off[level + k]
                                      + np.arange(p**level)[:, None] * p**k
                                      + np.arange(p**k))
    local = np.zeros(t.nlabels, dtype=_PERM_DTYPE)
    local[pos] = sub.ident
    pos.flags.writeable = local.flags.writeable = False
    return pos, local


def section_rows(t: _Tables, lab: np.ndarray, perm: np.ndarray, level: int,
                 rows, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of sections, of depth t.depth - level: for every r,
    the section of row rows[r] of the stack (lab, perm) at the
    level-`level` vertex of local index vertices[r]; new arrays.

    The labels are one gather of the subtree's positions; the perm is the
    same gather of the perm, read back through the positions' places in
    their own subtrees (the row may move the vertex)."""
    pos, local = _subtree_positions(t.p, t.depth, level)
    rows, at = np.reshape(rows, (-1, 1)), pos[vertices]
    return lab[rows, at], local[perm[rows, at]]


def embed_rows(t: _Tables, lab: np.ndarray, perm: np.ndarray, level: int,
               rows, vertices) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of depth t.depth: for every r, the element acting as
    row rows[r] of the stack (lab, perm), of depth t.depth - level, below
    the level-`level` vertex of local index vertices[r], and trivially
    elsewhere; new arrays, each the identity's rows with the subtree's
    positions scattered in."""
    pos, _ = _subtree_positions(t.p, t.depth, level)
    at = pos[vertices]
    out = np.arange(len(at))[:, None]
    out_lab = np.zeros((len(at), t.nlabels), dtype=_LABEL_DTYPE)
    out_lab[out, at] = lab[rows]
    out_perm = np.tile(t.ident, (len(at), 1))
    out_perm[out, at] = at[out, perm[rows]]
    return out_lab, out_perm


def parse_vertex(v) -> Vertex:
    """Accept a vertex as a tuple/list of letters or a string with one
    DIGITS symbol per letter (so letter 10 is "a" when p >= 11)."""
    if isinstance(v, str):
        return tuple(DIGITS.index(c) for c in v)
    return tuple(int(c) for c in v)


def vertex_local_index(v: Vertex, p: int) -> int:
    idx = 0
    for x in v:
        if not 1 <= x <= p:
            raise ValueError(f"letter {x} out of range 1..{p}")
        idx = idx * p + (x - 1)
    return idx


def vertex_from_local_index(p: int, level: int, idx: int) -> Vertex:
    letters = []
    for _ in range(level):
        letters.append(idx % p + 1)
        idx //= p
    return tuple(reversed(letters))


class Portrait:
    """A depth-n automorphism of the p-adic tree with labels in <a>."""

    __slots__ = ("p", "depth", "lab", "perm", "_key")

    def __init__(self, p: int, depth: int, lab: np.ndarray, perm: np.ndarray):
        self.p = p
        self.depth = depth
        self.lab = lab
        self.perm = perm
        self._key = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def identity(p: int, depth: int) -> "Portrait":
        t = _Tables(p, depth)
        return Portrait(p, depth, np.zeros(t.nlabels, dtype=_LABEL_DTYPE),
                        t.ident.copy())

    @staticmethod
    def from_labels(p: int, depth: int, lab: np.ndarray) -> "Portrait":
        t = _Tables(p, depth)
        lab = np.asarray(lab, dtype=_LABEL_DTYPE) % p
        if lab.shape != (t.nlabels,):
            raise ValueError(f"expected {t.nlabels} labels, got {lab.shape}")
        upper = t.ident[:1]           # the root's local image; empty at depth 0
        perm = [upper]
        for m in range(depth - 1):
            upper = _next_level(t, lab, upper, m)
            perm.append(upper + t.label_off[m + 1])
        return Portrait(p, depth, lab, np.concatenate(perm))

    @staticmethod
    def from_level_labels(p: int, levels: Sequence) -> "Portrait":
        """Build from per-level label vectors (levels 0..n-1)."""
        depth = len(levels)
        flat = np.concatenate([np.asarray(l).ravel() for l in levels]) if depth \
            else np.zeros(0)
        return Portrait.from_labels(p, depth, flat)

    # -- basic protocol ---------------------------------------------------

    @property
    def tables(self) -> _Tables:
        return _Tables(self.p, self.depth)

    def key(self) -> bytes:
        if self._key is None:
            self._key = self.lab.tobytes()
        return self._key

    def __eq__(self, other) -> bool:
        return (isinstance(other, Portrait) and self.p == other.p
                and self.depth == other.depth and self.key() == other.key())

    def __hash__(self) -> int:
        return hash((self.p, self.depth, self.key()))

    def __repr__(self) -> str:
        return f"Portrait(p={self.p}, depth={self.depth}, labels={self.digits()})"

    def digits(self) -> str:
        """Flat label array in breadth-lex order, one DIGITS symbol per
        label (0-9, then a-z, then A-Z)."""
        return to_digits(self.lab)

    @staticmethod
    def from_digits(p: int, depth: int, digits: str) -> "Portrait":
        """The inverse of digits(); raises ValueError for a letter that is
        not the DIGITS symbol of a label below p."""
        bad = [c for c in digits if c not in DIGITS[:p]]
        if bad:
            raise ValueError(f"{bad[0]!r} is not a label below p = {p}")
        return Portrait.from_labels(
            p, depth, np.array([DIGITS.index(c) for c in digits],
                               dtype=_LABEL_DTYPE))

    def is_identity(self) -> bool:
        return not self.lab.any()

    # -- group operations -------------------------------------------------

    def compose(self, other: "Portrait") -> "Portrait":
        """Right-action composition: first self, then other."""
        if self.p != other.p or self.depth != other.depth:
            raise ValueError("portraits must share p and depth")
        if self.depth == 0:
            return self
        return Portrait(self.p, self.depth,
                        *compose_rows(self.tables, self.lab, self.perm,
                                      other.lab, other.perm))

    def __mul__(self, other: "Portrait") -> "Portrait":
        return self.compose(other)

    def inverse(self) -> "Portrait":
        if self.depth == 0:
            return self
        return Portrait(self.p, self.depth,
                        *inverse_rows(self.tables, self.lab, self.perm))

    def __pow__(self, n: int) -> "Portrait":
        if n < 0:
            return self.inverse() ** (-n)
        if self.depth == 0:
            return self
        return Portrait(self.p, self.depth,
                        *power_rows(self.tables, self.lab, self.perm, n))

    def conjugate(self, g: "Portrait") -> "Portrait":
        """self^g = g^-1 * self * g."""
        return g.inverse() * self * g

    # -- tree geometry ----------------------------------------------------

    def apply_vertex(self, v) -> Vertex:
        v = parse_vertex(v)
        if len(v) > self.depth:
            raise ValueError(f"vertex level {len(v)} exceeds depth {self.depth}")
        if not v:
            return v
        img = int(self.vertex_perm(len(v))[vertex_local_index(v, self.p)])
        return vertex_from_local_index(self.p, len(v), img)

    def vertex_perm(self, m: int) -> np.ndarray:
        """Local images of the level-m vertices, lex order (1 <= m <= depth);
        the deepest level is not stored and is computed here."""
        if not 1 <= m <= self.depth:
            raise ValueError(f"level {m} out of range 1..{self.depth}")
        t = self.tables
        if m < self.depth:
            return self.perm[t.label_slice(m)] - t.label_off[m]
        upper = self.perm[t.label_slice(m - 1)] - t.label_off[m - 1]
        return _next_level(t, self.lab, upper, m - 1)

    def level_labels(self, m: int) -> np.ndarray:
        """Label exponents at the level-m vertices, lex order."""
        if not 0 <= m < self.depth:
            raise ValueError(f"level {m} out of range 0..{self.depth - 1}")
        return self.lab[self.tables.label_slice(m)].copy()

    def in_stab(self, m: int) -> bool:
        """True iff all labels at levels 0..m-1 vanish (fixes level m pointwise)."""
        if m > self.depth:
            raise ValueError(f"level {m} exceeds depth {self.depth}")
        return not self.lab[:self.tables.label_off[min(m, self.depth)]].any()

    def max_stab_level(self) -> int:
        """Largest m with self in St(m); equals depth for the identity."""
        nz = np.nonzero(self.lab)[0]
        if nz.size == 0:
            return self.depth
        first = int(nz[0])
        t = self.tables
        for m in range(self.depth):
            if first < t.label_off[m + 1]:
                return m
        raise AssertionError("unreachable")

    def section(self, v) -> "Portrait":
        """The automorphism induced on the subtree below v (depth - |v|)."""
        v = parse_vertex(v)
        if len(v) > self.depth:
            raise ValueError("vertex deeper than portrait")
        if not v:
            return self
        lab, perm = section_rows(self.tables, self.lab[None], self.perm[None],
                                 len(v), [0], [vertex_local_index(v, self.p)])
        return Portrait(self.p, self.depth - len(v), lab[0], perm[0])


def _stack(elems: Sequence[Portrait], t: _Tables
           ) -> tuple[np.ndarray, np.ndarray]:
    """The labels and perms of elems as new 2-D arrays, one row each."""
    if not elems:
        return (np.empty((0, t.nlabels), dtype=_LABEL_DTYPE),
                np.empty((0, t.nlabels), dtype=_PERM_DTYPE))
    return (np.stack([f.lab for f in elems]),
            np.stack([f.perm for f in elems]))


def _portraits(p: int, depth: int,
               rows: tuple[np.ndarray, np.ndarray]) -> list[Portrait]:
    """One portrait per row of the stack (lab, perm), each with its own
    arrays."""
    lab, perm = rows
    return [Portrait(p, depth, lab[j].copy(), perm[j].copy())
            for j in range(len(lab))]


def _conjugate_rows(t: _Tables, x: tuple[np.ndarray, np.ndarray],
                    g: tuple[np.ndarray, np.ndarray],
                    g_inv: tuple[np.ndarray, np.ndarray]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """x^g = g^-1 x g on (lab, perm) pairs, each one portrait or a stack."""
    return compose_rows(t, *compose_rows(t, *g_inv, *x), *g)


def _commutators(xs: Sequence[Portrait], ys: Sequence[Portrait],
                 i: np.ndarray, j: np.ndarray) -> list[Portrait]:
    """[xs[i[r]], ys[j[r]]] for every r (depth >= 1), formed as stacks."""
    if not len(i):
        return []
    p, depth = xs[0].p, xs[0].depth
    t = _Tables(p, depth)
    return _portraits(p, depth, commutator_rows(t, *_stack(xs, t),
                                                *_stack(ys, t), i, j))


def commutator_seeds(xs: Sequence[Portrait],
                     ys: Sequence[Portrait]) -> list[Portrait]:
    """[x, y] for x in xs for y in ys, x-major (depth >= 1)."""
    i, j = np.indices((len(xs), len(ys))).reshape(2, -1)
    return _commutators(xs, ys, i, j)


def powers_of(xs: Sequence[Portrait], e: int) -> list[Portrait]:
    """x^e (e >= 0) for x in xs (depth >= 1), powering the whole stack at
    once."""
    if not xs:
        return []
    p, depth = xs[0].p, xs[0].depth
    t = _Tables(p, depth)
    return _portraits(p, depth, power_rows(t, *_stack(xs, t), e))


def frattini_seeds(gens: Sequence[Portrait], p: int) -> list[Portrait]:
    """[x_i, x_j] for i < j, then x^p for every generator x (depth >= 1)."""
    i, j = np.triu_indices(len(gens), 1)
    return _commutators(gens, gens, i, j) + powers_of(gens, p)


def rooted_a(p: int, depth: int) -> Portrait:
    """The rooted automorphism a for the p-cycle (1 2 ... p)."""
    check_prime(p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t = _Tables(p, depth)
    lab = np.zeros(t.nlabels, dtype=_LABEL_DTYPE)
    lab[0] = 1
    return Portrait.from_labels(p, depth, lab)


def assemble(root_label: int, sections: Sequence[Portrait]) -> Portrait:
    """Inverse of psi extended by a root label.

    section(result, i) = sections[i-1]; with root_label = 0 this realises
    psi^{-1} on a p-tuple of depth-(n-1) portraits.
    """
    p = len(sections)
    if len({s.depth for s in sections}) != 1 or len({s.p for s in sections}) != 1:
        raise ValueError("sections must share p and depth")
    if sections[0].p != p:
        raise ValueError(f"need exactly p={sections[0].p} sections, got {p}")
    d = sections[0].depth
    levels = [np.array([root_label % p], dtype=_LABEL_DTYPE)]
    ts = _Tables(p, d)
    for m in range(d):
        levels.append(np.concatenate([s.lab[ts.label_slice(m)] for s in sections]))
    return Portrait.from_level_labels(p, levels)


def embed_at_vertex(c: Portrait, v, depth: int) -> Portrait:
    """The depth-`depth` element acting as c on the subtree below v, trivially
    elsewhere; realises a single coordinate of psi_{|v|}^{-1}."""
    v = parse_vertex(v)
    if c.depth != depth - len(v):
        raise ValueError("section depth must equal depth - |v|")
    lab, perm = embed_rows(_Tables(c.p, depth), c.lab[None], c.perm[None],
                           len(v), [0], [vertex_local_index(v, c.p)])
    return Portrait(c.p, depth, lab[0], perm[0])


def commutator(x: Portrait, y: Portrait) -> Portrait:
    """[x, y] = x^-1 y^-1 x y (left-normed convention upstream)."""
    if x.depth == 0:
        return x
    return Portrait(x.p, x.depth, *commutator_rows(x.tables, x.lab, x.perm,
                                                   y.lab, y.perm))


def compose_all(factors: Iterable[Portrait], p: int, depth: int) -> Portrait:
    result = Portrait.identity(p, depth)
    for f in factors:
        result = result * f
    return result
