"""Exact arithmetic for automorphisms of the truncated p-adic tree.

Everything here lives in the Sylow pro-p subgroup of Aut T: each vertex
label is a power a^e of the rooted cycle a = (1 2 ... p).  A depth-n
portrait stores those exponents for the vertices of levels 0..n-1, in
breadth-lex order, together with the induced permutation of the
vertices of levels 1..n (kept so that composition is a handful of
vectorised gathers instead of a tree walk).

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
    """Validate a prime parameter; odd=True additionally rejects p=2."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")
    if odd and p == 2:
        raise ValueError("p must be an odd prime for this construction")
    if p > MAX_PRIME:
        raise ValueError(f"p = {p} is outside the supported range "
                         f"p <= {MAX_PRIME}")
    return p


def to_digits(labels) -> str:
    """Label values in 0..p-1 as one DIGITS symbol each."""
    return "".join(DIGITS[int(x)] for x in labels)


@lru_cache(maxsize=None)
class _Tables:
    """Static index tables shared by all portraits of one (p, depth)."""

    def __init__(self, p: int, depth: int):
        self.p = p
        self.depth = depth
        # label positions cover levels 0..depth-1, perm positions levels 1..depth
        self.label_off = [0]
        for m in range(depth):
            self.label_off.append(self.label_off[-1] + p**m)
        self.nlabels = self.label_off[-1]
        self.perm_off = [0]
        for m in range(1, depth + 1):
            self.perm_off.append(self.perm_off[-1] + p**m)
        self.nperm = self.perm_off[-1]
        # perm entries of levels 1..depth-1: all that labels of a product read
        self.ninner = max(self.nlabels - 1, 0)

        # per perm position: offset of its level, and the local arange
        prm_off = np.empty(self.nperm, dtype=_PERM_DTYPE)
        local = np.empty(self.nperm, dtype=_PERM_DTYPE)
        for m in range(1, depth + 1):
            lo, hi = self.perm_off[m - 1], self.perm_off[m]
            prm_off[lo:hi] = lo
            local[lo:hi] = np.arange(hi - lo, dtype=_PERM_DTYPE)
        self.prm_off = prm_off
        self.local = local
        # gather target for labels: positions 1..nlabels-1 are levels
        # 1..depth-1 and align with perm positions 0..nlabels-2
        g_lbl = np.empty(max(self.nlabels - 1, 0), dtype=_PERM_DTYPE)
        for m in range(1, depth):
            lo, hi = self.label_off[m], self.label_off[m + 1]
            g_lbl[lo - 1:hi - 1] = lo
        self.g_lbl = g_lbl
        # helpers for building perms level by level from labels
        self.tiled_x = [
            np.tile(np.arange(p, dtype=_PERM_DTYPE), p**m) for m in range(depth)
        ]

    # hashable-by-identity is what lru_cache on the class gives us
    def label_slice(self, m: int) -> slice:
        return slice(self.label_off[m], self.label_off[m + 1])

    def perm_slice(self, m: int) -> slice:
        return slice(self.perm_off[m - 1], self.perm_off[m])


def compose_rows(t: _Tables, a_lab: np.ndarray, a_perm: np.ndarray,
                 b_lab: np.ndarray, b_perm: np.ndarray,
                 b_rows: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Labels and perm of a * b (first a, then b) for depth >= 1.

    Each factor is one portrait (1-D lab and perm) or a stack of them (2-D,
    one portrait per row).  Two stacks multiply row by row, and a single
    portrait multiplies every row of the other factor; with b_rows, row r
    of a is multiplied by row b_rows[r] of the stack b.  a_perm may hold
    only its first k >= nlabels - 1 entries (whole levels): labels read no
    deeper, and the product's perm then has the same k entries.  The
    results are new arrays.
    """
    lbl_idx = t.g_lbl + a_perm[..., :t.nlabels - 1]
    prm_idx = t.prm_off[:a_perm.shape[-1]] + a_perm
    if b_lab.ndim == 1:
        first = b_lab[:1]
        gathered, perm = b_lab[lbl_idx], b_perm[prm_idx]
    else:
        # flat gathers from the C-contiguous stack, one offset per row
        rows = (np.arange(len(b_lab)) if b_rows is None else b_rows)[:, None]
        off = rows * b_lab.shape[1]
        b_flat = b_lab.ravel()
        first, gathered = b_flat[off], b_flat[lbl_idx + off]
        perm = b_perm.ravel()[prm_idx + rows * b_perm.shape[1]]
    lab = np.concatenate([a_lab[..., :1] + first, a_lab[..., 1:] + gathered],
                         axis=-1)
    lab %= t.p
    return lab, perm


def extend_perm(t: _Tables, lab: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The whole perm of the portrait with labels lab, given its first
    levels 1..k (k >= 0) in perm; each further level follows from the one
    above and the labels."""
    p = t.p
    k = t.perm_off.index(len(perm))
    seg = perm[t.perm_slice(k)] if k else np.zeros(1, dtype=_PERM_DTYPE)
    levels = [perm]
    for m in range(k, t.depth):
        lab_m = lab[t.label_slice(m)].astype(_PERM_DTYPE)
        seg = np.repeat(seg * p, p) + (t.tiled_x[m] + np.repeat(lab_m, p)) % p
        levels.append(seg)
    return np.concatenate(levels)


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
                        t.local.copy())

    @staticmethod
    def from_labels(p: int, depth: int, lab: np.ndarray) -> "Portrait":
        t = _Tables(p, depth)
        lab = np.asarray(lab, dtype=_LABEL_DTYPE) % p
        if lab.shape != (t.nlabels,):
            raise ValueError(f"expected {t.nlabels} labels, got {lab.shape}")
        return Portrait(p, depth, lab,
                        extend_perm(t, lab, np.empty(0, dtype=_PERM_DTYPE)))

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
        t = self.tables
        inv = np.empty(t.nperm, dtype=_PERM_DTYPE)
        inv[t.prm_off + self.perm] = t.local
        lab = np.empty(t.nlabels, dtype=_LABEL_DTYPE)
        lab[0] = (-int(self.lab[0])) % self.p
        if t.nlabels > 1:
            lab[1:] = (-self.lab[t.g_lbl + inv[:t.nlabels - 1]]) % self.p
        return Portrait(self.p, self.depth, lab, inv)

    def __pow__(self, n: int) -> "Portrait":
        if n < 0:
            return self.inverse() ** (-n)
        result = Portrait.identity(self.p, self.depth)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def conjugate(self, g: "Portrait", g_inv: "Portrait" | None = None) -> "Portrait":
        """self^g = g^-1 * self * g."""
        if g_inv is None:
            g_inv = g.inverse()
        return g_inv * self * g

    # -- tree geometry ----------------------------------------------------

    def apply_vertex(self, v) -> Vertex:
        v = parse_vertex(v)
        if len(v) > self.depth:
            raise ValueError(f"vertex level {len(v)} exceeds depth {self.depth}")
        if not v:
            return v
        t = self.tables
        idx = vertex_local_index(v, self.p)
        img = int(self.perm[t.perm_off[len(v) - 1] + idx])
        return vertex_from_local_index(self.p, len(v), img)

    def vertex_perm(self, m: int) -> np.ndarray:
        """Local images of the level-m vertices, lex order (1 <= m <= depth)."""
        if not 1 <= m <= self.depth:
            raise ValueError(f"level {m} out of range 1..{self.depth}")
        return self.perm[self.tables.perm_slice(m)]

    def label_at(self, v) -> int:
        v = parse_vertex(v)
        if len(v) >= self.depth:
            raise ValueError("no label stored at this level")
        t = self.tables
        return int(self.lab[t.label_off[len(v)] + vertex_local_index(v, self.p)])

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
        t = self.tables
        idx = vertex_local_index(v, self.p)
        pieces = []
        for k in range(self.depth - len(v)):
            lo = t.label_off[len(v) + k] + idx * self.p**k
            pieces.append(self.lab[lo:lo + self.p**k])
        if not pieces:
            return Portrait.identity(self.p, 0)
        return Portrait.from_labels(self.p, self.depth - len(v),
                                    np.concatenate(pieces))

    def truncate(self, depth: int) -> "Portrait":
        """Quotient map onto the depth-d truncated tree (d <= self.depth)."""
        if depth > self.depth:
            raise ValueError("cannot truncate to a greater depth")
        if depth == self.depth:
            return self
        td = _Tables(self.p, depth)
        return Portrait(self.p, depth, self.lab[:td.nlabels].copy(),
                        self.perm[:td.nperm].copy())


def rooted_a(p: int, depth: int, exponent: int = 1) -> Portrait:
    """The rooted automorphism a^exponent for the p-cycle (1 2 ... p)."""
    check_prime(p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    t = _Tables(p, depth)
    lab = np.zeros(t.nlabels, dtype=_LABEL_DTYPE)
    lab[0] = exponent % p
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
    p = c.p
    if c.depth != depth - len(v):
        raise ValueError("section depth must equal depth - |v|")
    t = _Tables(p, depth)
    tc = _Tables(p, c.depth)
    lab = np.zeros(t.nlabels, dtype=_LABEL_DTYPE)
    idx = vertex_local_index(v, p)
    for k in range(c.depth):
        lo = t.label_off[len(v) + k] + idx * p**k
        lab[lo:lo + p**k] = c.lab[tc.label_slice(k)]
    return Portrait.from_labels(p, depth, lab)


def commutator(x: Portrait, y: Portrait) -> Portrait:
    """[x, y] = x^-1 y^-1 x y (left-normed convention upstream)."""
    return x.inverse() * y.inverse() * x * y


def compose_all(factors: Iterable[Portrait], p: int, depth: int) -> Portrait:
    result = Portrait.identity(p, depth)
    for f in factors:
        result = result * f
    return result
