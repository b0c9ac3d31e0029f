"""Subgroup computations in finite quotients of tree groups.

Every group handled here is a subgroup of the Sylow p-subgroup of the
automorphism group of the truncated tree.  That group has the polycyclic
series G_i = {f : the labels at positions 0..i-1 vanish}, positions in
breadth-lex order; on G_i the label at position i is a homomorphism onto
C_p with kernel G_{i+1}.  A subgroup is therefore held as an induced
pcgs for this series: at most one element per pivot (first nonzero
label), each with leading label 1.  Sifting is Gaussian elimination on
pivots, orders are pure p-powers (stored as p-exponents) and level
stabilizers are tails of the sequence.

A sequence supports incremental generator insertion, which is what the
normal-closure and series computations lean on; a subgroup known to
contain a closed one extends a copy of its sequence.  Insertion, closure
and normal closure are one loop over one stack of residues: the waiting
seeds at the bottom, the rows of h^-p and [h, x] for each newly stored h
on top, the whole stack sifted in place after every insertion.

The deepest stored level is linear algebra.  In the depth-n quotient the
layer St(n-1) is elementary abelian: its elements have the identity perm
and their labels add.  A sequence holds H ∩ St(n-1) only as the reduced
echelon block of its level-(n-1) labels.  A sifted row whose pivot
reaches an occupied column of the block is finished by one reduction
against it, zero iff the row is a member, and each closing row that
involves a deep element is one gather.  Rows step by portrait products
only through the upper levels, so the elements above the deepest level
and the order of their insertion do not depend on how the block is held.

The branch-structure walks (psi embeddings of K x ... x K, sections at
every vertex of a level, coordinate projections) form their elements as
stacks by index gathers and scatters (`trees.section_rows`,
`trees.embed_rows`) and sift them SIFT_BATCH at a time; a portrait is
built only for a witness or a generator that is kept.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

import numpy as np

from .trees import (_LABEL_DTYPE, _PERM_DTYPE, Portrait, ResourceGuardError,
                    _Tables, _conjugate_rows, _portraits, _stack,
                    commutator_seeds, compose_rows, embed_rows,
                    frattini_seeds, inverse_rows, parse_vertex, power_rows,
                    section_rows, vertex_local_index)


# Most elements an induced pcgs may hold before the resource guard trips.
MAX_STRONG_GENS = 4096


# Rows per batched sift of generated elements: bounds one batch's memory.
SIFT_BATCH = 256


def _pivots(lab: np.ndarray) -> np.ndarray:
    """Each row's first nonzero position, -1 for a zero row."""
    if not lab.shape[1]:
        return np.full(len(lab), -1)
    nonzero = lab != 0
    return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), -1)


def _doubled(table: np.ndarray) -> np.ndarray:
    """table followed by room for as many slots again (at least 8)."""
    spare = np.empty((max(8, len(table)),) + table.shape[1:],
                     dtype=table.dtype)
    return np.concatenate([table, spare])


class InducedPcgs:
    """Induced pcgs of a subgroup H with respect to the label series.

    A sequence with strictly increasing pivots and leading labels 1 is an
    induced pcgs of the group it generates iff every h^p and every
    commutator [h, x] of its elements sifts to the identity through it
    (Holt-Eick-O'Brien, Handbook of CGT, ch. 8); then every member of H
    is a unique product of powers of the elements and |H| = p^k.

    Elements with their pivot above the deepest level live in one power
    table: slot s holds the rows of h, h^-1, ..., h^-(p-1) for the s-th
    such h (row e > 0 clears a leading label e in one composition).
    Elements on the deepest level (pivots from _deep on) are the rows of
    the deep block, their labels on that level in reduced echelon form,
    with pivot columns _block_piv.  _slot maps a pivot to its slot or
    block row, so a whole batch of rows sifts at once.
    """

    def __init__(self, p: int, depth: int):
        self.p = p
        self.depth = depth
        self._t = t = _Tables(p, depth)
        # slots in insertion order; capacity beyond len(_pivot_of) is unused
        self._lab = np.empty((0, p, t.nlabels), dtype=_LABEL_DTYPE)
        self._perm = np.empty((0, p, t.nlabels), dtype=_PERM_DTYPE)
        self._pivot_of: list[int] = []
        # pivot -> slot or block row, -1 if none; the extra last entry
        # answers pivot -1
        self._slot = np.full(t.nlabels + 1, -1)
        # first label position of the deepest level (0 at depth 0 and 1)
        self._deep = t.label_off[max(depth - 1, 0)]
        self._block = np.empty((0, t.nlabels - self._deep), dtype=_LABEL_DTYPE)
        self._block_piv = np.empty(0, dtype=np.intp)

    def sift(self, lab: np.ndarray, perm: np.ndarray | None) -> np.ndarray:
        """Reduce every row of the stack (lab, perm) through the sequence,
        in place; returns each residue's pivot.  perm may be None when every
        row lies in St(depth-1).

        A residue's pivot holds no element; it is -1, and the residue the
        identity, iff the row is a member.  Each step clears the pivot of
        every live row, one with a stored element at its pivot, by one
        composition.  A live row whose pivot reaches the deepest level lies
        in St(depth-1) instead, and H ∩ St(depth-1) is spanned by the deep
        block, so one reduction against the block finishes it.
        """
        t, p, slot, deep = self._t, self.p, self._slot, self._deep
        tab_lab, tab_perm = self._table()
        piv = _pivots(lab)
        live = np.flatnonzero(slot[piv] >= 0)
        while live.size:
            at = piv[live]
            on_deep = at >= deep
            if on_deep.any():
                rows = live[on_deep]
                lab[rows, deep:] = self._deep_residues(lab[rows])
                piv[rows] = _pivots(lab[rows])
                live, at = live[~on_deep], at[~on_deep]
                if not live.size:
                    break
            step_lab, step_perm = compose_rows(
                t, lab[live], perm[live], tab_lab, tab_perm,
                slot[at] * p + lab[live, at])
            lab[live], perm[live] = step_lab, step_perm
            piv[live] = stepped = _pivots(step_lab)
            live = live[slot[stepped] >= 0]
        return piv

    def _deep_residues(self, lab: np.ndarray) -> np.ndarray:
        """The deepest-level labels of each row of lab reduced against the
        deep block; zero iff the row, an element of St(depth-1), lies in
        H ∩ St(depth-1)."""
        res = lab[:, self._deep:].astype(np.int64)
        res -= res[:, self._block_piv] @ self._block.astype(np.int64)
        res %= self.p
        return res

    def members(self, elems: Sequence[Portrait]) -> np.ndarray:
        """Boolean array: which of elems lie in the group."""
        return self.sift(*_stack(elems, self._t)) < 0

    def contains(self, f: Portrait) -> bool:
        return bool(self.members([f])[0])

    def add_generators(self, seeds: Iterable[Portrait],
                       conjugators: Sequence[Portrait] = ()
                       ) -> list[Portrait]:
        """Insert each seed in turn (if new) and re-close the sequence;
        after each seed that grows the group, do the same for its
        conjugates by every conjugator, queued FIFO behind the other seeds.
        Returns the seeds that grew the group.

        All waiting work is one stack of residues.  The seeds sit at the
        bottom, next seed topmost, with their own rows kept beside them;
        after each insertion of some h, the rows of h^-p and of [h, x] for
        every stored x are pushed on top.  Each step sifts the whole stack
        in place and drops the members.  Stored elements above the deepest
        level are never replaced, so every other residue is then the one
        its element would leave if sifted afresh, and the top row is
        inserted as it stands: the order of insertions is that of closing
        each element whole, LIFO, before the next seed is taken.

        When the top row lies on the deepest level, the run of such rows
        above the seeds is closed by _close_deep, and so are the closing
        rows of a seed on that level.  While that run lasts only deepest
        pivots are filled, so no row beneath it can step; the stack is
        sifted again once the run is done.
        """
        p, t, deep = self.p, self._t, self._deep
        conj = _stack(conjugators, t)
        conj_inv = inverse_rows(t, *conj)
        seed_lab, seed_perm = _stack(list(seeds)[::-1], t)
        lab, perm = seed_lab.copy(), seed_perm.copy()
        kept: list[Portrait] = []
        while True:
            piv = self.sift(lab, perm)
            outside = piv >= 0
            if not outside.all():
                seeds_out = outside[:len(seed_lab)]
                seed_lab, seed_perm = seed_lab[seeds_out], seed_perm[seeds_out]
                lab, perm, piv = lab[outside], perm[outside], piv[outside]
            if not len(lab):
                break
            n_seeds = len(seed_lab)
            if len(lab) > n_seeds and piv[-1] >= deep:
                above = np.flatnonzero(piv[n_seeds:] < deep)
                start = n_seeds + (int(above[-1]) + 1 if above.size else 0)
                self._close_deep(lab[start:])
                lab, perm = lab[:start], perm[:start]
                continue
            top_is_seed = len(lab) == n_seeds
            pivot = int(piv[-1])
            self._insert(pivot, lab[-1], perm[-1])
            lab, perm = lab[:-1], perm[:-1]
            if top_is_seed:
                x = Portrait(p, self.depth, seed_lab[-1].copy(),
                             seed_perm[-1].copy())
                kept.append(x)
                c_lab, c_perm = _conjugate_rows(t, (x.lab, x.perm), conj,
                                                conj_inv)
                c_lab, c_perm = c_lab[::-1], c_perm[::-1]
                seed_lab = np.concatenate([c_lab, seed_lab[:-1]])
                seed_perm = np.concatenate([c_perm, seed_perm[:-1]])
                lab = np.concatenate([c_lab, lab])
                perm = np.concatenate([c_perm, perm])
            if pivot >= deep:
                self._close_deep(self._deep_closing_rows())
                continue
            closing_lab, closing_perm = self._closing_rows(
                len(self._pivot_of) - 1)
            lab = np.concatenate([lab, closing_lab])
            perm = np.concatenate([perm, closing_perm])
        # a closed sequence keeps no spare slots: cached subgroups hold
        # their tables for the rest of the run
        n = len(self._pivot_of)
        self._lab, self._perm = self._lab[:n].copy(), self._perm[:n].copy()
        return kept

    def _close_deep(self, lab: np.ndarray) -> None:
        """Insert and close the stack lab of label rows of elements of
        St(depth-1), top row first, as add_generators closes its stack: sift,
        drop the members, insert the top row and push its closing rows."""
        while True:
            piv = self.sift(lab, None)
            outside = piv >= 0
            if not outside.all():
                lab, piv = lab[outside], piv[outside]
            if not len(lab):
                return
            self._insert(int(piv[-1]), lab[-1], None)
            lab = np.concatenate([lab[:-1], self._deep_closing_rows()])

    def _deep_closing_rows(self) -> np.ndarray:
        """The label rows of [x, h] for the newest deep element h and every
        x above the deepest level, in slot order: [h, x] is their inverse,
        and h^p and [h, y] for y on the deepest level are the identity."""
        return self._commutators(self._block_labels([-1])[0],
                                 self._perm[:len(self._pivot_of), 1])

    def _commutators(self, y: np.ndarray, x_inv_perm: np.ndarray
                     ) -> np.ndarray:
        """The labels of [x, y] for y in St(depth-1), with labels y, and x,
        with x^-1's perm x_inv_perm, one of them a stack: y less y read
        through x^-1's perm (the perm of [x, y] is the identity)."""
        rows = np.negative(y[..., x_inv_perm])
        rows += y
        rows %= self.p
        return rows

    def _closing_rows(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """The rows of h^-p, then of [h, x] for every earlier x above the
        deepest level in slot order, then of [h, y] for every y in the deep
        block in row order, for the element h in slot s."""
        t, p = self._t, self.p
        tab_lab, tab_perm = self._table()
        earlier = np.arange(s) * p
        # h^-p = h^-1 h^-(p-1), then h^-1 x^-1 for every earlier x, in one
        # gather; [h, x] = h^-1 x^-1 h x
        lab, perm = compose_rows(t, tab_lab[s * p + 1], tab_perm[s * p + 1],
                                 tab_lab, tab_perm,
                                 np.append(s * p + p - 1, earlier + 1))
        comm = compose_rows(t, lab[1:], perm[1:], tab_lab[s * p],
                            tab_perm[s * p])
        lab[1:], perm[1:] = compose_rows(t, *comm, tab_lab, tab_perm, earlier)
        deep_lab = self._commutators(self._block_labels(slice(None)),
                                     tab_perm[s * p + 1])
        return (np.concatenate([lab, deep_lab]),
                np.concatenate([perm, np.broadcast_to(t.ident,
                                                      deep_lab.shape)]))

    def _block_labels(self, rows) -> np.ndarray:
        """The full label rows of the deep elements in the given block
        rows; new arrays."""
        block = self._block[rows]
        lab = np.zeros((len(block), self._t.nlabels), dtype=_LABEL_DTYPE)
        lab[:, self._deep:] = block
        return lab

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The power table as one stack: row s * p + e is power e of slot
        s."""
        shape = (len(self._lab) * self.p, self._t.nlabels)
        return self._lab.reshape(shape), self._perm.reshape(shape)

    def _insert(self, pivot: int, lab: np.ndarray, perm: np.ndarray | None
                ) -> None:
        """Store the power of the element (lab, perm) with leading label 1
        at pivot: above the deepest level as a new slot, with its inverse
        powers; on it as a new block row, reduced against the block (which
        keeps its label at pivot) and scaled, its column cleared from the
        other rows."""
        if self.order_exponent >= MAX_STRONG_GENS:
            raise ResourceGuardError(
                f"strong generator cap {MAX_STRONG_GENS} exceeded")
        t, p, deep = self._t, self.p, self._deep
        inv = pow(int(lab[pivot]), -1, p)
        if pivot >= deep:
            row = self._deep_residues(lab[None])
            row *= inv
            row %= p
            col = pivot - deep
            block = self._block - self._block[:, col, None] * row
            block %= p
            self._block = np.concatenate([block, row]).astype(_LABEL_DTYPE)
            self._block_piv = np.append(self._block_piv, col)
            self._slot[pivot] = len(self._block_piv) - 1
            return
        s = len(self._pivot_of)
        if s == len(self._lab):
            self._lab, self._perm = _doubled(self._lab), _doubled(self._perm)
        row_lab, row_perm = self._lab[s], self._perm[s]
        if inv != 1:
            lab, perm = power_rows(t, lab, perm, inv)
        row_lab[0], row_perm[0] = lab, perm
        row_lab[1], row_perm[1] = inverse_rows(t, lab, perm)
        for e in range(2, p):
            row_lab[e], row_perm[e] = compose_rows(
                t, row_lab[e - 1], row_perm[e - 1], row_lab[1], row_perm[1])
        self._pivot_of.append(pivot)
        self._slot[pivot] = s

    # -- data ----------------------------------------------------------

    @property
    def order_exponent(self) -> int:
        return len(self._pivot_of) + len(self._block_piv)

    def pivots(self) -> list[int]:
        return np.flatnonzero(self._slot[:-1] >= 0).tolist()

    def elements(self) -> list[Portrait]:
        """The sequence in pivot order, each element with its own arrays."""
        p, depth, pivots = self.p, self.depth, self.pivots()
        k = len(self._pivot_of)
        upper = [Portrait(p, depth, self._lab[s, 0].copy(),
                          self._perm[s, 0].copy())
                 for s in self._slot[pivots[:k]]]
        deep = self._block_labels(self._slot[pivots[k:]])
        return upper + [Portrait(p, depth, lab.copy(), self._t.ident.copy())
                        for lab in deep]

    def tail(self, start: int) -> "InducedPcgs":
        """The elements with pivot >= start: an induced pcgs of H ∩ G_start,
        closed as it stands; inserting into it leaves this sequence
        unchanged."""
        sub = InducedPcgs(self.p, self.depth)
        keep = [s for s, i in enumerate(self._pivot_of) if i >= start]
        sub._lab, sub._perm = self._lab[keep], self._perm[keep]
        sub._pivot_of = [self._pivot_of[s] for s in keep]
        sub._slot[sub._pivot_of] = np.arange(len(keep))
        # rows with pivot >= start are zero before it, so they stay reduced
        rows = self._block_piv >= start - self._deep
        sub._block, sub._block_piv = self._block[rows], self._block_piv[rows]
        sub._slot[sub._block_piv + self._deep] = np.arange(len(sub._block_piv))
        return sub

    def level_dims(self) -> list[int]:
        """Number of pivots on each label level 0..depth-1."""
        label_off = self._t.label_off
        dims = [0] * self.depth
        for i in self.pivots():
            dims[bisect_right(label_off, i) - 1] += 1
        return dims


class Subgroup:
    """A finitely generated subgroup of the depth-n quotient: its generators
    and one induced pcgs, built from them on first use or passed in closed,
    providing membership and orders."""

    def __init__(self, p: int, depth: int, gens: Iterable[Portrait],
                 pcgs: InducedPcgs | None = None):
        self.p = p
        self.depth = depth
        self.gens = [g for g in gens if not g.is_identity()]
        self._pcgs = pcgs

    @property
    def pcgs(self) -> InducedPcgs:
        if self._pcgs is None:
            self._pcgs = InducedPcgs(self.p, self.depth)
            self._pcgs.add_generators(self.gens)
        return self._pcgs

    @property
    def order_exponent(self) -> int:
        return self.pcgs.order_exponent

    def contains(self, f: Portrait) -> bool:
        return self.pcgs.contains(f)

    def first_non_member(self, elems: Sequence[Portrait]
                         ) -> tuple[int, Portrait] | None:
        """(index, element) of the first of elems outside the group, or None
        if all are members."""
        t = _Tables(self.p, self.depth)
        j = self.first_outside(len(elems),
                               lambda j: _stack([elems[i] for i in j], t))
        return None if j is None else (j, elems[j])

    def first_outside(self, count: int, rows) -> int | None:
        """Index of the first of count elements outside the group, or None
        if all are members; rows(j) forms the stack (lab, perm) of the
        elements with the indices j, which are sifted SIFT_BATCH at a
        time."""
        for start in range(0, count, SIFT_BATCH):
            j = np.arange(start, min(start + SIFT_BATCH, count))
            missing = np.flatnonzero(self.pcgs.sift(*rows(j)) >= 0)
            if missing.size:
                return start + int(missing[0])
        return None

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        return other.first_non_member(self.gens) is None

    def equal(self, other: "Subgroup") -> bool:
        return (self.order_exponent == other.order_exponent
                and self.is_subgroup_of(other))

    def is_normal_in(self, ambient: "Subgroup") -> bool:
        """Whether every conjugate of a generator by an ambient generator is
        a member; for self <= ambient this is normality in ambient.  The
        conjugates are formed as one stack and sifted once."""
        t = _Tables(self.p, self.depth)
        i, j = np.indices((len(self.gens), len(ambient.gens))).reshape(2, -1)
        xs = _stack(self.gens, t)
        gs = _stack(ambient.gens, t)
        gs_inv = inverse_rows(t, *gs)
        conj = _conjugate_rows(t, (xs[0][i], xs[1][i]), (gs[0][j], gs[1][j]),
                               (gs_inv[0][j], gs_inv[1][j]))
        return not (self.pcgs.sift(*conj) >= 0).any()

    def is_trivial(self) -> bool:
        """Identities are dropped from gens, so any generator left has order
        at least p."""
        return not self.gens

    # -- stabilizers and sections ------------------------------------------

    def stabilizer(self, m: int) -> "Subgroup":
        """St_H(m): the pcgs elements fixing all vertices of levels <= m,
        built once per m and kept in vars(self), so every caller gets one
        object."""
        if m <= 0:
            return self
        m = min(m, self.depth)
        stabilizers = vars(self).setdefault("_stabilizers", {})
        if m not in stabilizers:
            tail = self.pcgs.tail(_Tables(self.p, self.depth).label_off[m])
            stabilizers[m] = Subgroup(self.p, self.depth, tail.elements(),
                                      pcgs=tail)
        return stabilizers[m]

    def section_subgroup(self, v) -> "Subgroup":
        """phi_v(st_H(v)), acting on the subtree below v (depth n - |v|).

        Every label is a power of the p-cycle, so an element fixing a vertex
        fixes a child of it iff its label there is 0: st_H(x) = St_H(1) for
        a letter x, and phi_xw(st_H(xw)) = phi_w(st_S(w)) with S =
        phi_x(St_H(1)).  When every generator fixes v the section is one
        gather of theirs; otherwise v is walked one letter at a time."""
        v = parse_vertex(v)
        if len(v) > self.depth:
            raise ValueError(f"vertex {v} below the depth-{self.depth} tree")
        if not v:
            return self
        if not all(g.apply_vertex(v) == v for g in self.gens):
            return self.stabilizer(1).section_subgroup(v[:1]).section_subgroup(
                v[1:])
        t, depth = _Tables(self.p, self.depth), self.depth - len(v)
        at = np.full(len(self.gens), vertex_local_index(v, self.p))
        return Subgroup(self.p, depth, _portraits(self.p, depth, section_rows(
            t, *_stack(self.gens, t), len(v), np.arange(len(at)), at)))

    def level_dims(self) -> list[int]:
        """t(m) = log_p |St(m) : St(m+1)| for m = 0..depth-1, from the pcgs."""
        return self.pcgs.level_dims()

    def max_stab_depth(self) -> int:
        """Largest m with H <= St(m); errors on the trivial group."""
        if not self.gens:
            raise ValueError("max_stab_depth of the trivial subgroup")
        return min(g.max_stab_level() for g in self.gens)


# -- derived constructions -------------------------------------------------


def group_of(inst, depth: int) -> Subgroup:
    return Subgroup(inst.p, depth, inst.generators(depth))


def extend(base: Subgroup, extra: Sequence[Portrait],
           gens: Iterable[Portrait]) -> Subgroup:
    """The subgroup generated by gens, which must generate the same group as
    base's generators and extra together; its pcgs is a copy of base's with
    extra inserted."""
    pcgs = base.pcgs.tail(0)
    pcgs.add_generators(extra)
    return Subgroup(base.p, base.depth, gens, pcgs=pcgs)


def normal_closure(seeds: Iterable[Portrait], ambient: Subgroup) -> Subgroup:
    """Smallest subgroup containing the seeds and closed under conjugation
    by the ambient generators (= the normal closure in ⟨ambient.gens⟩)."""
    pcgs = InducedPcgs(ambient.p, ambient.depth)
    kept = pcgs.add_generators(seeds, ambient.gens)
    return Subgroup(ambient.p, ambient.depth, kept, pcgs=pcgs)


def commutator_subgroup(a: Subgroup, b: Subgroup,
                        ambient: Subgroup) -> Subgroup:
    """Normal closure of the pairwise generator commutators; equals [A, B]
    whenever that subgroup is normal in the ambient group (true for every
    use in this package: [N, G], series terms, St(1)' and friends)."""
    seeds = commutator_seeds(a.gens, b.gens)
    return normal_closure(seeds, ambient)


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """<A, B> on A's generators then B's; its pcgs extends the larger
    operand's by the other's generators."""
    base = max((a, b), key=lambda s: s.order_exponent)
    extra = (b if base is a else a).gens
    return extend(base, extra, a.gens + b.gens)


def frattini_subgroup(h: Subgroup) -> Subgroup:
    """Phi(H) = H' H^p for a finite p-group, via the normal closure in H of
    generator commutators and p-th powers."""
    return normal_closure(frattini_seeds(h.gens, h.p), h)


def min_generators(h: Subgroup) -> int:
    """d(H) = log_p |H : Phi(H)| by the Burnside basis theorem."""
    if h.is_trivial():
        return 0
    return h.order_exponent - frattini_subgroup(h).order_exponent


def psi_preimage_gens(section_gens: Sequence[Portrait], level: int,
                      depth: int) -> list[Portrait]:
    """Generators of psi_level^{-1}(K x ... x K) from generators of K: each
    generator embedded at each level-`level` vertex, vertex by vertex."""
    if not section_gens:
        return []
    p = section_gens[0].p
    at, gen = np.indices((p**level, len(section_gens))).reshape(2, -1)
    return _portraits(p, depth, embed_rows(
        _Tables(p, depth), *_stack(section_gens, section_gens[0].tables),
        level, gen, at))


def first_missing_embedding(section_gens: Sequence[Portrait], level: int,
                            sub: Subgroup) -> tuple[int, Portrait] | None:
    """The first (vertex index, element) of psi_preimage_gens that sub does
    not contain; None iff psi_level^{-1}(K x ... x K) <= sub.  The
    embeddings are formed as stacks, SIFT_BATCH at a time."""
    if not section_gens:
        return None
    t = _Tables(sub.p, sub.depth)
    k = _stack(section_gens, section_gens[0].tables)
    at, gen = np.indices((sub.p**level, len(section_gens))).reshape(2, -1)
    j = sub.first_outside(len(at),
                          lambda j: embed_rows(t, *k, level, gen[j], at[j]))
    if j is None:
        return None
    lab, perm = embed_rows(t, *k, level, gen[j:j + 1], at[j:j + 1])
    return int(at[j]), Portrait(sub.p, sub.depth, lab[0], perm[0])


def sections_within(gens: Sequence[Portrait], level: int,
                    target: Subgroup) -> bool:
    """Whether every level-`level` section of every element of gens lies in
    target; for gens in St(level), psi_level(<gens>) <= target x ... x target
    (the dual of first_missing_embedding).  The sections are formed as
    stacks, SIFT_BATCH at a time."""
    if not gens:
        return True
    t = gens[0].tables
    g = _stack(gens, t)
    gen, at = np.indices((len(gens), target.p**level)).reshape(2, -1)
    return target.first_outside(
        len(at), lambda j: section_rows(t, *g, level, gen[j], at[j])) is None


def is_regular_branch_over(g_n: Subgroup, g_shallow: Subgroup, k_n: Subgroup,
                           k_gens_shallow: Sequence[Portrait]) -> bool:
    """K x 1 x ... x 1 <= psi(St_K(1)) in the depth-n quotient, plus level-1
    transitivity and a self-similarity spot check."""
    if first_missing_embedding(k_gens_shallow, 1, k_n) is not None:
        return False
    if 0 not in g_n.pcgs.pivots():
        return False
    return sections_within(g_n.stabilizer(1).gens, 1, g_shallow)


def is_super_strongly_fractal(quotients: Sequence[Subgroup]) -> bool:
    """quotients[k] must be the depth-(k+1) quotient of one group; checks
    phi_u(St(m)) = G for every m < n and every level-m vertex u."""
    n = len(quotients)
    g_n = quotients[-1]
    return all(is_subdirect_in_product(g_n.stabilizer(m), m,
                                       quotients[n - m - 1])
               for m in range(1, n))


def is_subdirect_in_product(sub: Subgroup, level: int,
                            target: Subgroup) -> bool:
    """For H <= St(level): every coordinate projection of psi_level(H), the
    sections of H's generators at one level-`level` vertex, equals target.

    Every section is sifted through T at once; a projection P <= T then
    equals T iff |P| = |T|, so each projection is closed once."""
    t, nv = _Tables(sub.p, sub.depth), sub.p**level
    gen, at = np.indices((len(sub.gens), nv)).reshape(2, -1)
    lab, perm = section_rows(t, *_stack(sub.gens, t), level, gen, at)
    if target.first_outside(len(at), lambda j: (lab[j], perm[j])) is not None:
        return False
    projections = (Subgroup(sub.p, target.depth, _portraits(
        sub.p, target.depth, (lab[c::nv], perm[c::nv]))) for c in range(nv))
    return all(proj.order_exponent == target.order_exponent
               for proj in projections)
