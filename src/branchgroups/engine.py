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
normal-closure and series computations lean on.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from .linalg import FpSubspace
from .trees import (Portrait, _Tables, commutator, embed_at_vertex,
                    parse_vertex, vertex_from_local_index, vertex_local_index)


class ResourceGuardError(RuntimeError):
    """A configured computation cap was exceeded."""


DEFAULT_MAX_STRONG_GENS = 4096


def _pivot(lab: np.ndarray, start: int = 0) -> int:
    """Position of the first nonzero label at or after start; -1 if none."""
    nz = np.flatnonzero(lab[start:])
    return start + int(nz[0]) if nz.size else -1


class InducedPcgs:
    """Induced pcgs of a subgroup H with respect to the label series.

    A sequence with strictly increasing pivots and leading labels 1 is an
    induced pcgs of the group it generates iff every h^p and every
    commutator [h, x] of its elements sifts to the identity through it
    (Holt-Eick-O'Brien, Handbook of CGT, ch. 8); then every member of H
    is a unique product of powers of the elements and |H| = p^k.
    """

    def __init__(self, p: int, depth: int,
                 max_strong_gens: int = DEFAULT_MAX_STRONG_GENS):
        self.p = p
        self.depth = depth
        self.max_strong_gens = max_strong_gens
        # pivot -> [h, h^-1, h^-2, ..., h^-(p-1)]: index e > 0 clears a
        # leading label e in one composition
        self._powers: dict[int, list[Portrait]] = {}

    def sift(self, f: Portrait) -> tuple[int, Portrait]:
        """Reduce f through the sequence; returns (pivot, residue).

        The residue's pivot holds no element; it is -1, and the residue the
        identity, iff f is a member.
        """
        i = _pivot(f.lab)
        while i >= 0:
            powers = self._powers.get(i)
            if powers is None:
                break
            f = f * powers[int(f.lab[i])]
            i = _pivot(f.lab, i + 1)
        return i, f

    def contains(self, f: Portrait) -> bool:
        return self.sift(f)[0] < 0

    def add_generator(self, g: Portrait) -> bool:
        """Insert g (if new) and re-close the sequence. Returns True if the
        group grew."""
        queue = [g]
        grew = False
        while queue:
            i, h = self.sift(queue.pop())
            if i < 0:
                continue
            if len(self._powers) >= self.max_strong_gens:
                raise ResourceGuardError(
                    f"strong generator cap {self.max_strong_gens} exceeded")
            lead = int(h.lab[i])
            if lead != 1:
                h = h ** pow(lead, -1, self.p)
            powers = [h, h.inverse()]
            for _ in range(self.p - 2):
                powers.append(powers[-1] * powers[1])
            queue.append(powers[1] * powers[-1])          # h^-p
            queue.extend(powers[1] * x[1] * h * x[0]      # [h, x]
                         for x in self._powers.values())
            self._powers[i] = powers
            grew = True
        return grew

    # -- data ----------------------------------------------------------

    @property
    def order_exponent(self) -> int:
        return len(self._powers)

    def pivots(self) -> list[int]:
        return sorted(self._powers)

    def elements(self) -> list[Portrait]:
        """The sequence in pivot order."""
        return [self._powers[i][0] for i in self.pivots()]

    def tail(self, start: int) -> "InducedPcgs":
        """The elements with pivot >= start: an induced pcgs of H ∩ G_start,
        closed as it stands."""
        sub = InducedPcgs(self.p, self.depth, self.max_strong_gens)
        sub._powers = {i: pw for i, pw in self._powers.items() if i >= start}
        return sub

    def level_dims(self) -> list[int]:
        """Number of pivots on each label level 0..depth-1."""
        label_off = _Tables(self.p, self.depth).label_off
        dims = [0] * self.depth
        for i in self._powers:
            dims[bisect_right(label_off, i) - 1] += 1
        return dims

    def vertex_stabilizer(self, v) -> list[Portrait]:
        """Induced pcgs of st_H(v), in pivot order.

        Walking down the path to v, the current group fixes the path vertex
        u, and its label at u is a homomorphism onto C_p whose kernel fixes
        the next path vertex.  Clearing that label from every earlier
        element with the last element s it does not kill keeps all other
        pivots and leading labels, so dropping s leaves an induced pcgs of
        the kernel.
        """
        p = self.p
        label_off = _Tables(p, self.depth).label_off
        seq = self.elements()
        for k in range(len(v)):
            pos = label_off[k] + vertex_local_index(v[:k], p)
            labels = [int(h.lab[pos]) for h in seq]
            s = max((j for j, c in enumerate(labels) if c), default=-1)
            if s < 0:
                continue
            h_s = seq.pop(s)
            scale = pow(labels[s], -1, p)
            powers: dict[int, Portrait] = {}
            for j in range(s):
                if labels[j]:
                    e = -labels[j] * scale % p
                    if e not in powers:
                        powers[e] = h_s ** e
                    seq[j] = seq[j] * powers[e]
        return seq


class Subgroup:
    """A finitely generated subgroup of the depth-n quotient, with a lazily
    built induced pcgs providing membership and orders."""

    def __init__(self, p: int, depth: int, gens: Iterable[Portrait],
                 name: str = "", pcgs: InducedPcgs | None = None,
                 max_strong_gens: int = DEFAULT_MAX_STRONG_GENS):
        self.p = p
        self.depth = depth
        self.gens = [g for g in gens if not g.is_identity()]
        self.name = name
        self._pcgs = pcgs
        self._max_strong_gens = max_strong_gens

    @property
    def pcgs(self) -> InducedPcgs:
        if self._pcgs is None:
            pcgs = InducedPcgs(self.p, self.depth,
                               max_strong_gens=self._max_strong_gens)
            for g in self.gens:
                pcgs.add_generator(g)
            self._pcgs = pcgs
        return self._pcgs

    @property
    def order_exponent(self) -> int:
        return self.pcgs.order_exponent

    def generating_set(self) -> list[Portrait]:
        return self.gens if self.gens else []

    def contains(self, f: Portrait) -> bool:
        return self.pcgs.contains(f)

    def is_subgroup_of(self, other: "Subgroup") -> bool:
        return all(other.contains(g) for g in self.gens)

    def equal(self, other: "Subgroup") -> bool:
        return (self.order_exponent == other.order_exponent
                and self.is_subgroup_of(other))

    def is_normal_in(self, ambient: "Subgroup") -> bool:
        """Whether every conjugate of a generator by an ambient generator is
        a member; for self <= ambient this is normality in ambient."""
        amb = [(g, g.inverse()) for g in ambient.generating_set()]
        return all(self.contains(x.conjugate(g, g_inv))
                   for x in self.gens for g, g_inv in amb)

    def is_trivial(self) -> bool:
        return not self.gens or self.order_exponent == 0

    # -- stabilizers and sections ------------------------------------------

    def stabilizer(self, m: int) -> "Subgroup":
        """St_H(m): the pcgs elements fixing all vertices of levels <= m."""
        if m <= 0:
            return self
        start = _Tables(self.p, self.depth).label_off[min(m, self.depth)]
        tail = self.pcgs.tail(start)
        return Subgroup(self.p, self.depth, tail.elements(),
                        name=f"{self.name}.St({m})" if self.name else f"St({m})",
                        pcgs=tail)

    def section_subgroup(self, v) -> "Subgroup":
        """phi_v(st_H(v)) acting on the subtree below v (depth n - |v|)."""
        v = parse_vertex(v)
        if not v:
            return self
        if all(g.apply_vertex(v) == v for g in self.gens):
            st_gens = self.gens
        else:
            st_gens = self.pcgs.vertex_stabilizer(v)
        return Subgroup(self.p, self.depth - len(v),
                        [g.section(v) for g in st_gens])

    def image_in_wm(self, m: int) -> FpSubspace:
        """Row space of the level-m labels of St_H(m); the image of the
        m-th congruence layer inside the permutation module W_m."""
        if not 0 <= m < self.depth:
            raise ValueError("need 0 <= m < depth")
        st = self.stabilizer(m)
        rows = [g.level_labels(m) for g in st.generating_set()]
        return FpSubspace(self.p, self.p**m, rows if rows else None)

    def level_dims(self) -> list[int]:
        """t(m) = log_p |St(m) : St(m+1)| for m = 0..depth-1, from the pcgs."""
        return self.pcgs.level_dims()

    def max_stab_depth(self) -> int:
        """Largest m with H <= St(m); errors on the trivial group."""
        if not self.gens:
            raise ValueError("max_stab_depth of the trivial subgroup")
        return min(g.max_stab_level() for g in self.gens)


# -- derived constructions -------------------------------------------------


def group_of(inst, depth: int, name: str = "") -> Subgroup:
    return Subgroup(inst.p, depth, inst.generators(depth),
                    name=name or f"{inst.kind}")


def normal_closure(seeds: Iterable[Portrait], ambient: Subgroup,
                   name: str = "") -> Subgroup:
    """Smallest subgroup containing the seeds and closed under conjugation
    by the ambient generators (= the normal closure in ⟨ambient.gens⟩)."""
    p, depth = ambient.p, ambient.depth
    pcgs = InducedPcgs(p, depth, max_strong_gens=ambient._max_strong_gens)
    amb = [(g, g.inverse()) for g in ambient.generating_set()]
    queue = deque(s for s in seeds if not s.is_identity())
    kept: list[Portrait] = []
    while queue:
        x = queue.popleft()
        if not pcgs.add_generator(x):
            continue
        kept.append(x)
        for g, g_inv in amb:
            queue.append(g_inv * x * g)
    return Subgroup(p, depth, kept, name=name, pcgs=pcgs)


def commutator_subgroup(a: Subgroup, b: Subgroup, ambient: Subgroup,
                        name: str = "") -> Subgroup:
    """Normal closure of the pairwise generator commutators; equals [A, B]
    whenever that subgroup is normal in the ambient group (true for every
    use in this package: [N, G], series terms, St(1)' and friends)."""
    seeds = [commutator(x, y)
             for x in a.generating_set() for y in b.generating_set()]
    return normal_closure(seeds, ambient, name=name)


def join(a: Subgroup, b: Subgroup, name: str = "") -> Subgroup:
    return Subgroup(a.p, a.depth, a.generating_set() + b.generating_set(),
                    name=name)


def frattini_subgroup(h: Subgroup) -> Subgroup:
    """Phi(H) = H' H^p for a finite p-group, via the normal closure in H of
    generator commutators and p-th powers."""
    gens = h.generating_set()
    seeds = [commutator(x, y) for i, x in enumerate(gens)
             for y in gens[i + 1:]]
    seeds += [x**h.p for x in gens]
    return normal_closure(seeds, h, name="frattini")


def min_generators(h: Subgroup) -> int:
    """d(H) = log_p |H : Phi(H)| by the Burnside basis theorem."""
    if h.is_trivial():
        return 0
    return h.order_exponent - frattini_subgroup(h).order_exponent


def psi_preimage_gens(section_gens: Sequence[Portrait], level: int,
                      depth: int) -> Iterator[Portrait]:
    """Generators of psi_level^{-1}(K x ... x K) from generators of K: each
    generator embedded at each level-`level` vertex, vertex by vertex."""
    if not section_gens:
        return
    p = section_gens[0].p
    for c in range(p**level):
        v = vertex_from_local_index(p, level, c)
        for kgen in section_gens:
            yield embed_at_vertex(kgen, v, depth)


def first_missing_embedding(section_gens: Sequence[Portrait], level: int,
                            sub: Subgroup) -> tuple[int, Portrait] | None:
    """The first (vertex index, element) of psi_preimage_gens that sub does
    not contain; None iff psi_level^{-1}(K x ... x K) <= sub."""
    for j, x in enumerate(psi_preimage_gens(section_gens, level, sub.depth)):
        if not sub.contains(x):
            return j // len(section_gens), x
    return None


def sections_within(gens: Sequence[Portrait], level: int,
                    target: Subgroup) -> bool:
    """Whether every level-`level` section of every element of gens lies in
    target; for gens in St(level), psi_level(<gens>) <= target x ... x target
    (the dual of first_missing_embedding)."""
    p = target.p
    vertices = [vertex_from_local_index(p, level, c) for c in range(p**level)]
    return all(target.contains(g.section(v)) for g in gens for v in vertices)


def is_regular_branch_over(g_n: Subgroup, g_shallow: Subgroup, k_n: Subgroup,
                           k_gens_shallow: Sequence[Portrait]) -> bool:
    """K x 1 x ... x 1 <= psi(St_K(1)) in the depth-n quotient, plus level-1
    transitivity and a self-similarity spot check."""
    if first_missing_embedding(k_gens_shallow, 1, k_n) is not None:
        return False
    if 0 not in g_n.pcgs.pivots():
        return False
    return sections_within(g_n.stabilizer(1).generating_set(), 1, g_shallow)


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
    sections of H's generators at one level-`level` vertex, equals target."""
    p = sub.p
    gens = sub.generating_set()
    for c in range(p**level):
        v = vertex_from_local_index(p, level, c)
        proj = Subgroup(p, target.depth, [g.section(v) for g in gens])
        if not proj.equal(target):
            return False
    return True
