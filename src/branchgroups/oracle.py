"""Brute-force referees that certify the fast paths on small inputs."""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .engine import ResourceGuardError
from .gmodules import (GModule, layer_preimage, submodule_closure,
                       wm_module)
from .linalg import FpSubspace, full_space
from .trees import Portrait


def bfs_elements(gens: Sequence[Portrait],
                 cap_exp: int = 12) -> dict[bytes, Portrait]:
    """Every element of the finite group <gens>, keyed by Portrait.key().

    Breadth-first closure of the generators under right multiplication
    (in a finite group that reaches the identity and all inverses); empty
    for no generators.  Raises ResourceGuardError as soon as the closure
    exceeds p**cap_exp elements.
    """
    if not gens:
        return {}
    cap = gens[0].p**cap_exp
    seen = {g.key(): g for g in gens}
    frontier = list(seen.values())
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                k = y.key()
                if k not in seen:
                    if len(seen) >= cap:
                        raise ResourceGuardError(
                            f"BFS closure exceeds p^{cap_exp} elements")
                    seen[k] = y
                    nxt.append(y)
        frontier = nxt
    return seen


def bfs_enumerate(gens: Sequence[Portrait], cap_exp: int = 12) -> tuple[int, int]:
    """(element count, order exponent) of <gens> by bfs_elements."""
    if not gens:
        return 1, 0
    p = gens[0].p
    count = len(bfs_elements(gens, cap_exp))
    exp = 0
    while p**exp < count:
        exp += 1
    if p**exp != count:
        raise AssertionError(f"group order {count} is not a power of {p}")
    return count, exp


def projective_points(p: int, dim: int) -> Iterable[tuple[int, ...]]:
    """One coefficient vector per line of F_p^dim: the first nonzero
    coefficient is 1, so every nonzero vector is a unique scalar multiple
    of exactly one of the (p^dim - 1)/(p - 1) vectors yielded."""
    for lead in range(dim):
        for rest in itertools.product(range(p), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + rest


def _cyclic_closures(space: FpSubspace, mod: GModule) -> list[FpSubspace]:
    """The distinct closures of single vectors of `space`, sorted by
    dimension.  closure(c v) = closure(v) for c != 0, so one vector per
    projective class of the space is closed."""
    found: dict[bytes, FpSubspace] = {}
    for coeffs in projective_points(mod.p, space.dim):
        vec = (np.array(coeffs, dtype=np.int64) @ space.rows) % mod.p
        sp = submodule_closure(FpSubspace(mod.p, mod.dim, [vec]), mod)
        found.setdefault(sp.key(), sp)
    return sorted(found.values(), key=lambda s: (s.dim, s.key()))


def brute_submodules(mod: GModule, cap_count: int = 20000) -> list[FpSubspace]:
    """All closures of single vectors of the module, deduplicated and
    sorted by dimension.  When every submodule is cyclic this is the full
    submodule list (excluding the zero space)."""
    if mod.p**mod.dim > cap_count:
        raise ResourceGuardError(
            f"p^dim = {mod.p**mod.dim} exceeds cap {cap_count}")
    return _cyclic_closures(full_space(mod.p, mod.dim), mod)


def brute_normal_between(g_n, inst, m: int, cap_dim: int = 6) -> list:
    """All normal subgroups of G_n between St(m+1) and St(m), by brute
    enumeration of the invariant subspaces of the layer image.

    Pulls every invariant subspace back to a subgroup, verifies normality
    by conjugation, and returns the subgroups sorted by order; the chain
    theorem predicts a totally ordered list of t(m)+1 of them.
    """
    spaces = brute_invariant_subspaces_within(
        g_n.image_in_wm(m), wm_module(inst, m), cap_dim=cap_dim)
    out = []
    for space in spaces:
        sub = layer_preimage(g_n, m, space)
        if not sub.is_normal_in(g_n):
            raise AssertionError(
                "pullback of an invariant subspace must be normal")
        out.append(sub)
    out.sort(key=lambda s: s.order_exponent)
    return out


def brute_invariant_subspaces_within(space: FpSubspace, mod: GModule,
                                     cap_dim: int = 6) -> list[FpSubspace]:
    """All invariant subspaces of an invariant `space`, by closing one
    vector per projective class of the space (cyclic closures) and then
    summing closures.

    Sound because in the cases this referee is used for, every invariant
    subspace is a sum of cyclic ones (always true) and the vector count
    p^dim is capped.
    """
    if space.dim > cap_dim:
        raise ResourceGuardError(f"dim {space.dim} exceeds cap {cap_dim}")
    cyclic = {sp.key(): sp for sp in _cyclic_closures(space, mod)}
    # close the set of cyclic submodules under pairwise sums
    all_spaces: dict[bytes, FpSubspace] = dict(cyclic)
    frontier = list(cyclic.values())
    while frontier:
        nxt = []
        for s in frontier:
            for c in list(cyclic.values()):
                u = s.sum_with(c)
                if u.key() not in all_spaces:
                    all_spaces[u.key()] = u
                    nxt.append(u)
        frontier = nxt
    zero = FpSubspace(mod.p, mod.dim)
    out = [zero] + sorted(all_spaces.values(), key=lambda s: (s.dim, s.key()))
    return out
