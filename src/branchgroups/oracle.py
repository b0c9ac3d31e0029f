"""Brute-force referees that certify the fast paths on small inputs."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .engine import ResourceGuardError
from .gmodules import (GModule, closure_by_rounds, image_in_wm,
                       layer_preimage, wm_module)
from .linalg import Echelon, FpSubspace, _inverses, full_space
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


# Most coefficient vectors, p^k for a k-dimensional space, that the census
# indexes: it holds one int32 code array per generator
MAX_CENSUS_VECTORS = 2**20
# Most vectors, p^dim, of a module whose submodules brute_submodules lists
BRUTE_SUBMODULE_CAP = 20000
# Codes whose coefficient vectors are formed at once while the image
# arrays are built
_CODE_CHUNK = 2**8


def _log_floor(p: int, cap: int) -> int:
    """The largest e with p^e <= cap (-1 for cap < 1), in integers, so a
    dimension is compared with a cap without forming p^dim."""
    e, power = -1, 1
    while power <= cap:
        e, power = e + 1, power * p
    return e


def _digits(codes: np.ndarray, p: int, k: int) -> np.ndarray:
    """The coefficient vectors of integer codes, one row per code, most
    significant digit first."""
    return np.stack(np.unravel_index(codes, (p,) * k), axis=1)


def _class_representatives(space: FpSubspace, mod: GModule) -> np.ndarray:
    """The codes of one nonzero vector per class of the census of `space`.

    A vector of the k-dimensional space is indexed by the code of its
    coefficient vector, 0 .. p^k - 1.  The classes are those of the
    relation generated by v ~ c v (c != 0) and v ~ v.g for each generator
    g where v.g stays in the space.  Each code starts labelled by its
    greatest multiple, the one with leading coefficient p - 1, and one
    int32 image array per generator is built, both in chunks of
    _CODE_CHUNK codes.  Rounds of maxima over the images, with pointer
    jumping, then label each code by the greatest code it reaches
    (multiples commute with the action, so multiples keep equal labels),
    and the codes that are their own label are returned.  A code that is
    not its own label reaches its label, which is.  The greatest code of
    most classes has a nonzero first coefficient, so stacks of these seeds
    share their first pivots and close a narrow frontier.
    """
    p, k = mod.p, space.dim
    n = p**k
    rows = space.rows.astype(np.int64)
    weights = np.array([p**e for e in range(k - 1, -1, -1)])
    # per generator: the coordinates of the basis rows' images in the space
    # and the nonzero columns of their residues off it (none when the space
    # is invariant)
    moves = []
    for name in mod.perms:
        moved = mod.act(rows, name)
        coords = moved[:, space.pivots]
        off = (moved - coords @ rows) % p
        moves.append((coords, off[:, off.any(axis=0)]))
    lab = np.empty(n, dtype=np.int32)
    images = [np.empty(n, dtype=np.int32) for _ in moves]
    for start in range(0, n, _CODE_CHUNK):
        codes = np.arange(start, min(n, start + _CODE_CHUNK))
        coeffs = _digits(codes, p, k)
        lead = coeffs[np.arange(len(codes)), (coeffs != 0).argmax(axis=1)]
        scale = (p - 1) * _inverses(p)[lead, None]
        lab[start:start + len(codes)] = coeffs * scale % p @ weights
        for image, (coords, off) in zip(images, moves):
            out = coeffs @ coords % p @ weights
            if off.size:        # a vector leaving the space is not moved
                out = np.where((coeffs @ off % p).any(axis=1), codes, out)
            image[start:start + len(codes)] = out
    # labels only rise, so a round that keeps their sum changed none
    total = -1
    while total != (total := lab.sum()):
        for image in images:
            np.maximum(lab, lab[image], out=lab)
        lab = lab[lab]
    return np.flatnonzero(lab == np.arange(n, dtype=np.int32))[1:]


def _cyclic_closures(space: FpSubspace, mod: GModule) -> list[FpSubspace]:
    """The distinct closures of single vectors of `space`, sorted by
    dimension and key.

    closure(c v) = closure(v) for c != 0, and closure(v.g) = closure(v)
    for each generator g, as the closure is invariant; so one vector is
    closed per class of the relation these moves generate
    (`_class_representatives`).  The vectors are closed in stacks of about
    4096 / d^2 seeds, so a stack of square d x d bases stays small, and
    deduplicated by their canonical square bases.  Raises
    ResourceGuardError, before anything is allocated, when the space has
    more than MAX_CENSUS_VECTORS vectors.
    """
    p, d, k = mod.p, mod.dim, space.dim
    if k > _log_floor(p, MAX_CENSUS_VECTORS):
        raise ResourceGuardError(
            f"census of p^k = {p}^{k} vectors exceeds the limit "
            f"{MAX_CENSUS_VECTORS}")
    if not k:           # the zero space has no nonzero vector
        return []
    reps = _class_representatives(space, mod)
    rows = space.rows.astype(np.int64)
    found: dict[bytes, FpSubspace] = {}
    step = max(1, 4096 // d**2)
    for start in range(0, len(reps), step):
        block = _digits(reps[start:start + step], p, k) @ rows
        stack = Echelon(p, d, len(block))
        stack.add(block)
        closure_by_rounds(stack, mod)
        for j, basis in enumerate(stack.bases):
            key = basis.tobytes()
            if key not in found:
                found[key] = stack.subspace(j)
    return sorted(found.values(), key=lambda s: (s.dim, s.key()))


def brute_submodules(mod: GModule) -> list[FpSubspace]:
    """All closures of single vectors of the module, one per class of the
    census (`_cyclic_closures`), deduplicated and sorted by dimension.
    When every submodule is cyclic this is the full submodule list
    (excluding the zero space).  Raises ResourceGuardError when p^dim
    exceeds BRUTE_SUBMODULE_CAP, compared without forming p^dim."""
    if mod.dim > _log_floor(mod.p, BRUTE_SUBMODULE_CAP):
        raise ResourceGuardError(
            f"p^dim = {mod.p}^{mod.dim} exceeds cap {BRUTE_SUBMODULE_CAP}")
    return _cyclic_closures(full_space(mod.p, mod.dim), mod)


def brute_normal_between(g_n, inst, m: int, cap_dim: int = 6) -> list:
    """All normal subgroups of G_n between St(m+1) and St(m), by brute
    enumeration of the invariant subspaces of the layer image.

    Pulls every invariant subspace back to a subgroup, verifies normality
    by conjugation, and returns the subgroups sorted by order; the chain
    theorem predicts a totally ordered list of t(m)+1 of them.
    """
    spaces = brute_invariant_subspaces_within(
        image_in_wm(g_n, m), wm_module(inst, m), cap_dim=cap_dim)
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
    vector per class of the census (`_cyclic_closures`: scalar multiples
    and generator images of a vector have the same closure) and then
    summing closures.

    Sound because every invariant subspace is a sum of cyclic ones.  Raises
    ResourceGuardError when dim exceeds cap_dim or, before the census
    allocates, when p^dim exceeds MAX_CENSUS_VECTORS.
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
