"""F_pG-modules attached to the congruence layers of a tree group.

The m-th layer St_S(m)/St_S(m+1) of the Sylow pro-p group is the
permutation module W_m on the level-m vertices: for x in St(m) the
level-m labels of x^g are those of x permuted by g's vertex action
(labels are abelian).  Every module here is a permutation module, held
as one coordinate permutation per generator.  The generic psi-twisted
p-fold direct sum is implemented as well, from psi words rather than
portraits, and is checked against this shortcut permutation by
permutation.

The distinguished submodule chain V_j of W_m, indexed by tuples
j in {1..p}^m plus a sentinel (0,p,...,p) for the zero space, is built
by the recursive sandwich construction; its canonical generators make
every basis deterministic.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .engine import Subgroup
from .linalg import Echelon, FpSubspace, rref
from .trees import Portrait

IndexTuple = tuple[int, ...]


class GModule:
    """Finite F_pG permutation module: each generator permutes the
    coordinates of F_p^dim and acts on row vectors from the right,
    (v.g)[perm[i]] = v[i]."""

    def __init__(self, p: int, dim: int, perms: dict[str, Sequence[int]]):
        self.p = p
        self.dim = dim
        self.perms: dict[str, np.ndarray] = {}
        self._gather: dict[str, np.ndarray] = {}
        for k, perm in perms.items():
            perm = np.asarray(perm, dtype=np.intp)
            # the inverse by scatter: every entry is set iff perm is a
            # bijection (np.argsort would map in the sort kernels' pages)
            gather = np.full(dim, -1, dtype=np.intp)
            if perm.shape == (dim,) and ((perm >= 0) & (perm < dim)).all():
                gather[perm] = np.arange(dim)
            if (gather < 0).any():
                raise ValueError(
                    f"action {k} is not a permutation of range({dim})")
            self.perms[k] = perm
            self._gather[k] = gather

    def act(self, rows: np.ndarray, name: str) -> np.ndarray:
        """The images v.g of a vector or of every row of a matrix under the
        generator `name`: one index gather."""
        return rows.take(self._gather[name], axis=-1)


def wm_module(inst, m: int) -> GModule:
    """W_m as the permutation module on level-m vertices: each generator
    acts by its vertex action, (v.g) at u = v at u^(g^-1)."""
    if m == 0:
        return GModule(inst.p, 1, {name: [0] for name in inst.gen_names})
    return GModule(inst.p, inst.p**m,
                   {name: g.vertex_perm(m)
                    for name, g in zip(inst.gen_names, inst.generators(m))})


def _word_perm(mod: GModule, word) -> np.ndarray:
    """The permutation of a word in the generators, applied left to right
    (psi-word exponents are reduced mod p, so none is negative)."""
    out = np.arange(mod.dim)
    for name, e in word:
        for _ in range(e):
            out = mod.perms[name][out]
    return out


def twisted_sum(v: GModule, inst) -> GModule:
    """psi-twisted p-fold direct sum: a permutes the p blocks cyclically,
    each directed generator acts block by block through its psi word."""
    p = inst.p
    d = v.dim
    words = inst.psi_words()
    perms = {"a": (np.arange(p * d) + d) % (p * d)}   # block i -> block i+1
    for name in inst.gen_names:
        if name != "a":
            perms[name] = np.concatenate([c * d + _word_perm(v, w)
                                          for c, w in enumerate(words[name])])
    return GModule(p, p * d, perms)


def iterated_twisted_sum(inst, m: int) -> GModule:
    mod = wm_module(inst, 0)
    for _ in range(m):
        mod = twisted_sum(mod, inst)
    return mod


# -- the index tuples and the submodule chain ------------------------------


def is_sentinel(j: IndexTuple) -> bool:
    return len(j) >= 1 and j[0] == 0


def check_tuple(j: IndexTuple, p: int) -> IndexTuple:
    j = tuple(int(x) for x in j)
    if is_sentinel(j):
        if j != (0,) + (p,) * (len(j) - 1):
            raise ValueError(f"malformed sentinel {j}")
        return j
    if not j or any(not 1 <= x <= p for x in j):
        raise ValueError(f"tuple {j} not in {{1..{p}}}^m")
    return j


def predecessor(j: IndexTuple, p: int) -> IndexTuple:
    """The predecessor in the lexicographic chain on {1..p}^m, with
    (1,...,1) mapping to the sentinel (0,p,...,p)."""
    j = check_tuple(j, p)
    if is_sentinel(j):
        raise ValueError("the sentinel has no predecessor")
    if len(j) == 1:
        return (j[0] - 1,)
    if j[-1] >= 2:
        return j[:-1] + (j[-1] - 1,)
    return predecessor(j[:-1], p) + (p,)


def tuple_rank(j: IndexTuple, p: int) -> int:
    """Lexicographic rank; (1,...,1) has rank 0, the sentinel rank -1."""
    if is_sentinel(j):
        return -1
    m = len(j)
    return sum((x - 1) * p**(m - 1 - k) for k, x in enumerate(j))


def tuple_from_rank(rank: int, p: int, m: int) -> IndexTuple:
    if rank < 0:
        return (0,) + (p,) * (m - 1)
    digits = []
    for _ in range(m):
        digits.append(rank % p + 1)
        rank //= p
    if rank:
        raise ValueError("rank out of range")
    return tuple(reversed(digits))


@lru_cache(maxsize=None)
def _a_nilpotent_power(p: int, k: int) -> np.ndarray:
    """(A - I)^k for the p-cycle permutation matrix A on level 1, k < p.

    A^j moves coordinate i to i + j, so row 0 is the binomial row
    sum_j C(k, j) (-1)^(k-j) e_j and row i is row 0 shifted by i."""
    row = np.zeros(p, dtype=np.int64)
    row[:k + 1] = [comb(k, j) * (-1)**(k - j) % p for j in range(k + 1)]
    return row[(np.arange(p) - np.arange(p)[:, None]) % p]


@lru_cache(maxsize=None)
def canonical_generator(p: int, j: IndexTuple) -> bytes:
    """Canonical cyclic generator w_j of V_j, serialized (cache-friendly)."""
    j = check_tuple(j, p)
    if is_sentinel(j):
        raise ValueError("the zero module has no generator")
    if len(j) == 1:
        vec = _a_nilpotent_power(p, p - j[0])[0] % p
        return vec.astype(np.int8).tobytes()
    w_prefix = canonical_generator_vec(p, j[:-1])
    coeffs = canonical_generator_vec(p, (j[-1],))
    return _block_multiples(coeffs, w_prefix, p).astype(np.int8).tobytes()


def canonical_generator_vec(p: int, j: IndexTuple) -> np.ndarray:
    return np.frombuffer(canonical_generator(p, j), dtype=np.int8).copy()


def _block_multiples(coeffs: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """The concatenation of c * w over the coefficients c, in int64 (int8
    products wrap around once p >= 13)."""
    return (np.outer(np.asarray(coeffs, dtype=np.int64),
                     np.asarray(w, dtype=np.int64)) % p).ravel()


@lru_cache(maxsize=None)
def vj_basis(p: int, j: IndexTuple) -> FpSubspace:
    """The chain submodule V_j of W_m (m = len(j)), canonical echelon basis.

    V_j sits between the block sums of V_{j'} and V_{(j')-} and maps onto
    V_{(j_m)} of W_1 in the middle quotient; the construction depends only
    on p, not on the acting group.
    """
    j = check_tuple(j, p)
    m = len(j)
    ambient = p**m
    if is_sentinel(j):
        return FpSubspace(p, ambient)
    if m == 1:
        return FpSubspace(p, p, _a_nilpotent_power(p, p - j[0]))
    lower = vj_basis(p, predecessor(j[:-1], p)).echelon()
    # the block sum of V_{(j')-} is already in echelon form
    basis = Echelon(p, ambient)
    basis.bases[0] = np.kron(np.eye(p, dtype=np.int64), lower.bases[0])
    w_prefix = canonical_generator_vec(p, j[:-1])
    basis.add_span([_block_multiples(coeff_row, w_prefix, p)
                    for coeff_row in vj_basis(p, (j[-1],)).rows])
    return basis.subspace()


# -- closures ---------------------------------------------------------------


def submodule_closure(seeds: Echelon | FpSubspace,
                      mod: GModule) -> Echelon | FpSubspace:
    """Smallest action-invariant subspace containing each seed.

    `seeds` is an Echelon stack, closed in place and returned, or one
    FpSubspace, closed as a stack of one and returned as an FpSubspace.
    Each round applies the generators to the frontier of every open basis
    (at first its seed rows, then the rows it gained in the last round),
    reduces all images in one product and inserts candidate j of every
    open basis at once; a basis leaves the stack when a round adds nothing.
    """
    if isinstance(seeds, FpSubspace):
        return submodule_closure(seeds.echelon(), mod).subspace()
    work, live = seeds, np.arange(len(seeds.bases))
    pivots = np.diagonal(seeds.bases, axis1=1, axis2=2).any(axis=0)
    frontier = seeds.bases[:, pivots]
    while live.size:
        images = work.reduce(np.concatenate([mod.act(frontier, k)
                                             for k in mod.perms], axis=1))
        images = images[:, images.any(axis=(0, 2))]
        for j in range(images.shape[1]):
            if j:               # the bases grew since the batch was reduced
                images[:, j] = work.reduce(images[:, j])
            work.insert(images[:, j])
        grew = images.any(axis=(1, 2))
        if not grew.all():      # finished bases go back into the stack
            seeds.bases[live[~grew]] = work.bases[~grew]
            live, images = live[grew], images[grew]
            work = work.take(grew)
        frontier = images[:, images.any(axis=(0, 2))]
    return seeds


def commutator_subspace(u: FpSubspace, mod: GModule) -> FpSubspace:
    """[U, G]: the span of u(g-1) over basis vectors and generators, closed
    under the action (U must be invariant)."""
    rows = u.rows.astype(np.int64)
    seed = np.concatenate([mod.act(rows, k) - rows for k in mod.perms])
    return submodule_closure(FpSubspace(mod.p, u.ambient, seed % mod.p), mod)


def uniserial_chain(u: FpSubspace, mod: GModule):
    """Chain U > [U,G] > [[U,G],G] > ... > 0.

    Returns (chain, witness): witness is None when every step has
    codimension exactly 1, else a dict describing the offending layer.
    """
    chain = [u]
    while chain[-1].dim > 0:
        nxt = commutator_subspace(chain[-1], mod)
        drop = chain[-1].dim - nxt.dim
        if drop == 0:
            return chain, {"reason": "no descent", "dim": chain[-1].dim}
        chain.append(nxt)
        if drop != 1:
            return chain, {"reason": "layer of codimension > 1",
                           "codim": drop, "upper_dim": chain[-2].dim}
    return chain, None


# -- the R_m computation -----------------------------------------------------


def compute_rm(g_n, m: int) -> dict:
    """R_m data for the group handle g_n: the image U of St(m) in W_m must
    equal a chain module V_j; then R_m is everything below that tuple.

    Returns {"t": dim U, "j_max": tuple, "match": bool, ...}; a failed
    match carries the computed subspace as a falsification witness.
    """
    p = g_n.p
    u = g_n.image_in_wm(m)
    t = u.dim
    if t == 0:
        return {"t": 0, "j_max": tuple_from_rank(-1, p, m), "match": True}
    j_max = tuple_from_rank(t - 1, p, m)
    v = vj_basis(p, j_max)
    if v == u:
        return {"t": t, "j_max": j_max, "match": True}
    return {"t": t, "j_max": j_max, "match": False,
            "witness": {"image_basis": u.basis_digits(),
                        "candidate_basis": v.basis_digits()}}


def rm_tuples(j_max: IndexTuple, p: int) -> list[IndexTuple]:
    """All members of R_m when it matches a chain prefix (small m only)."""
    if is_sentinel(j_max):
        return []
    m = len(j_max)
    return [tuple_from_rank(r, p, m) for r in range(tuple_rank(j_max, p) + 1)]


# -- group <-> module dictionary --------------------------------------------


def layer_representatives(g_n, m: int, vecs) -> list[Portrait]:
    """Elements of St(m) whose level-m labels equal the given vectors, as
    products of stabilizer generators (one linear system over F_p with a
    right-hand side per vector)."""
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, g_n.p**m)
    if not len(vecs):
        return []
    gens = g_n.stabilizer(m).generating_set()
    if not gens:
        raise ValueError("empty stabilizer cannot represent a nonzero vector")
    p = g_n.p
    mat = np.array([g.level_labels(m) for g in gens], dtype=np.int64)
    rows, pivots = rref(np.concatenate([mat.T, vecs.T], axis=1), p)
    if pivots and pivots[-1] >= len(gens):
        raise ValueError("vector not in the image of St(m)")
    coeffs = np.zeros((len(vecs), len(gens)), dtype=np.int64)
    coeffs[:, pivots] = rows[:, len(gens):].T
    out = []
    for vec_coeffs in coeffs:
        x = Portrait.identity(p, g_n.depth)
        for g, c in zip(gens, vec_coeffs):
            if c:
                x = x * g**int(c)
        out.append(x)
    return out


def layer_preimage(g_n, m: int, space: FpSubspace, name: str = ""):
    """The subgroup N with St(m+1) <= N <= St(m) whose layer image is the
    given invariant subspace: generated by representatives plus St(m+1)."""
    reps = layer_representatives(g_n, m, space.rows)
    st_next = g_n.stabilizer(m + 1)
    return Subgroup(g_n.p, g_n.depth, reps + st_next.generating_set(),
                    name=name or f"layer({m},dim{space.dim})")


def layer_conjugation(g_n, m: int) -> tuple[FpSubspace, list[np.ndarray]]:
    """The conjugation action of g_n on its layer U = image of St(m) in W_m.

    Returns U and, per generator g of g_n, the matrix whose row i is the
    level-m labels of x_i^g, where x_i represents the i-th echelon row of
    U.  Conjugation is computed on portraits, not read off the permutation
    module, so this is an independent view of the action.
    """
    u = g_n.image_in_wm(m)
    reps = layer_representatives(g_n, m, u.rows)
    return u, [np.array([x.conjugate(g).level_labels(m) for x in reps],
                        dtype=np.int64).reshape(u.dim, u.ambient)
               for g in g_n.generating_set()]


def first_non_normal_layer(g_n, m: int, spaces) -> int | None:
    """Index of the first subspace of U = image of St(m) in W_m whose
    layer preimage is not normal in g_n, or None when all are normal.

    For St(m+1) <= N <= St(m), N is normal exactly when its image is
    invariant under the conjugation action of g_n on U.  Coordinates in
    U's echelon basis are the entries at U's pivots, so each space is
    tested with one product per generator.
    """
    u, actions = layer_conjugation(g_n, m)
    for idx, space in enumerate(spaces):
        coords = space.rows[:, u.pivots].astype(np.int64)
        if any(space.reduce(coords @ act).any() for act in actions):
            return idx
    return None
