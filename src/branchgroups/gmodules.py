"""F_pG-modules attached to the congruence layers of a tree group.

The m-th layer St_S(m)/St_S(m+1) of the Sylow pro-p group is the
permutation module W_m on the level-m vertices: for x in St(m) the
level-m labels of x^g are those of x permuted by g's vertex action
(labels are abelian).  Every module here is a permutation module, held
as one coordinate permutation per generator.  The generic psi-twisted
p-fold direct sum is implemented as well, from psi words rather than
portraits, and is checked against this shortcut permutation by
permutation.

The distinguished submodule chain of W_m has one member per dimension
t = 0..p^m, and `chain_module(p, m, t)` indexes it so.  Its generators
are Kronecker products of rows of one Pascal table, the coefficients of
(x - 1)^e mod p; each member is the block sum of a level-(m-1) member
plus the span of such products.  The paper's tuples j in {1..p}^m, with
a sentinel (0,p,...,p) for the zero space, are a display format only:
V_j is the member of dimension tuple_rank(j) + 1.

In the Jennings basis of W_m (`_jennings`) every chain member is spanned
by unit vectors, so the chain check is certified there by triangularity
tests (`certified_chain`, `chain_layers_normal`); `uniserial_chain`,
`compute_rm` and `first_non_normal_layer` are the referees and the
failing path.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb
from typing import Sequence

import numpy as np

from .engine import extend
from .linalg import Echelon, FpSubspace, rref
from .trees import (Portrait, _Tables, _conjugate_rows, _portraits, _stack,
                    compose_rows, inverse_rows, power_rows)

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


# -- the submodule chain -----------------------------------------------------


@lru_cache(maxsize=None)
def _pascal(p: int) -> np.ndarray:
    """Row e holds the coefficients of (x - 1)^e mod p, lowest degree
    first; read-only, as the cache shares it."""
    table = np.array([[comb(e, i) * (-1)**(e - i) % p for i in range(p)]
                      for e in range(p)], dtype=np.int64)
    table.flags.writeable = False
    return table


def tuple_rank(j: IndexTuple, p: int) -> int:
    """The rank of j in the lexicographic order of {1..p}^m, 0 at (1,...,1);
    -1 for the sentinel (0,p,...,p), which stands for the zero module."""
    j = tuple(j)
    if j[:1] == (0,) and j[1:] == (p,) * (len(j) - 1):
        return -1
    if not j or not all(1 <= x <= p for x in j):
        raise ValueError(f"{j} is neither a sentinel nor in {{1..{p}}}^m")
    return sum((x - 1) * p**k for k, x in enumerate(reversed(j)))


def tuple_from_rank(rank: int, p: int, m: int) -> IndexTuple:
    if rank < 0:
        return (0,) + (p,) * (m - 1)
    return tuple(int(d) + 1 for d in np.unravel_index(rank, (p,) * m))


def canonical_generator_vec(p: int, j: IndexTuple) -> np.ndarray:
    """The generator w_j of V_j: the Kronecker product of the rows
    (x - 1)^(p - j_k), the last entry outermost."""
    if tuple_rank(j, p) < 0:
        raise ValueError("the zero module has no generator")
    return reduce(np.kron, [_pascal(p)[p - x] for x in reversed(j)]) % p


@lru_cache(maxsize=None)
def chain_module(p: int, m: int, t: int) -> FpSubspace:
    """The chain member of dimension t in W_m.  With t - 1 = p q + s, it is
    the block sum of the level-(m-1) member of dimension q plus the span of
    (x - 1)^e (x) w for e >= p - 1 - s, w the generator of rank q."""
    if t == 0:
        return FpSubspace(p, p**m)
    if m == 1:
        return FpSubspace(p, p, _pascal(p)[p - t:])
    q, s = divmod(t - 1, p)
    basis = Echelon(p, p**m)    # a block sum of RREF bases is in RREF
    basis.bases[0] = np.kron(np.eye(p, dtype=np.int64),
                             chain_module(p, m - 1, q).echelon().bases[0])
    w = canonical_generator_vec(p, tuple_from_rank(q, p, m - 1))
    basis.add_span(np.kron(_pascal(p)[p - 1 - s:], w))
    return basis.subspace()


def vj_basis(p: int, j: IndexTuple) -> FpSubspace:
    """V_j of W_m (m = len(j)): the chain member of dimension
    tuple_rank(j) + 1."""
    return chain_module(p, len(j), tuple_rank(j, p) + 1)


@lru_cache(maxsize=None)
def _jennings(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, W^-1), W's row r the chain generator w_r of rank r, so the chain
    member of dimension t is the span of W[:t]: Kronecker powers of the
    Pascal table P and of P^-1 (C(i, e) mod p), reversed and put in rank
    order.  int8 (p <= MAX_PRIME) and read-only, as the cache shares them."""
    def power(table):
        return reduce(lambda a, b: np.kron(a, b) % p, [table] * m,
                      np.ones((1, 1), dtype=np.int64))
    inverse = np.array([[comb(i, e) % p for e in range(p)]
                        for i in range(p)], dtype=np.int64)
    rank_order = [0]
    for _ in range(m):      # entry r: r with its base-p digits reversed
        rank_order = [r * p + d for d in range(p) for r in rank_order]
    w = power(_pascal(p)[::-1])[rank_order].astype(np.int8)
    winv = power(inverse[:, ::-1])[:, rank_order].astype(np.int8)
    w.flags.writeable = winv.flags.writeable = False
    return w, winv


def _jennings_steps(images, w: np.ndarray, winv: np.ndarray,
                    p: int) -> np.ndarray | None:
    """The Jennings coordinates (x_i - w_i) W^-1 for each matrix of images
    x_i of w_i (w, winv: _jennings in int64), stacked; None unless all are
    strictly lower triangular, i.e. each span of w_0..w_i is invariant."""
    t = len(images[0])
    steps = (np.stack(images) - w[:t]) @ winv % p
    return None if any(steps[:, i, i:].any() for i in range(t)) else steps


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


def certified_chain(u: FpSubspace, mod: GModule, m: int) -> bool:
    """Whether U (dimension t) is V_(t-1), the span of w_0..w_(t-1), and
    uniserial_chain(U) is V_(t-1) > ... > V_(0) > 0, with no closure.

    U = V_(t-1) iff U W^-1 vanishes at ranks >= t.  Then it suffices that
    (i) each C_g = (W[:t] g - W[:t]) W^-1 is strictly lower triangular, so
    every V_(i) is invariant, and (ii) for each i in 1..t-1 some C_g[i, i-1]
    is nonzero: V_(i-1) is generated by any element with a nonzero
    coefficient at rank i-1 (induction), so [V_(i), G] = V_(i-1).  False
    decides nothing."""
    p, t = u.p, u.dim
    w, winv = (a.astype(np.int64) for a in _jennings(p, m))
    if (u.rows.astype(np.int64) @ winv[:, t:] % p).any():
        return False
    steps = _jennings_steps([mod.act(w[:t], k) for k in mod.perms], w, winv,
                            p)
    i = np.arange(1, t)
    return steps is not None and bool(steps[:, i, i - 1].any(axis=0).all())


def layer_chain(u: FpSubspace, mod: GModule, m: int):
    """uniserial_chain(u, mod), with the members read off chain_module when
    certified_chain holds."""
    if certified_chain(u, mod, m):
        return [chain_module(u.p, m, k) for k in range(u.dim, -1, -1)], None
    return uniserial_chain(u, mod)


# -- the R_m computation -----------------------------------------------------


def compute_rm(u: FpSubspace, m: int) -> dict:
    """R_m data for the layer image U of St(m) in W_m (Subgroup.image_in_wm):
    U must equal a chain module V_j; then R_m is everything below that
    tuple.

    Returns {"t": dim U, "j_max": tuple, "match": bool, ...}; a failed
    match carries the computed subspace as a falsification witness.
    """
    t = u.dim
    j_max = tuple_from_rank(t - 1, u.p, m)
    v = chain_module(u.p, m, t)
    if v == u:
        return {"t": t, "j_max": j_max, "match": True}
    return {"t": t, "j_max": j_max, "match": False,
            "witness": {"image_basis": u.basis_digits(),
                        "candidate_basis": v.basis_digits()}}


# -- group <-> module dictionary --------------------------------------------


def _layer_system(g_n, m: int):
    """St(m)'s generators and their level-m labels A (one row each) as a
    reduced system, computed once per (quotient, m): the pivot
    generators, the rows E of the transform with E A^T = rref(A^T) at
    those pivots, and the rows N with N A^T = 0.  For vectors B in the
    image, E B^T is the solution of A^T c = B^T that is zero at every
    other generator, the one rref([A^T | B^T]) gives."""
    systems = vars(g_n).setdefault("_layer_systems", {})
    if m not in systems:
        gens = g_n.stabilizer(m).gens
        mat = np.array([g.level_labels(m) for g in gens],
                       dtype=np.int64).reshape(len(gens), g_n.p**m)
        rows, pivots = rref(np.concatenate(
            [mat.T, np.eye(g_n.p**m, dtype=np.int64)], axis=1), g_n.p)
        rank = sum(c < len(gens) for c in pivots)
        rows = rows[:, len(gens):]
        systems[m] = gens, pivots[:rank], rows[:rank], rows[rank:]
    return systems[m]


def _representative_rows(g_n, m: int, vecs) -> tuple[np.ndarray, np.ndarray]:
    """The stack of layer_representatives."""
    p = g_n.p
    t = _Tables(p, g_n.depth)
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, p**m)
    if not len(vecs):
        return _stack([], t)
    gens, pivots, solve, null = _layer_system(g_n, m)
    if not gens:
        raise ValueError("empty stabilizer cannot represent a nonzero vector")
    if (null.astype(np.int64) @ vecs.T % p).any():
        raise ValueError("vector not in the image of St(m)")
    coeffs = np.zeros((len(vecs), len(gens)), dtype=np.int64)
    coeffs[:, pivots] = (solve.astype(np.int64) @ vecs.T % p).T
    # every representative at once, in the generators' order: the stack
    # of products so far times, row by row, the power of the next
    # generator that the row's coefficient picks from a table of powers
    table = [power_rows(t, *_stack(gens, t), e) for e in range(p)]
    pow_lab = np.stack([lab for lab, _ in table], axis=1)
    pow_perm = np.stack([perm for _, perm in table], axis=1)
    x = _stack([Portrait.identity(p, g_n.depth)] * len(vecs), t)
    for k in np.flatnonzero(coeffs.any(axis=0)):
        x = compose_rows(t, *x, pow_lab[k], pow_perm[k], coeffs[:, k])
    return x


def layer_representatives(g_n, m: int, vecs) -> list[Portrait]:
    """Elements of St(m) whose level-m labels equal the given vectors, as
    products of stabilizer generators (one linear system over F_p, reduced
    once per (quotient, m), with a right-hand side per vector)."""
    return _portraits(g_n.p, g_n.depth, _representative_rows(g_n, m, vecs))


def layer_preimage(g_n, m: int, space: FpSubspace):
    """The subgroup N with St(m+1) <= N <= St(m) whose layer image is the
    given invariant subspace: generated by representatives plus St(m+1),
    whose closed pcgs is extended by the representatives."""
    reps = layer_representatives(g_n, m, space.rows)
    st_next = g_n.stabilizer(m + 1)
    return extend(st_next, reps, reps + st_next.gens)


def layer_conjugation(g_n, m: int, vecs) -> list[np.ndarray]:
    """The conjugation action of g_n on its layer U = image of St(m) in W_m.

    Returns, per generator g of g_n, the matrix whose row i is the level-m
    labels of x_i^g, where x_i represents vecs[i], a vector of U.
    Conjugation is computed on portraits, not read off the permutation
    module, so this is an independent view of the action.
    """
    t = _Tables(g_n.p, g_n.depth)
    reps = _representative_rows(g_n, m, vecs)
    actions = []
    for g in g_n.gens:
        lab, _ = _conjugate_rows(t, reps, (g.lab, g.perm),
                                 inverse_rows(t, g.lab, g.perm))
        actions.append(lab[:, t.label_slice(m)].astype(np.int64))
    return actions


def first_non_normal_layer(g_n, m: int, u: FpSubspace,
                           spaces) -> int | None:
    """Index of the first subspace of U = image of St(m) in W_m whose
    layer preimage is not normal in g_n, or None when all are normal.

    For St(m+1) <= N <= St(m), N is normal exactly when its image is
    invariant under the conjugation action of g_n on U.  Coordinates in
    U's echelon basis are the entries at U's pivots, so each space is
    tested with one product per generator.
    """
    actions = layer_conjugation(g_n, m, u.rows)
    for idx, space in enumerate(spaces):
        coords = space.rows[:, u.pivots].astype(np.int64)
        if any(space.reduce(coords @ act).any() for act in actions):
            return idx
    return None


def chain_layers_normal(g_n, m: int, t: int) -> bool:
    """Whether every V_(i), i < t, pulls back to a normal subgroup, for the
    layer of St(m) certified as V_(t-1): layer_conjugation on w_0..w_(t-1)
    is lower triangular in the Jennings basis (first_non_normal_layer is
    the referee)."""
    w, winv = (a.astype(np.int64) for a in _jennings(g_n.p, m))
    images = layer_conjugation(g_n, m, w[:t])
    return _jennings_steps(images, w, winv, g_n.p) is not None


def check_chain_layer(v, g_n, m: int, u: FpSubspace, mod: GModule) -> None:
    """Record on the Verdict v that the layer U of St(m) is uniserial, is
    V_j and pulls back to normal subgroups layer by layer: by certified_chain
    and chain_layers_normal, else by the referees, which give the witnesses.
    Both paths record the same text."""
    t = u.dim
    certified = certified_chain(u, mod, m)
    chain, bad = ([], None) if certified else uniserial_chain(u, mod)
    if not v.record(
            f"chain m={m}", bad is None,
            f"pass: length {t}" if bad is None else f"fail: {bad['reason']}",
            witness=lambda: {"level": m, **bad,
                             "upper_basis": chain[-2].basis_digits()
                             if len(chain) >= 2 else []}):
        return
    rm = ({"j_max": tuple_from_rank(t - 1, u.p, m), "match": True}
          if certified else compute_rm(u, m))
    v.record(f"image=V_j m={m}", rm["match"],
             f"pass: j_max={rm['j_max']}" if rm["match"] else "fail",
             witness=lambda: {"level": m, **rm.get("witness", {})})
    v.record(f"preimages normal m={m}", chain_layers_normal(g_n, m, t)
             if certified else first_non_normal_layer(g_n, m, u, chain) is None)
