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
by unit vectors.  A module of dimension p^m keeps its certified prefix T
there (`GModule.certified_prefix`): the ranks below T step down the chain
one at a time under the action.  It is grown lazily, once per module, as
`wm_module` memoises the modules.  Three callers read it:
`submodule_closure` returns a chain member, with no elimination, for a
seed space whose highest rank is below T; the chain check and `cli chain`
accept a layer by `certified_chain`; and the family build's invariance
test is a `submodule_closure`.  Normality of the layer preimages is one
triangularity test (`chain_layers_normal`).  The referees stay off the
certificate: `closure_by_rounds` (the rounds loop, which also closes a
stack of seed spaces at once; `commutator_subspace`, `uniserial_chain`
and the oracle census call it),
`compute_rm` and `first_non_normal_layer`.  They are also the path taken
when the certificate is refused.  The group <-> module dictionary reads
each layer off the pcgs with no elimination (`layer_basis`).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb
from typing import Sequence

import numpy as np

from .engine import extend
from .linalg import Echelon, FpSubspace
from .trees import (Portrait, _Tables, _conjugate_rows, _portraits, _stack,
                    compose_rows, inverse_rows, power_rows)

IndexTuple = tuple[int, ...]


# entries of int64 per block of the certified prefix: gens x rows x dim
CERT_BLOCK_ENTRIES = 2**18


class GModule:
    """Finite F_pG permutation module: each generator permutes the
    coordinates of F_p^dim and acts on row vectors from the right,
    (v.g)[perm[i]] = v[i].  The permutation arrays are read-only, as
    `wm_module` shares its modules among callers, who then also share a
    module's certified prefix (`certified_prefix`)."""

    def __init__(self, p: int, dim: int, perms: dict[str, Sequence[int]]):
        self.p = p
        self.dim = dim
        self.perms: dict[str, np.ndarray] = {}
        self._gather: dict[str, np.ndarray] = {}
        for k, perm in perms.items():
            perm = np.array(perm, dtype=np.intp)
            # the inverse by scatter: every entry is set iff perm is a
            # bijection (np.argsort would map in the sort kernels' pages)
            gather = np.full(dim, -1, dtype=np.intp)
            if perm.shape == (dim,) and ((perm >= 0) & (perm < dim)).all():
                gather[perm] = np.arange(dim)
            if (gather < 0).any():
                raise ValueError(
                    f"action {k} is not a permutation of range({dim})")
            perm.flags.writeable = gather.flags.writeable = False
            self.perms[k] = perm
            self._gather[k] = gather
        # m with p^m = dim, 0 when there is no Jennings basis
        self.level = next((m for m in range(1, dim.bit_length() + 1)
                           if p**m == dim), 0)
        self._prefix, self._stopped = 0, not (self.level and self.perms)

    def act(self, rows: np.ndarray, name: str) -> np.ndarray:
        """The images v.g of a vector or of every row of a matrix under the
        generator `name`: one index gather."""
        return rows.take(self._gather[name], axis=-1)

    def certified_prefix(self, rank: int) -> int:
        """The certified prefix T, grown until it passes `rank` or stops.

        T is the largest t such that for every row i < t of every
        C_g = (W g - W) W^-1 (W: `_jennings`), row i is zero on and above
        the diagonal and, for i >= 1, some C_g[i, i-1] is nonzero; so
        w_i (g - 1) lies in V_(i-1) and, for some g, not in V_(i-2).  It is
        0 without a Jennings basis.  Rows are certified a block at a time,
        never past the block that holds `rank`."""
        while self._prefix <= min(rank, self.dim - 1) and not self._stopped:
            self._extend()
        return self._prefix

    def _extend(self) -> None:
        """Certify the next block of rows of every C_g with one product; a
        block has at most CERT_BLOCK_ENTRIES / (gens dim) rows."""
        start, p = self._prefix, self.p
        end = min(self.dim, start + max(
            1, CERT_BLOCK_ENTRIES // (len(self.perms) * self.dim)))
        w, winv = _jennings(p, self.level)
        w, winv = w[start:end].astype(np.int64), winv.astype(np.int64)
        done = _triangular_rows([self.act(w, k) for k in self.perms], w, winv,
                                p, start, descending=True)
        self._prefix += done
        self._stopped = done < end - start


@lru_cache(maxsize=None)
def wm_module(inst, m: int) -> GModule:
    """W_m as the permutation module on level-m vertices: each generator
    acts by its vertex action, (v.g) at u = v at u^(g^-1).  Memoised per
    (instance, m), so the module's certified prefix is computed once."""
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
    (x - 1)^e (x) w for e >= p - 1 - s, w the generator of rank q.  Its
    rows are read-only, as the cache shares it."""
    if t == 0:
        space = FpSubspace(p, p**m)
    elif m == 1:
        space = FpSubspace(p, p, _pascal(p)[p - t:])
    else:
        q, s = divmod(t - 1, p)
        basis = Echelon(p, p**m)    # a block sum of RREF bases is in RREF
        basis.bases[0] = np.kron(np.eye(p, dtype=np.int64),
                                 chain_module(p, m - 1, q).echelon().bases[0])
        w = canonical_generator_vec(p, tuple_from_rank(q, p, m - 1))
        basis.add_span(np.kron(_pascal(p)[p - 1 - s:], w))
        space = basis.subspace()
    space.rows.flags.writeable = False
    return space


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


def _triangular_rows(images, w: np.ndarray, winv: np.ndarray, p: int,
                     start: int = 0, descending: bool = False) -> int:
    """How many leading rows i = start, start + 1, ... of the matrices
    C = (x - w) W^-1 are zero on and above the diagonal in every C, and,
    with `descending`, for i >= 1 nonzero at (i, i-1) in some C.  The x are
    the images of the rows w (the ranks from `start` on, int64, as winv),
    one matrix per map, and every C comes from one product."""
    steps = (np.stack(images) - w) @ winv % p
    for k, i in enumerate(range(start, start + len(w))):
        if steps[:, k, i:].any() or (
                descending and i and not steps[:, k, i - 1].any()):
            return k
    return len(w)


def _top_rank(rows, p: int, m: int) -> int:
    """The highest Jennings rank of the span of rows: the last column where
    rows W^-1 is nonzero, -1 for the zero space."""
    winv = _jennings(p, m)[1].astype(np.int64)
    support = (np.asarray(rows, dtype=np.int64) @ winv % p).any(axis=0)
    return int(np.where(support, np.arange(p**m), -1).max())


# -- closures ---------------------------------------------------------------


def submodule_closure(seeds: FpSubspace, mod: GModule) -> FpSubspace:
    """Smallest action-invariant subspace containing the seed space.

    A seed space whose highest Jennings rank r is below the module's
    certified prefix T closes to V_(r) = chain_module(p, m, r + 1), with
    no elimination: it lies in V_(r), which is invariant, and it has an
    element of rank r, which generates V_(r) (certified_chain's
    induction).  The other seeds go through `closure_by_rounds`.
    """
    p, m = mod.p, mod.level
    if m:
        r = _top_rank(seeds.rows, p, m)
        if r < mod.certified_prefix(r):
            return chain_module(p, m, r + 1)
    return closure_by_rounds(seeds, mod)


def closure_by_rounds(seeds: Echelon | FpSubspace,
                      mod: GModule) -> Echelon | FpSubspace:
    """submodule_closure by elimination alone, reading no certificate: the
    referees (`commutator_subspace`, the oracle census) call it.

    Each round applies the generators to the frontier of every open basis
    (at first its seed rows, then the rows it gained in the last round),
    reduces all images in one product and inserts candidate j of every
    open basis at once; a basis leaves the stack when a round adds nothing.
    """
    if isinstance(seeds, FpSubspace):
        return closure_by_rounds(seeds.echelon(), mod).subspace()
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
    return closure_by_rounds(FpSubspace(mod.p, u.ambient, seed % mod.p), mod)


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


def is_chain_member(u: FpSubspace, m: int) -> bool:
    """Whether U is V_(dim U - 1): U W^-1 vanishes at ranks >= dim U."""
    return _top_rank(u.rows, u.p, m) < u.dim


def certified_chain(u: FpSubspace, mod: GModule, m: int) -> bool:
    """Whether U (dimension t) is V_(t-1) (is_chain_member) and
    uniserial_chain(U) is V_(t-1) > ... > V_(0) > 0, with no closure.

    Then t <= T, mod's certified prefix, suffices: (i) each C_g =
    (W g - W) W^-1 is strictly lower triangular in rows < t, so every
    V_(i), i < t, is invariant, and (ii) for each i in 1..t-1 some
    C_g[i, i-1] is nonzero: V_(i-1) is generated by any element with a
    nonzero coefficient at rank i-1 (induction), so [V_(i), G] = V_(i-1).
    False decides nothing."""
    t = u.dim
    return is_chain_member(u, m) and t <= mod.certified_prefix(t - 1)


def layer_chain(u: FpSubspace, mod: GModule, m: int):
    """uniserial_chain(u, mod), with the members read off chain_module when
    certified_chain holds."""
    if certified_chain(u, mod, m):
        return [chain_module(u.p, m, k) for k in range(u.dim, -1, -1)], None
    return uniserial_chain(u, mod)


# -- the R_m computation -----------------------------------------------------


def compute_rm(u: FpSubspace, m: int) -> dict:
    """R_m data for the layer image U of St(m) in W_m (image_in_wm), the
    referee of is_chain_member: U must equal a chain module V_j; then R_m
    is everything below that tuple.

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


def layer_basis(g_n, m: int):
    """(basis, U, T) of the layer St(m)/St(m+1) of g_n, built once: the
    pcgs elements with pivot on level m as a stack, in pivot order (the
    first ones of the memoised St(m), `Subgroup.stabilizer`); their
    level-m labels L are echelon with leading label 1, so U = T L, the
    image in W_m, is RREF after one back-substitution over [L | I], and a
    vector V of U is (V at U's pivots) T times L."""
    layers = vars(g_n).setdefault("_layers", {})
    if m not in layers:
        if not 0 <= m < g_n.depth:
            raise ValueError("need 0 <= m < depth")
        p, t = g_n.p, _Tables(g_n.p, g_n.depth)
        rank = g_n.level_dims()[m]
        elems = g_n.stabilizer(m).gens if m else g_n.pcgs.elements()
        basis = _stack(elems[:rank], t)
        labels = basis[0][:, t.label_slice(m)]
        pivots = (labels != 0).argmax(axis=1)
        aug = np.concatenate([labels, np.eye(rank, dtype=np.int64)], axis=1)
        # bottom up, clear each row at the pivots of the reduced rows below
        for i in range(rank - 2, -1, -1):
            aug[i] = (aug[i] - aug[i, pivots[i + 1:]] @ aug[i + 1:]) % p
        image = FpSubspace._canonical(p, aug[:, :p**m].astype(np.int8),
                                      pivots.tolist())
        layers[m] = basis, image, aug[:, p**m:]
    return layers[m]


def image_in_wm(g_n, m: int) -> FpSubspace:
    """The image of St(m) in W_m, the row space of its level-m labels."""
    return layer_basis(g_n, m)[1]


def _coordinates(g_n, m: int, vecs):
    """The layer basis and the coordinates in it of vectors of the image."""
    basis, image, solve = layer_basis(g_n, m)
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, image.ambient)
    if image.reduce(vecs).any():
        raise ValueError("vector not in the image of St(m)")
    return basis, vecs[:, image.pivots] @ solve % g_n.p


def layer_representatives(g_n, m: int, vecs) -> list[Portrait]:
    """Elements of St(m) whose level-m labels equal the given vectors of
    the layer image: products of powers of the layer basis in pivot order,
    the exponents the vectors' coordinates."""
    t = _Tables(g_n.p, g_n.depth)
    basis, coeffs = _coordinates(g_n, m, vecs)
    # every representative at once: the stack of products so far times,
    # row by row, the power of the next basis element that the row's
    # coordinate picks from a table of powers
    table = [power_rows(t, *basis, e) for e in range(g_n.p)]
    pow_lab, pow_perm = (np.stack(rows, axis=1) for rows in zip(*table))
    x = _stack([Portrait.identity(g_n.p, g_n.depth)] * len(coeffs), t)
    for k in np.flatnonzero(coeffs.any(axis=0)):
        x = compose_rows(t, *x, pow_lab[k], pow_perm[k], coeffs[:, k])
    return _portraits(g_n.p, g_n.depth, x)


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
    Conjugation is computed on portraits, on the layer basis, not read
    off the permutation module, so this is an independent view of the
    action; it is linear on the layer, so row i follows by coordinates.
    """
    t = _Tables(g_n.p, g_n.depth)
    basis, coeffs = _coordinates(g_n, m, vecs)
    actions = []
    for g in g_n.gens:
        lab, _ = _conjugate_rows(t, basis, (g.lab, g.perm),
                                 inverse_rows(t, g.lab, g.perm))
        actions.append(coeffs @ lab[:, t.label_slice(m)] % g_n.p)
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
    return _triangular_rows(images, w[:t], winv, g_n.p) == t


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
