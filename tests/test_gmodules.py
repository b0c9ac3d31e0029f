import itertools

import numpy as np
import pytest

from branchgroups import gmodules
from branchgroups.catalog import fabrykowski_gupta, make_ggs, make_sunic, preset
from branchgroups.gmodules import (CERT_BLOCK_ENTRIES, GModule, _jennings,
                                   _pascal, canonical_generator_vec,
                                   certified_chain, chain_layers_normal,
                                   chain_module, closure_by_rounds,
                                   commutator_subspace, compute_rm,
                                   first_non_normal_layer, image_in_wm,
                                   is_chain_member, iterated_twisted_sum,
                                   layer_basis, layer_chain,
                                   layer_conjugation, layer_preimage,
                                   layer_representatives, submodule_closure,
                                   tuple_from_rank, tuple_rank,
                                   uniserial_chain, vj_basis, wm_module)
from branchgroups.context import GroupContext
from branchgroups.engine import Subgroup
from branchgroups.linalg import Echelon, FpSubspace, full_space, rref
from branchgroups.trees import Portrait, rooted_a


def rm_tuples(j_max, p):
    """All members of R_m when it matches a chain prefix (small m only)."""
    m = len(j_max)
    return [tuple_from_rank(r, p, m) for r in range(tuple_rank(j_max, p) + 1)]


# -- index tuples ------------------------------------------------------------

def test_tuple_rank_examples():
    assert tuple_rank((1,), 3) == 0
    assert tuple_rank((1, 3), 3) == 2
    assert tuple_rank((2, 1), 3) == 3
    assert tuple_rank((3, 3), 3) == 8
    assert tuple_rank((0,), 3) == tuple_rank((0, 3), 3) == -1


def test_tuple_rank_follows_lex_order():
    for p, m in ((2, 4), (3, 2)):
        ranks = [tuple_rank(j, p)
                 for j in itertools.product(range(1, p + 1), repeat=m)]
        assert ranks == list(range(p**m))


@pytest.mark.parametrize("j", [(), (4,), (1, 0), (2, 4), (-1, 3), (0, 1),
                               (0, 3, 2), (0, 0)])
def test_malformed_tuples_are_rejected(j):
    with pytest.raises(ValueError):
        tuple_rank(j, 3)
    with pytest.raises(ValueError):
        vj_basis(3, j)
    with pytest.raises(ValueError):
        canonical_generator_vec(3, j)


def test_the_sentinel_has_no_generator():
    assert vj_basis(3, (0, 3)).dim == 0
    with pytest.raises(ValueError, match="no generator"):
        canonical_generator_vec(3, (0, 3))


def test_tuple_rank_roundtrip():
    for p, m in ((3, 3), (5, 2)):
        for r in range(p**m):
            assert tuple_rank(tuple_from_rank(r, p, m), p) == r


# -- the V_j chain -------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5])
def test_level_one_dims(p):
    for j in range(1, p + 1):
        assert vj_basis(p, (j,)).dim == j
    assert vj_basis(p, (0,)).dim == 0


def test_level_one_paper_bases():
    v = vj_basis(3, (2,))
    assert v.contains_vector([1, -1, 0]) and v.contains_vector([0, 1, -1])
    assert vj_basis(3, (1,)).contains_vector([1, 1, 1])
    assert vj_basis(5, (3,)).contains_vector([1, -2, 1, 0, 0])


def previous(j, p):
    """The tuple one rank below j (the sentinel below (1,...,1))."""
    return tuple_from_rank(tuple_rank(j, p) - 1, p, len(j))


@pytest.mark.parametrize("p,mmax", [(3, 3), (5, 2)])
def test_dim_formula_and_chain_structure(p, mmax):
    for m in range(1, mmax + 1):
        for j in itertools.product(range(1, p + 1), repeat=m):
            v = vj_basis(p, j)
            assert v.dim == tuple_rank(j, p) + 1
            lower = vj_basis(p, previous(j, p))
            assert v.contains(lower) and v.dim == lower.dim + 1
            assert v.contains_vector(canonical_generator_vec(p, j))
            assert not lower.contains_vector(canonical_generator_vec(p, j))


@pytest.mark.parametrize("p", [11, 13, pytest.param(17, marks=pytest.mark.slow)])
def test_level_two_chain_modules_are_submodules(p):
    # int8 products c * w wrap around once p >= 13; every V_j must still be
    # closed under the action and contain its canonical generator
    mod = wm_module(fabrykowski_gupta(p), 2)
    for j in itertools.product(range(1, p + 1), repeat=2):
        v = vj_basis(p, j)
        assert v.dim == tuple_rank(j, p) + 1
        assert closure_by_rounds(v, mod) == v
        w = canonical_generator_vec(p, j)
        assert v.contains_vector(w)
        assert not vj_basis(p, previous(j, p)).contains_vector(w)


# -- the Jennings basis ---------------------------------------------------------

JENNINGS_CASES = [(p, m) for p in (2, 3, 5, 7, 11, 13, 17)
                  for m in range(1, 9) if p**m <= 343 and (p, m) != (17, 2)]


def assert_jennings_basis(p, m, ranks):
    """W W^-1 = I, row r of W is w_r, and span(W[:t]) = chain_module(p, m, t)
    for each t in ranks: the member has dimension t and no coordinate at
    rank >= t, so it lies in the span of W[:t], which has dimension t."""
    w, winv = (a.astype(np.int64) for a in _jennings(p, m))
    assert np.array_equal(w @ winv % p, np.eye(p**m, dtype=np.int64))
    assert all(np.array_equal(w[r], canonical_generator_vec(
        p, tuple_from_rank(r, p, m))) for r in range(p**m))
    for t in ranks:
        member = chain_module(p, m, t)
        assert member.dim == t, (p, m, t)
        assert not (member.rows.astype(np.int64) @ winv[:, t:] % p).any()


@pytest.mark.parametrize("p,m", JENNINGS_CASES)
def test_jennings_basis_spans_every_chain_member(p, m):
    assert_jennings_basis(p, m, range(p**m + 1))


def test_jennings_basis_at_p17_sampled():
    ranks = np.random.default_rng(17).choice(290, 24, replace=False)
    assert_jennings_basis(17, 2, [0, 1, 289, *ranks.tolist()])


def test_jennings_tables_are_read_only():
    for table in _jennings(3, 2):
        assert table.dtype == np.int8 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


# -- modules -------------------------------------------------------------------

def permutation_matrix(perm) -> np.ndarray:
    """Dense reference form of a coordinate permutation: row i has its 1
    in column perm[i], so v @ matrix moves v[i] to perm[i]."""
    n = len(perm)
    mat = np.zeros((n, n), dtype=np.int64)
    mat[np.arange(n), perm] = 1
    return mat


def test_wm_actions_are_permutations():
    fg = fabrykowski_gupta(3)
    for m in (1, 2):
        mod = wm_module(fg, m)
        for perm in mod.perms.values():
            assert sorted(perm) == list(range(3**m))


@pytest.mark.parametrize("inst,levels", [
    (preset("fg3"), (1, 2, 3)), (preset("gs3"), (1, 2, 3)),
    (preset("sunic-grigorchuk"), (1, 2, 3, 4)), (fabrykowski_gupta(17), (2,))],
    ids=["fg3", "gs3", "grigorchuk", "fg17"])
def test_wm_action_matches_dense_permutation_matrix(inst, levels):
    rng = np.random.default_rng(7)
    for m in levels:
        mod = wm_module(inst, m)
        rows = rng.integers(0, inst.p, size=(5, mod.dim))
        for name, g in zip(inst.gen_names, inst.generators(m)):
            dense = permutation_matrix(g.vertex_perm(m))
            assert np.array_equal(mod.act(rows, name), rows @ dense % inst.p)
            assert np.array_equal(mod.act(rows[0], name),
                                  rows[0] @ dense % inst.p)


@pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 3], [-1, 0, 1],
                                  np.eye(3, dtype=np.int64)])
def test_gmodule_rejects_non_permutation(perm):
    with pytest.raises(ValueError, match="not a permutation"):
        GModule(3, 3, {"a": perm})


def test_pascal_rows_match_dense():
    # row k of the table is row 0 of (A - I)^k for the p-cycle A on level 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
              59, 61):
        a_minus_i = (permutation_matrix((np.arange(p) + 1) % p)
                     - np.eye(p, dtype=np.int64)) % p
        dense = np.eye(p, dtype=np.int64)
        for k in range(p):
            assert np.array_equal(_pascal(p)[k], dense[0]), (p, k)
            dense = dense @ a_minus_i % p


def test_pascal_table_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        _pascal(5)[1, 0] = 0


def test_constant_vector_fixed():
    fg = fabrykowski_gupta(3)
    mod = wm_module(fg, 2)
    ones = np.ones(9, dtype=np.int64)
    for name in mod.perms:
        assert np.array_equal(mod.act(ones, name), ones)


@pytest.mark.parametrize("name,mmax", [("fg3", 3), ("gs3", 2),
                                       ("sunic-grigorchuk", 3)])
def test_twisted_iterate_matches_permutation_module(name, mmax):
    inst = preset(name)
    for m in range(1, mmax + 1):
        tw = iterated_twisted_sum(inst, m)
        wm = wm_module(inst, m)
        assert tw.perms.keys() == wm.perms.keys()
        for k in wm.perms:
            assert np.array_equal(tw.perms[k], wm.perms[k])


def test_twisted_dim_scales_by_p():
    fg = fabrykowski_gupta(3)
    from branchgroups.gmodules import twisted_sum
    w1 = wm_module(fg, 1)
    assert twisted_sum(w1, fg).dim == 3 * w1.dim


# -- closures -------------------------------------------------------------------

def test_closure_of_zero_is_zero():
    fg = fabrykowski_gupta(3)
    mod = wm_module(fg, 1)
    assert submodule_closure(FpSubspace(3, 3), mod).dim == 0


def test_closure_of_constants():
    fg = fabrykowski_gupta(3)
    mod = wm_module(fg, 1)
    assert submodule_closure(FpSubspace(3, 3, [[1, 1, 1]]), mod) == vj_basis(3, (1,))


def test_w1_commutator_is_vpminus1():
    fg = fabrykowski_gupta(3)
    mod = wm_module(fg, 1)
    assert commutator_subspace(full_space(3, 3), mod) == vj_basis(3, (2,))
    assert commutator_subspace(vj_basis(3, (1,)), mod).dim == 0


def referee_modules():
    """(p, m, W_m) for groups whose W_m is uniserial, so that the action
    alone fixes the chain: Grigorchuk for m <= 6, FG at p = 3 and 5 for
    m <= 3."""
    for inst, mmax in ((preset("sunic-grigorchuk"), 6), (preset("fg3"), 3),
                       (fabrykowski_gupta(5), 3)):
        for m in range(1, mmax + 1):
            yield inst.p, m, wm_module(inst, m)


def test_cyclic_closures_recover_chain():
    for p, m, mod in referee_modules():
        for j in itertools.product(range(1, p + 1), repeat=m):
            seed = FpSubspace(p, p**m, [canonical_generator_vec(p, j)])
            assert closure_by_rounds(seed, mod) == vj_basis(p, j), j


def test_commutator_steps_down_the_chain():
    for p, m, mod in referee_modules():
        for j in itertools.product(range(1, p + 1), repeat=m):
            v = vj_basis(p, j)
            lower = commutator_subspace(v, mod)
            assert lower.dim == v.dim - 1, j
            assert lower == vj_basis(p, previous(j, p)), j


def test_uniserial_chain_lengths(fg3_ctx):
    fg = fg3_ctx.inst
    mod = wm_module(fg, 2)
    chain, witness = uniserial_chain(full_space(3, 9), mod)
    assert witness is None and len(chain) == 10
    g = fg3_ctx.quotient(3)
    image = image_in_wm(g, 2)
    chain2, witness2 = uniserial_chain(image, mod)
    assert witness2 is None and len(chain2) == 7  # t(2) = 6 strict steps


def test_empty_chain_for_zero():
    fg = fabrykowski_gupta(3)
    mod = wm_module(fg, 1)
    chain, witness = uniserial_chain(FpSubspace(3, 3), mod)
    assert witness is None and len(chain) == 1


def test_gs3_w2_is_not_uniserial():
    # torsion Gupta-Sidki group: the module argument genuinely fails
    gs = preset("gs3")
    mod = wm_module(gs, 2)
    chain, witness = uniserial_chain(full_space(3, 9), mod)
    assert witness is not None


# -- R_m ------------------------------------------------------------------------

def test_rm_fg3(fg3_ctx):
    g = fg3_ctx.quotient(4)
    r1 = compute_rm(image_in_wm(g, 1), 1)
    assert r1["match"] and r1["t"] == 3 and r1["j_max"] == (3,)
    assert rm_tuples(r1["j_max"], 3) == [(1,), (2,), (3,)]
    r2 = compute_rm(image_in_wm(g, 2), 2)
    assert r2["match"] and r2["t"] == 6 and r2["j_max"] == (2, 3)
    assert set(rm_tuples(r2["j_max"], 3)) == {(i, j) for i in (1, 2)
                                              for j in (1, 2, 3)}


def test_rm_remark_group():
    rg = preset("remark-group")
    from branchgroups.engine import group_of
    g = group_of(rg, 3)
    r2 = compute_rm(image_in_wm(g, 2), 2)
    assert r2["match"] and r2["t"] == 24 and r2["j_max"] == (5, 4)
    members = rm_tuples(r2["j_max"], 5)
    assert len(members) == 24 and (5, 5) not in members


def test_rm_ggs5():
    from branchgroups.engine import group_of
    g = group_of(fabrykowski_gupta(5), 3)
    assert compute_rm(image_in_wm(g, 1), 1)["t"] == 5
    assert compute_rm(image_in_wm(g, 2), 2)["t"] == 20


# -- the chain certificate -----------------------------------------------------

def chain_instance(name):
    return fabrykowski_gupta(7) if name == "fg7" else preset(name)


# every preset at the chain check's default depth, deeper Grigorchuk and FG
# at p = 7
CHAIN_CASES = [("fg3", 4), ("fg5", 3), ("gs3", 4), ("sunic-grigorchuk", 4),
               ("remark-group", 3), ("appb-p5", 3), ("sunic-grigorchuk", 6),
               ("fg7", 3)]


@pytest.mark.parametrize("name,depth", CHAIN_CASES)
def test_certificate_agrees_with_its_referees(name, depth):
    inst = chain_instance(name)
    g = GroupContext(inst).quotient(depth)
    verdicts = []
    for m in range(1, depth):
        u, mod = image_in_wm(g, m), wm_module(inst, m)
        chain, witness = uniserial_chain(u, mod)
        referee = witness is None and compute_rm(u, m)["match"]
        verdicts.append(certified_chain(u, mod, m))
        assert verdicts[-1] == referee, m
        if referee:
            assert layer_chain(u, mod, m) == (chain, None)
            assert (chain_layers_normal(g, m, u.dim)
                    == (first_non_normal_layer(g, m, u, chain) is None))
    # gs3 is torsion: its layers 2 and 3 are not uniserial
    assert verdicts == ([True, False, False] if name == "gs3"
                        else [True] * (depth - 1))


@pytest.mark.parametrize("inst,depth", [(preset("sunic-grigorchuk"), 6),
                                        (make_sunic(3, (1, 1)), 4)],
                         ids=["sunic-grigorchuk-6", "sunic3-4"])
def test_chain_membership_agrees_with_compute_rm(inst, depth):
    # the sunic check's R_m clause reads is_chain_member; the image with
    # its top row dropped is a chain member only when compute_rm says so
    g = GroupContext(inst).quotient(depth)
    shrunk = []
    for m in range(1, depth):
        u = image_in_wm(g, m)
        assert is_chain_member(u, m) and compute_rm(u, m)["match"]
        low = FpSubspace(u.p, u.ambient, u.rows[1:])
        shrunk.append(is_chain_member(low, m))
        assert shrunk[-1] == compute_rm(low, m)["match"]
    assert not all(shrunk)


def test_certificate_refuses_what_is_no_certified_chain():
    fg = fabrykowski_gupta(3)
    assert certified_chain(full_space(3, 9), wm_module(fg, 2), 2)
    # gs3's W_2 is not uniserial; span(e_0) in W_1 is no chain member
    assert not certified_chain(full_space(3, 9), wm_module(preset("gs3"), 2),
                               2)
    e0 = FpSubspace(3, 3, [[1, 0, 0]])
    assert not certified_chain(e0, wm_module(fg, 1), 1)
    # a trivial action: every C_g is zero, so condition (ii) fails
    trivial = GModule(3, 9, {"a": range(9), "b": range(9)})
    assert not certified_chain(full_space(3, 9), trivial, 2)
    assert uniserial_chain(full_space(3, 9), trivial)[1] is not None
    # S_3 on three points: (ii) holds through the 3-cycle, but the
    # transposition acts by -1 on V_(1)/V_(0), so C_b is not strictly lower
    # triangular and [V_(1), G] = V_(1)
    s3 = GModule(3, 3, {"a": [1, 2, 0], "b": [1, 0, 2]})
    assert not certified_chain(full_space(3, 3), s3, 1)
    assert uniserial_chain(full_space(3, 3), s3)[1] == {"reason": "no descent",
                                                         "dim": 2}
    assert layer_chain(e0, wm_module(fg, 1), 1) == uniserial_chain(
        e0, wm_module(fg, 1))


def test_triangular_normality_refuses_an_action_that_moves_the_chain(
        fg3_ctx, monkeypatch):
    # the conjugation action followed by a swap of two level-2 coordinates
    # is a linear action that moves some chain member: both tests refuse it
    g = fg3_ctx.quotient(3)
    u = image_in_wm(g, 2)
    chain, witness = uniserial_chain(u, wm_module(fg3_ctx.inst, 2))
    assert witness is None and chain_layers_normal(g, 2, u.dim)
    swap = np.arange(9)
    swap[[0, 1]] = [1, 0]
    conjugation = gmodules.layer_conjugation
    monkeypatch.setattr(gmodules, "layer_conjugation", lambda g_n, m, vecs: [
        act[:, swap] for act in conjugation(g_n, m, vecs)])
    assert first_non_normal_layer(g, 2, u, chain) is not None
    assert not chain_layers_normal(g, 2, u.dim)


# -- the certified prefix --------------------------------------------------------

def counted_extensions(monkeypatch):
    """(module, first row) of every block the certified prefix certifies."""
    calls = []
    extend = GModule._extend

    def counting(mod):
        calls.append((mod, mod._prefix))
        extend(mod)

    monkeypatch.setattr(GModule, "_extend", counting)
    return calls


def test_verify_all_certifies_each_block_once(monkeypatch):
    # the chain check, the family build and the closures share one memoised
    # W_m per (instance, m), so no rows are certified twice in a process
    from branchgroups import cli
    wm_module.cache_clear()
    calls = counted_extensions(monkeypatch)
    assert cli.run(["verify", "all", "--preset", "fg3", "--depth", "4",
                    "--seed", "1"]) == 1      # the known-red fg-lemma
    assert calls and len(set(calls)) == len(calls)
    inst = preset("fg3")
    assert {mod.level for mod, _ in calls} == {1, 2, 3}
    assert all(mod is wm_module(inst, mod.level) for mod, _ in calls)


def test_memoised_modules_are_shared_and_read_only():
    inst = preset("fg3")
    mod = wm_module(inst, 2)
    assert wm_module(inst, 2) is mod
    for arr in [*mod.perms.values(), *mod._gather.values()]:
        with pytest.raises(ValueError):
            arr[0] = arr[1]
    # the caller's array is copied, not frozen
    perm = np.arange(3)
    GModule(3, 3, {"a": perm})
    perm[0] = 0
    # a certified closure is the cached chain member itself
    seed = FpSubspace(3, 9, [_jennings(3, 2)[0][4]])
    closure = submodule_closure(seed, mod)
    assert closure is chain_module(3, 2, 5)
    with pytest.raises(ValueError):
        closure.rows[0, 0] = 2


def test_a_rank_zero_seed_certifies_one_block(monkeypatch):
    # d = 625: the rows of every C_g at once would not fit one block, so a
    # seed of rank 0 certifies the first block only, and a seed of rank
    # equal to the block size the next one
    p, m = 5, 4
    mod = GModule(p, p**m, wm_module(fabrykowski_gupta(p), m).perms)
    block = CERT_BLOCK_ENTRIES // (len(mod.perms) * mod.dim)
    assert 0 < block < mod.dim
    calls = counted_extensions(monkeypatch)
    w = _jennings(p, m)[0]
    for rank, blocks in ((0, [0]), (block - 1, [0]),
                         (block, [0, block])):
        seed = FpSubspace(p, mod.dim, [w[rank]])
        assert submodule_closure(seed, mod) == chain_module(p, m, rank + 1)
        assert [start for _, start in calls] == blocks
    assert mod.certified_prefix(block) == 2 * block


# -- group/module dictionary -----------------------------------------------------

def test_layer_representative_roundtrip(fg3_ctx):
    g = fg3_ctx.quotient(4)
    u = image_in_wm(g, 2)
    for row in u.rows[:3]:
        rep = layer_representatives(g, 2, [row])[0]
        assert rep.in_stab(2)
        assert np.array_equal(rep.level_labels(2) % 3, row % 3)


def representatives_by_loop(g_n, m, vecs):
    """The referee: the same linear system, then one product of generator
    powers per vector."""
    vecs = np.asarray(vecs, dtype=np.int64).reshape(-1, g_n.p**m)
    gens = g_n.stabilizer(m).gens
    mat = np.array([g.level_labels(m) for g in gens], dtype=np.int64)
    rows, pivots = rref(np.concatenate([mat.T, vecs.T], axis=1), g_n.p)
    coeffs = np.zeros((len(vecs), len(gens)), dtype=np.int64)
    coeffs[:, pivots] = rows[:, len(gens):].T
    out = []
    for vec_coeffs in coeffs:
        x = Portrait.identity(g_n.p, g_n.depth)
        for g, c in zip(gens, vec_coeffs):
            if c:
                x = x * g**int(c)
        out.append(x)
    return out


@pytest.mark.parametrize("name,depth", [("fg3", 4), ("sunic-grigorchuk", 6),
                                        ("fg7", 3)])
def test_batched_layer_representatives_match_the_loop(name, depth):
    # twice per level: the second call reuses the layer basis built by the
    # first, with other vectors
    g = GroupContext(chain_instance(name)).quotient(depth)
    rng = np.random.default_rng(depth)
    for m in [m for m in range(depth) for _ in range(2)]:
        u = image_in_wm(g, m)
        vecs = np.concatenate([u.rows, np.zeros((1, u.ambient), dtype=int),
                               rng.integers(0, g.p, (4, u.dim)) @ u.rows])
        reps = layer_representatives(g, m, vecs % g.p)
        ref = representatives_by_loop(g, m, vecs % g.p)
        assert ([(x.digits(), x.perm.tobytes()) for x in reps]
                == [(x.digits(), x.perm.tobytes()) for x in ref])
        assert layer_basis(g, m) is layer_basis(g, m)


def test_layer_representatives_refuse_a_vector_outside_the_image(fg3_ctx):
    g = fg3_ctx.quotient(4)
    u = image_in_wm(g, 2)
    outside = next(e for e in np.eye(u.ambient, dtype=int)
                   if not u.contains_vector(e))
    for _ in range(2):                  # before and after the reuse
        with pytest.raises(ValueError, match="not in the image"):
            layer_representatives(g, 2, [u.rows[0], outside])
        assert len(layer_representatives(g, 2, u.rows)) == u.dim
    assert layer_representatives(g, 2, []) == []


def test_an_empty_layer_represents_the_zero_vector_alone():
    # St(1) of <a> is trivial: the zero vector lies in its zero image and
    # maps to the identity, a nonzero vector is refused
    g = Subgroup(3, 3, [rooted_a(3, 3)])
    assert layer_representatives(g, 1, [[0, 0, 0]]) == [
        Portrait.identity(3, 3)]
    assert [a.tolist() for a in layer_conjugation(g, 1, [[0, 0, 0]])] == [
        [[0, 0, 0]]]
    with pytest.raises(ValueError, match="not in the image"):
        layer_representatives(g, 1, [[0, 1, 0]])


@pytest.mark.parametrize("name,depth", [("fg3", 4), ("sunic-grigorchuk", 6),
                                        ("fg7", 3)])
def test_stacked_layer_conjugation_matches_the_loop(name, depth):
    g = GroupContext(chain_instance(name)).quotient(depth)
    rng = np.random.default_rng(depth)
    for m in range(depth):
        u = image_in_wm(g, m)
        vecs = np.concatenate([u.rows,
                               rng.integers(0, g.p, (4, u.dim)) @ u.rows])
        vecs %= g.p
        reps = layer_representatives(g, m, vecs)
        want = [np.array([x.conjugate(h).level_labels(m) for x in reps],
                         dtype=np.int64).reshape(len(vecs), u.ambient)
                for h in g.gens]
        got = layer_conjugation(g, m, vecs)
        assert [a.dtype for a in got] == [np.int64] * len(g.gens)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


@pytest.mark.parametrize("name,depth", CHAIN_CASES)
def test_layer_image_equals_the_elimination(name, depth):
    # the referee: the row space of St(m)'s generators' level-m labels,
    # reduced by FpSubspace
    g = GroupContext(chain_instance(name)).quotient(depth)
    for m in range(depth):
        ref = FpSubspace(g.p, g.p**m, [h.level_labels(m)
                                       for h in g.stabilizer(m).gens])
        u = image_in_wm(g, m)
        assert u == ref and u.pivots == ref.pivots
        assert u.rows.dtype == np.int8 and u.rows.flags.c_contiguous


def test_the_dictionary_runs_no_elimination(monkeypatch):
    g = GroupContext(fabrykowski_gupta(7)).quotient(3)
    g.pcgs                              # the quotient itself is built first

    def refuse(*args):
        raise AssertionError("an elimination in the dictionary")

    monkeypatch.setattr(Echelon, "insert", refuse)
    monkeypatch.setattr(Echelon, "add_span", refuse)
    for m in range(3):
        u = image_in_wm(g, m)
        assert len(layer_representatives(g, m, u.rows)) == u.dim
        assert len(layer_conjugation(g, m, u.rows)) == len(g.gens)
        if m:
            assert chain_layers_normal(g, m, u.dim)


def test_layer_preimage_order(fg3_ctx):
    g = fg3_ctx.quotient(4)
    sub = vj_basis(3, (1, 3))
    pre = layer_preimage(g, 2, sub)
    st3 = g.stabilizer(3)
    assert pre.order_exponent == st3.order_exponent + sub.dim
    assert st3.is_subgroup_of(pre)


def test_preimage_normality(fg3_ctx):
    g = fg3_ctx.quotient(3)
    # <St(2), a representative of e_0>: a permutes e_0 to another
    # coordinate, so the span of e_0 in W_1 is not invariant
    e0 = FpSubspace(3, 3, [[1, 0, 0]])
    assert not layer_preimage(g, 1, e0).is_normal_in(g)
    for j in ((1,), (2,), (3,)):
        assert layer_preimage(g, 1, vj_basis(3, j)).is_normal_in(g)


def test_non_normal_layer_caught_in_long_chain(fg3_ctx):
    # t(3) = 18 at depth 4: a chain of 19 layers
    g = fg3_ctx.quotient(4)
    u = image_in_wm(g, 3)
    chain, witness = uniserial_chain(u, wm_module(fg3_ctx.inst, 3))
    assert witness is None and len(chain) == 19
    assert first_non_normal_layer(g, 3, u, chain) is None
    # swap layer 9 for another subspace of the same dimension between its
    # neighbours: W_3 is uniserial on U, so it is not invariant
    outside = next(r for r in chain[8].rows if not chain[9].contains_vector(r))
    bad = chain[10].with_vectors(outside)
    assert bad.dim == chain[9].dim and bad != chain[9]
    layers = chain[:9] + [bad] + chain[10:]
    assert first_non_normal_layer(g, 3, u, layers) == 9
    assert not layer_preimage(g, 3, bad).is_normal_in(g)


def test_non_normal_layer_in_w1(fg3_ctx):
    g = fg3_ctx.quotient(3)
    e0 = FpSubspace(3, 3, [[1, 0, 0]])
    chain = [vj_basis(3, (j,)) for j in (3, 2, 1)]
    u = image_in_wm(g, 1)
    assert first_non_normal_layer(g, 1, u, chain) is None
    assert first_non_normal_layer(g, 1, u, chain + [e0]) == 3
