import bisect
import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups import gmodules, oracle
from branchgroups.catalog import fabrykowski_gupta, gupta_sidki, preset
from branchgroups.engine import ResourceGuardError, Subgroup, group_of
from branchgroups.gmodules import (GModule, _jennings, closure_by_rounds,
                                   image_in_wm, submodule_closure, vj_basis,
                                   wm_module)
from branchgroups.linalg import Echelon, FpSubspace, full_space
from branchgroups.oracle import (_cyclic_closures, bfs_elements, bfs_enumerate,
                                 brute_invariant_subspaces_within,
                                 brute_normal_between, brute_submodules)
from branchgroups.trees import rooted_a


def test_bfs_cyclic():
    for p in (2, 3, 5):
        count, exp = bfs_enumerate([rooted_a(p, 2)])
        assert count == p and exp == 1


def test_bfs_identity_only():
    assert bfs_enumerate([]) == (1, 0)


def test_bfs_cap_enforced():
    inst = fabrykowski_gupta(3)
    with pytest.raises(ResourceGuardError):
        bfs_enumerate(inst.generators(3), cap_exp=4)


@pytest.mark.parametrize("name,depth", [("fg3", 2), ("gs3", 2),
                                        ("sunic-grigorchuk", 3),
                                        ("sunic-grigorchuk", 4)])
def test_bfs_matches_chain(name, depth):
    inst = preset(name)
    g = group_of(inst, depth)
    count, exp = bfs_enumerate(inst.generators(depth))
    assert exp == g.order_exponent
    assert count == inst.p**exp


def test_bfs_set_equals_chain_membership():
    # not just equal counts: every enumerated element sifts into the pcgs
    inst = fabrykowski_gupta(3)
    g = group_of(inst, 2)
    ident = inst.generators(2)[0] ** 0
    seen = {ident.key(): ident}
    frontier = [ident]
    gens = inst.generators(2)
    while frontier:
        nxt = []
        for x in frontier:
            for gen in gens:
                y = x * gen
                if y.key() not in seen:
                    seen[y.key()] = y
                    nxt.append(y)
        frontier = nxt
    assert len(seen) == 3**g.order_exponent
    assert all(g.contains(x) for x in seen.values())


def assert_section_matches_bfs(gens, depth, v):
    """H.section_subgroup(v) for H = <gens> is the group of the sections at
    v of the elements of H fixing v, enumerated by BFS."""
    assert any(g.apply_vertex(v) != v for g in gens)
    images = {x.section(v).key(): x.section(v)
              for x in bfs_elements(gens).values() if x.apply_vertex(v) == v}
    sec = Subgroup(gens[0].p, depth, gens).section_subgroup(v)
    assert sec.depth == depth - len(v)
    assert gens[0].p**sec.order_exponent == len(images)
    assert all(sec.contains(y) for y in images.values())


@pytest.mark.parametrize("name,depth,v,cyclic", [
    ("fg3", 3, (2, 3), False), ("sunic-grigorchuk", 4, (2, 1), False),
    ("fg3", 3, (2,), True), ("sunic-grigorchuk", 4, (2,), True),
    ("fg5", 3, (2, 3), True), ("sunic-grigorchuk", 4, (2, 1, 2, 1), False)])
def test_section_subgroup_matches_bfs(name, depth, v, cyclic):
    # v is moved by the generators, so the section is taken one letter at a
    # time through St_H(1); the cyclic <first * last generator> has a
    # section image smaller than the sections of all its elements generate;
    # (2, 1, 2, 1) is a leaf, whose section is the trivial depth-0 group
    gens = preset(name).generators(depth)
    if cyclic:
        gens = [gens[0] * gens[-1]]
    assert_section_matches_bfs(gens, depth, v)


def test_section_subgroup_of_st1_matches_bfs():
    # the generators of St_G(1) fix the first letter of (2, 1, 2) and move
    # a later one
    gens = group_of(preset("sunic-grigorchuk"), 4).stabilizer(1).gens
    assert all(g.apply_vertex((2,)) == (2,) for g in gens)
    assert_section_matches_bfs(gens, 4, (2, 1, 2))


class RowListEchelon:
    """The earlier row-list echelon basis, kept as the reference for the
    stacked square form: int64 rows in pivot order, each 1 at its own
    pivot and 0 at every other pivot."""

    def __init__(self, p, ambient):
        self.p = p
        self.rows = np.zeros((0, ambient), dtype=np.int64)
        self.pivots = []

    def reduce(self, vec):
        v = np.asarray(vec, dtype=np.int64) % self.p
        if self.pivots:
            v = (v - v[..., self.pivots] @ self.rows) % self.p
        return v

    def insert(self, res):
        p = self.p
        c = int(res.nonzero()[0][0])
        res = res * pow(int(res[c]), p - 2, p) % p
        rows, col = self.rows, self.rows[:, c:c + 1]
        if col.any():
            rows = (rows - col * res) % p
        k = bisect.bisect(self.pivots, c)
        self.rows = np.concatenate([rows[:k], res[None], rows[k:]])
        self.pivots.insert(k, c)


def reference_closure(seed_rows, mod):
    """The earlier one-seed submodule closure over RowListEchelon: (int8
    rows, pivots) of the smallest invariant subspace containing the rows."""
    basis = RowListEchelon(mod.p, mod.dim)
    for row in seed_rows:
        res = basis.reduce(row)
        if res.any():
            basis.insert(res)
    frontier = basis.rows
    while len(frontier):
        images = basis.reduce(np.concatenate([mod.act(frontier, k)
                                              for k in mod.perms]))
        new_rows = []
        for res in images[images.any(axis=1)]:
            if new_rows:
                res = basis.reduce(res)
                if not res.any():
                    continue
            basis.insert(res)
            new_rows.append(res)
        frontier = np.array(new_rows, dtype=np.int64).reshape(-1, mod.dim)
    return basis.rows.astype(np.int8), basis.pivots


def sorted_keys(closures):
    """Distinct int8 row bytes of (rows, pivots) pairs, by (dim, key)."""
    return sorted({rows.tobytes(): len(rows) for rows, _ in closures}.items(),
                  key=lambda kv: (kv[1], kv[0]))


def projective_points(p, dim):
    """One coefficient vector per line of F_p^dim: the first nonzero
    coefficient is 1, so every nonzero vector is a unique scalar multiple
    of exactly one of the (p^dim - 1)/(p - 1) vectors yielded."""
    for lead in range(dim):
        for rest in itertools.product(range(p), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + rest


def closures_of_every_vector(mod):
    """The census without projective deduplication: the reference closure
    of every nonzero vector, as sorted (key, dim) pairs."""
    return sorted_keys(reference_closure([coeffs], mod)
                       for coeffs in itertools.product(range(mod.p),
                                                       repeat=mod.dim)
                       if any(coeffs))


@pytest.mark.parametrize("p,dim", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_projective_points_cover_each_line_once(p, dim):
    points = list(projective_points(p, dim))
    assert len(points) == (p**dim - 1) // (p - 1)
    lines = {tuple(c * x % p for x in pt) for pt in points for c in range(1, p)}
    assert len(lines) == p**dim - 1


@pytest.mark.parametrize("p,level", [(5, 1), pytest.param(3, 2, marks=pytest.mark.slow)])
def test_projective_census_matches_every_vector(p, level):
    mod = wm_module(fabrykowski_gupta(p), level)
    projective = brute_submodules(mod)
    assert ([(s.key(), s.dim) for s in projective]
            == closures_of_every_vector(mod))


MODULE_GROUPS = {"fg": fabrykowski_gupta, "gs": gupta_sidki,
                 "grigorchuk": lambda p: preset("sunic-grigorchuk")}


@lru_cache(maxsize=None)
def small_module(family, p, level):
    return wm_module(MODULE_GROUPS[family](p), level)


# every vector spans its own closure: 364 lines of F_3^6, so the census of
# the whole space closes more seeds than one stack (4096 // 36 = 113) holds
TRIVIAL_ACTION = GModule(3, 6, {"a": range(6)})


@st.composite
def modules(draw):
    family, p = draw(st.sampled_from([("fg", 3), ("fg", 5), ("fg", 7),
                                      ("gs", 3), ("gs", 5), ("gs", 7),
                                      ("grigorchuk", 2), ("trivial", 3)]))
    if family == "trivial":
        return TRIVIAL_ACTION
    return small_module(family, p, draw(st.sampled_from([1, 2])))


@st.composite
def seed_stacks(draw):
    """(module, seeds): each seed is a list of rows over F_p, drawn as zero,
    one or several random rows, a zero row or the whole space."""
    mod = draw(modules())
    p, d = mod.p, mod.dim
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seeds = []
    for _ in range(draw(st.integers(1, 60))):
        kind = draw(st.sampled_from(["empty", "zero", "full", "rows"]))
        if kind == "empty":
            seeds.append(np.zeros((0, d), dtype=np.int64))
        elif kind == "zero":
            seeds.append(np.zeros((1, d), dtype=np.int64))
        elif kind == "full":
            seeds.append(np.eye(d, dtype=np.int64))
        else:
            seeds.append(rng.integers(0, p, (draw(st.integers(1, 3)), d)))
    return mod, seeds


@settings(max_examples=40, deadline=None)
@given(seed_stacks())
def test_stacked_closure_matches_reference_seed_by_seed(case):
    mod, seeds = case
    stack = Echelon(mod.p, mod.dim, len(seeds))
    rows = np.zeros((len(seeds), max(len(s) for s in seeds), mod.dim),
                    dtype=np.int64)
    for k, seed in enumerate(seeds):
        rows[k, :len(seed)] = seed
    for r in range(rows.shape[1]):
        stack.add(rows[:, r])
    assert closure_by_rounds(stack, mod) is stack
    for k, seed in enumerate(seeds):
        got = stack.subspace(k)
        want_rows, want_pivots = reference_closure(seed, mod)
        assert got.rows.dtype == np.int8
        assert np.array_equal(got.rows, want_rows)
        assert got.pivots == want_pivots
        assert got.key() == want_rows.tobytes()
        # one seed alone, as an FpSubspace, closes the same way through the
        # certificate
        assert submodule_closure(FpSubspace(mod.p, mod.dim, seed),
                                 mod) == got


@settings(max_examples=25, deadline=None)
@given(modules(), st.data())
def test_cyclic_closures_match_reference_across_blocks(mod, data):
    # a census with more classes than one stack of seeds holds (4096 // d^2
    # of them) is closed in several stacks; a random space is rarely
    # invariant, so some images leave it, while every image stays in the
    # whole space, drawn where its vectors are few
    p, d = mod.p, mod.dim
    if p**d <= 729 and data.draw(st.booleans()):
        space = full_space(p, d)
    else:
        dim = data.draw(st.integers(1, min(d, 5 if p <= 5 else 3)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        space = FpSubspace(p, d, rng.integers(0, p, (dim, d)))
    want = sorted_keys(
        reference_closure([np.array(c, dtype=np.int64) @ space.rows], mod)
        for c in projective_points(p, space.dim))
    assert [(s.key(), s.dim) for s in _cyclic_closures(space, mod)] == want


# -- closures read off the certified prefix -------------------------------------


def certified_modules():
    """W_m whose whole chain is certified: FG at p = 3 (m <= 3) and p = 5
    (m <= 2), Grigorchuk (m <= 5), appb-p5 and remark-group (m <= 2)."""
    for name, mmax in (("fg3", 3), ("fg5", 2), ("sunic-grigorchuk", 5),
                       ("appb-p5", 2), ("remark-group", 2)):
        for m in range(1, mmax + 1):
            yield pytest.param(wm_module(preset(name), m), id=f"{name}-W{m}")


def transposed(mod, i, j):
    """mod with the action of its generator a composed with (i j)."""
    perms = dict(mod.perms)
    perms["a"] = perms["a"][np.array([j if x == i else i if x == j else x
                                      for x in range(mod.dim)])]
    return GModule(mod.p, mod.dim, perms)


def seeds_of_every_rank(mod, rng):
    """(r, rows): the zero seed (r = -1) and, at every Jennings rank r, one
    row and two or three rows spanning a space whose highest rank is r,
    random combinations of w_0..w_r, the first nonzero at w_r."""
    p, d = mod.p, mod.dim
    w = _jennings(p, mod.level)[0].astype(np.int64)
    yield -1, np.zeros((1, d), dtype=np.int64)
    for r in range(d):
        for k in (1, int(rng.integers(2, 4))):
            coeffs = rng.integers(0, p, (k, r + 1))
            coeffs[0, r] = rng.integers(1, p)
            yield r, coeffs @ w[:r + 1] % p


def assert_closures_exact(mod, monkeypatch, prefix):
    """Every seed of seeds_of_every_rank closes to the RREF rows and pivots
    of closure_by_rounds and of reference_closure, one at a time; only the
    seeds of rank >= prefix reach the rounds loop."""
    p, d = mod.p, mod.dim
    seeds = list(seeds_of_every_rank(mod, np.random.default_rng(d)))
    fallen = []

    def counting(seeds, module):
        fallen.append(len(getattr(seeds, "bases", ())))
        return closure_by_rounds(seeds, module)

    monkeypatch.setattr(gmodules, "closure_by_rounds", counting)
    for r, rows in seeds:
        seed = FpSubspace(p, d, rows)
        want = reference_closure(rows, mod)
        fallen.clear()
        got = submodule_closure(seed, mod)
        assert bool(fallen) == (r >= prefix), r
        for got in (got, closure_by_rounds(seed, mod)):
            assert np.array_equal(got.rows, want[0]), r
            assert got.pivots == want[1], r


@pytest.mark.parametrize("mod", list(certified_modules()))
def test_certified_closures_equal_the_referees_at_every_rank(mod, monkeypatch):
    assert mod.certified_prefix(mod.dim) == mod.dim
    assert_closures_exact(mod, monkeypatch, mod.dim)


@pytest.mark.parametrize("mod", [
    wm_module(preset("gs3"), 2), wm_module(preset("gs3"), 3),
    transposed(wm_module(preset("fg3"), 3), 0, 1),
    GModule(3, 9, {"a": range(9), "b": range(9)})],
    ids=["gs3-W2", "gs3-W3", "fg3-W3-transposed", "trivial-W2"])
def test_closures_above_the_certified_prefix_fall_back(mod, monkeypatch):
    # gs3 is torsion, so its W_2 and W_3 are refused past rank 2; the
    # transposition breaks the FG chain above some rank; a trivial action
    # certifies rank 0 only, where (ii) is not asked
    prefix = mod.certified_prefix(mod.dim)
    assert 0 < prefix < mod.dim
    assert_closures_exact(mod, monkeypatch, prefix)


def orbit_count(mod):
    """Orbits of the generators and the scalars on the nonzero vectors of
    the module, by a plain search over tuples."""
    p, count, seen = mod.p, 0, set()
    for vec in itertools.product(range(p), repeat=mod.dim):
        if not any(vec) or vec in seen:
            continue
        count += 1
        seen.add(vec)
        frontier = [vec]
        while frontier:
            arr = np.array(frontier.pop())
            for w in ([c * arr % p for c in range(2, p)]
                      + [mod.act(arr, k) for k in mod.perms]):
                if tuple(w) not in seen:
                    seen.add(tuple(w))
                    frontier.append(tuple(w))
    return count


@pytest.mark.parametrize("mod", [
    wm_module(fabrykowski_gupta(3), 2), wm_module(gupta_sidki(3), 1),
    wm_module(preset("sunic-grigorchuk"), 2), TRIVIAL_ACTION],
    ids=["fg3-W2", "gs3-W1", "grigorchuk-W2", "trivial"])
def test_census_closes_one_seed_per_orbit(mod, monkeypatch):
    # the whole module is invariant, so the classes of the census are the
    # orbits of <G, F_p^*>: W_2(fg3) has 225 of them against 9841 lines
    seeds = []

    def counting(stack, module):
        seeds.append(len(stack.bases))
        return closure_by_rounds(stack, module)

    monkeypatch.setattr(oracle, "closure_by_rounds", counting)
    brute_submodules(mod)
    assert sum(seeds) == orbit_count(mod)


def test_brute_submodules_w1():
    mod = wm_module(fabrykowski_gupta(3), 1)
    subs = brute_submodules(mod)
    assert [s.dim for s in subs] == [1, 2, 3]


def test_brute_submodules_trivial_module():
    mod = GModule(3, 1, {"a": [0]})
    subs = brute_submodules(mod)
    assert [s.dim for s in subs] == [1]


@pytest.mark.slow
def test_brute_submodules_w2_census():
    mod = wm_module(fabrykowski_gupta(3), 2)
    subs = brute_submodules(mod)
    assert len(subs) == 9
    expected = {vj_basis(3, j).key()
                for j in itertools.product((1, 2, 3), repeat=2)}
    assert {s.key() for s in subs} == expected
    for small, big in zip(subs, subs[1:]):
        assert big.contains(small)


def test_brute_normal_between_fg_m1(fg3_ctx):
    inst = fg3_ctx.inst
    g = fg3_ctx.quotient(3)
    subs = brute_normal_between(g, inst, 1)
    # endpoints included: chain of length t(1) = 3 has 4 terms
    assert len(subs) == 4
    exps = [s.order_exponent for s in subs]
    assert exps == sorted(exps)
    assert exps[-1] - exps[0] == 3
    for small, big in zip(subs, subs[1:]):
        assert small.is_subgroup_of(big)
    # matches the chain preimages
    st2 = g.stabilizer(2)
    assert subs[0].equal(st2)
    assert subs[-1].equal(g.stabilizer(1))


def test_brute_normal_cap():
    inst = fabrykowski_gupta(3)
    g = group_of(inst, 4)
    with pytest.raises(ResourceGuardError):
        brute_normal_between(g, inst, 3, cap_dim=6)  # t(3)=18 over cap


def test_invariant_subspace_enumeration_matches_chain(fg3_ctx):
    g = fg3_ctx.quotient(3)
    u = image_in_wm(g, 2)
    mod = wm_module(fg3_ctx.inst, 2)
    spaces = brute_invariant_subspaces_within(u, mod)
    assert [s.dim for s in spaces] == list(range(7))  # the 0..t(2) chain
    for small, big in zip(spaces, spaces[1:]):
        assert big.contains(small)
