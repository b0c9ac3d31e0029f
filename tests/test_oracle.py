import itertools

import pytest

from branchgroups.catalog import fabrykowski_gupta, gupta_sidki, preset
from branchgroups.engine import ResourceGuardError, Subgroup, group_of
from branchgroups.gmodules import (GModule, submodule_closure, vj_basis,
                                   wm_module)
from branchgroups.linalg import FpSubspace
from branchgroups.oracle import (bfs_elements, bfs_enumerate,
                                 brute_invariant_subspaces_within,
                                 brute_normal_between, brute_submodules,
                                 projective_points)
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


@pytest.mark.parametrize("name,depth,v,cyclic", [
    ("fg3", 3, (2, 3), False), ("sunic-grigorchuk", 4, (2, 1), False),
    ("fg3", 3, (2,), True), ("sunic-grigorchuk", 4, (2,), True)])
def test_section_subgroup_matches_bfs(name, depth, v, cyclic):
    # v is moved by the generators, so the pcgs vertex-stabilizer walk runs;
    # the cyclic <first * last generator> has a section image smaller than
    # the sections of all its elements generate
    gens = preset(name).generators(depth)
    if cyclic:
        gens = [gens[0] * gens[-1]]
    assert any(g.apply_vertex(v) != v for g in gens)
    images = {x.section(v).key(): x.section(v)
              for x in bfs_elements(gens).values() if x.apply_vertex(v) == v}
    sec = Subgroup(gens[0].p, depth, gens).section_subgroup(v)
    assert gens[0].p**sec.order_exponent == len(images)
    assert all(sec.contains(y) for y in images.values())


def closures_of_every_vector(mod):
    """The census without projective deduplication: every nonzero vector."""
    p, dim = mod.p, mod.dim
    found = {}
    for coeffs in itertools.product(range(p), repeat=dim):
        if any(coeffs):
            sp = submodule_closure(FpSubspace(p, dim, [coeffs]), mod)
            found.setdefault(sp.key(), sp)
    return sorted(found.values(), key=lambda s: (s.dim, s.key()))


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
    assert ([s.key() for s in projective]
            == [s.key() for s in closures_of_every_vector(mod)])


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
    u = g.image_in_wm(2)
    mod = wm_module(fg3_ctx.inst, 2)
    spaces = brute_invariant_subspaces_within(u, mod)
    assert [s.dim for s in spaces] == list(range(7))  # the 0..t(2) chain
    for small, big in zip(spaces, spaces[1:]):
        assert big.contains(small)
