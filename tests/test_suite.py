import json
from unittest import mock

import numpy as np
import pytest

from branchgroups import cli, context, engine, gmodules, suite
from branchgroups.catalog import (PRESET_NAMES, fabrykowski_gupta, make_ggs,
                                  make_multi_egs, make_multi_ggs, make_sunic,
                                  preset)
from branchgroups.cli import EXIT_FAIL, EXIT_GUARD, EXIT_PASS, run
from branchgroups.context import GroupContext, SplitMix64, branch_subgroup
from branchgroups.gmodules import tuple_from_rank, vj_basis
from branchgroups.reports import Verdict
from branchgroups.suite import (csp_offset, run_all, run_check,
                                verify_profinite_distinction)
from branchgroups.trees import Portrait, powers_of


def report_json(report):
    return json.dumps(report.to_dict(), sort_keys=True)


# -- rng ------------------------------------------------------------------------

def test_splitmix_reference_values():
    # first outputs for seed 1234567, cross-checked against the reference
    # sequence of the standard splitmix64 constants
    rng = SplitMix64(1234567)
    first = [rng.next() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973,
                     9817491932198370423]


def test_splitmix_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]


# -- offsets and gates ------------------------------------------------------------

def test_offset_table():
    assert csp_offset(fabrykowski_gupta(3))[0] == 2
    assert csp_offset(preset("gs3"))[0] == 3
    assert csp_offset(make_ggs(5, (0, 1, 1, 0)))[0] == 4
    assert csp_offset(make_multi_ggs(3, [(1, 0), (0, 1)]))[0] == 2 + 3
    assert csp_offset(preset("appb-p5"))[0] == 7
    assert csp_offset(make_sunic(3, (2,)))[0] == 1 + 3
    assert csp_offset(make_sunic(2, (1, 1)), n_g=3)[0] == 2 + 3 + 3
    assert csp_offset(make_sunic(2, (1,)))[0] is None
    assert csp_offset(make_ggs(3, (1, 1)))[0] is None


def test_normal_family_size_and_determinism(fg3_ctx):
    fam = fg3_ctx.normal_family(3, seed=5)
    assert len(fam) >= 20
    names = list(fam)
    fam2 = GroupContext(fg3_ctx.inst).normal_family(3, seed=5)
    assert names == list(fam2)
    for a, b in zip(fam.values(), fam2.values()):
        assert a.order_exponent == b.order_exponent


def test_pcgs_length_guard(monkeypatch, capsys):
    # G_3(fg3) has order 3^10, so its pcgs outgrows a cap of 5 elements; a
    # fresh context, as a shared one may hold the quotient already
    monkeypatch.setattr(engine, "MAX_STRONG_GENS", 5)
    rep = run_check(GroupContext(preset("fg3")), "effective-csp", depth=3)
    assert rep.status == "skipped"
    assert rep.details["reason"].startswith("resource guard")
    assert run(["quotient", "--preset", "fg3", "--depth", "3"]) == EXIT_GUARD
    assert capsys.readouterr().err.startswith("resource guard")


def test_commutator_terms_built_once(fg3_ctx):
    # [G, G] is G', [gamma_k, G] is gamma_k+1 and K' is G'' for fg3
    assert fg3_ctx.gamma(2, 3) is fg3_ctx.derived(3)
    assert fg3_ctx.branch_derived(3) is fg3_ctx.derived(3, 2)
    members = fg3_ctx.normal_family(3, seed=5)
    assert fg3_ctx.member_ng(members["G"]) is fg3_ctx.derived(3)
    assert fg3_ctx.member_ng(members["gamma2"]) is fg3_ctx.gamma(3, 3)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name,depth", [("fg3", 4), ("sunic-grigorchuk", 5),
                                        ("appb-p5", 3)])
def test_member_ng_matches_from_scratch_referee(name, depth, seed):
    # after a whole run, so members extend what the checks built first
    ctx = GroupContext(preset(name))
    run_all(ctx, depth=depth, seed=seed)
    g = ctx.quotient(depth)
    for name, sub in ctx.normal_family(depth, seed).items():
        ng = ctx.member_ng(sub)
        ref = engine.commutator_subgroup(sub, g, g)
        assert ng.equal(ref) and ref.equal(ng), name


def test_equal_members_share_one_ng():
    ctx = GroupContext(fabrykowski_gupta(3))
    family = list(ctx.normal_family(4, seed=1).items())
    pairs = [(a, b) for i, a in enumerate(family) for b in family[i + 1:]
             if a[1].equal(b[1])]
    # a series term equal to a layer preimage, and two normal closures
    assert {("gamma3", "N_1.1"), ("ncl12", "ncl15x")} <= {
        (a[0], b[0]) for a, b in pairs}
    for a, b in pairs:
        assert ctx.member_ng(a[1]) is ctx.member_ng(b[1]), (a[0], b[0])


@pytest.mark.parametrize("clause", ["member", "K'-fallback"])
def test_effective_csp_witness_prints_the_tested_ng(clause, monkeypatch,
                                                    tmp_path, capsys):
    # St(1) of fg3 at depth 5 (seed 3) extends an [M, G] built before it,
    # so its generators differ from those of [N, G] closed from scratch;
    # no other member shares that [N, G], and its K' fallback is tested.
    # The forced failure names a generator of St(1) outside [N, G], so the
    # witness is true and replays
    ctx = GroupContext(fabrykowski_gupta(3))
    g = ctx.quotient(5)
    family = ctx.normal_family(5, seed=3)
    st1 = family["St(1)"]
    ng = ctx.member_ng(st1)
    assert [name for name, sub in family.items()
            if ctx.member_ng(sub) is ng] == ["St(1)"]
    tested = [x.digits() for x in ng.gens]
    assert tested != [x.digits() for x in engine.commutator_subgroup(
        st1, g, g).gens]
    outside = next(x for x in st1.gens if not ng.contains(x))
    if clause == "member":
        monkeypatch.setattr(ng, "first_non_member",
                            lambda elems: (0, outside))
    else:
        first_missing = suite.first_missing_embedding
        monkeypatch.setattr(
            suite, "first_missing_embedding",
            lambda gens, level, sub: ((0, outside) if sub is ng
                                      else first_missing(gens, level, sub)))
    monkeypatch.setattr(cli, "GroupContext", lambda inst: ctx)
    report = tmp_path / "r.json"
    assert run(["verify", "effective-csp", "--preset", "fg3", "--depth", "5",
                "--seed", "3", "--json", str(report)]) == EXIT_FAIL
    check, = json.loads(report.read_text())["checks"]
    assert check["witness"]["member"] == (
        "St(1)" if clause == "member" else "St(1)/K'-fallback")
    assert check["witness"]["subgroup_gens"] == tested
    capsys.readouterr()
    assert run(["oracle", "replay", "--report", str(report)]) == EXIT_PASS
    assert "CONFIRMED" in capsys.readouterr().out


# -- random family members: reused or closed -------------------------------------

@pytest.mark.parametrize("name,depth", [
    (name, depth) for name in PRESET_NAMES for depth in (3, 4)]
    + [("sunic-grigorchuk", 5), ("sunic-grigorchuk", 6)])
def test_family_closures_match_from_scratch_referee(name, depth,
                                                    monkeypatch):
    # a random member shares an earlier member's subgroup, extends a normal
    # subgroup L already built to <w> L, or is closed from scratch.  The
    # first two equal ncl(w) closed from scratch, <w> L has [N, G] = L as
    # closed from scratch, and one closed from scratch equals no earlier
    # member.  Over seeds 0-3 every path runs, except on the GGS presets
    # and on appb-p5 at depth 3, where no random member is closed from
    # scratch.  Then every [N, G] the context built, for the members and
    # the lower central terms, and every Phi_G(N) equals its closure from
    # scratch
    calls = []
    closure = context._member_closure
    closed = mock.Mock(wraps=context.normal_closure)

    def spy(ctx, w, members):
        before = closed.call_count
        sub = closure(ctx, w, members)
        calls.append((w, sub, list(members.values()),
                      closed.call_count > before))
        return sub

    monkeypatch.setattr(context, "_member_closure", spy)
    monkeypatch.setattr(context, "normal_closure", closed)
    ctx = GroupContext(preset(name))
    g = ctx.quotient(depth)
    for seed in range(4):
        for sub in ctx.normal_family(depth, seed).values():
            ctx.normal_rank(sub)
    ctx.gamma(5, depth)
    paths = set()
    for w, sub, earlier, from_scratch in calls:
        if from_scratch:
            paths.add("closed")
            assert not any(sub.equal(m) for m in earlier)
            continue
        paths.add("shared" if any(sub is m for m in earlier) else "extended")
        ref = engine.normal_closure([w], g)
        assert sub.is_subgroup_of(ref) and ref.is_subgroup_of(sub)
    never_closed = name in ("fg3", "fg5", "gs3") or (name, depth) == (
        "appb-p5", 3)
    assert paths == {"shared", "extended"} | (
        set() if never_closed else {"closed"})
    refs = {}
    for sub, ng in ctx.built_ngs(depth):
        refs[sub] = engine.commutator_subgroup(sub, g, g)
        assert ng.equal(refs[sub])
    # N / [N, G] is central, so <[N, G], x^p> is normal for any x in N
    for sub, phi in ctx._g_frattinis.items():
        p_powers = powers_of(sub.gens, g.p)
        assert phi.equal(engine.extend(refs[sub], p_powers,
                                       refs[sub].gens + p_powers))


def test_one_object_per_series_term_stabilizer_and_g_frattini():
    # the lower central and derived terms are [N, G] of the term above,
    # St(m) is built once and is the family's member, and Phi_G(N) is
    # built once; a run inserts into none of them
    ctx = GroupContext(fabrykowski_gupta(3))
    n = 4
    g = ctx.quotient(n)
    for k in (1, 2, 3, 4):
        assert ctx.gamma(k + 1, n) is ctx.member_ng(ctx.gamma(k, n))
    assert ctx.derived(n) is ctx.member_ng(g)
    members = ctx.normal_family(n, 1)
    for m in range(1, n):
        assert g.stabilizer(m) is g.stabilizer(m) is members[f"St({m})"]
    for sub in members.values():
        assert ctx.g_frattini(sub) is ctx.g_frattini(sub)
    orders = {name: sub.order_exponent for name, sub in members.items()}
    run_all(ctx, depth=n, seed=1)
    for m in range(1, n):
        assert g.stabilizer(m).order_exponent == sum(g.level_dims()[m:])
    assert {name: len(sub.pcgs.pivots())
            for name, sub in members.items()} == orders


def test_context_caches_are_keyed_by_the_subgroup():
    # G_3, G_4 and their St(1) in one context: each memoised value is found
    # again from the subgroup alone and lies in the quotient of its depth
    ctx = GroupContext(fabrykowski_gupta(3))
    subs = [h for g in (ctx.quotient(3), ctx.quotient(4))
            for h in (g, g.stabilizer(1))]
    for sub in subs:
        g = ctx.quotient(sub.depth)
        ng, phi = ctx.member_ng(sub), ctx.g_frattini(sub)
        comm, rank = ctx.commutator(sub), ctx.normal_rank(sub)
        assert ctx.member_ng(sub) is ng and ctx.g_frattini(sub) is phi
        assert ctx.commutator(sub) is comm and ctx.normal_rank(sub) == rank
        assert ng.depth == phi.depth == comm.depth == sub.depth
        ref = engine.commutator_subgroup(sub, g, g)
        assert ng.equal(ref) and ref.equal(ng)
        if sub is g:
            assert rank == engine.min_generators(g)
    for n in (3, 4):
        built = ctx.built_ngs(n)
        assert built and all(a.depth == c.depth == n for a, c in built)


class _CyclicP2:
    """<x> for x of order 9 on the ternary tree of depth 2: the quotient
    G / [G, G] = G is cyclic, so Phi_G(G) = <x^3> is not [G, G] = 1."""

    p = 3

    def generators(self, depth):
        return [Portrait.from_digits(3, depth, "1100")]


def _member_closure(ctx, w, *subs):
    members = {f"M{i}": sub for i, sub in enumerate(subs)}
    return context._member_closure(ctx, w, members)


def test_member_closure_reuses_a_member_only_when_w_generates_it(fg3_ctx):
    g = fg3_ctx.quotient(4)
    st1 = g.stabilizer(1)                  # |St(1) : Phi_G(St(1))| = 3
    ng = fg3_ctx.member_ng(st1)
    x = next(x for x in st1.gens if not ng.contains(x))
    comm = next(c for c in engine.commutator_seeds(st1.gens, g.gens)
                if not c.is_identity())
    cyclic = GroupContext(_CyclicP2())
    h = cyclic.quotient(2)
    p_power = h.gens[0] ** 3
    cases = [
        (fg3_ctx, 4, x, [st1], st1),       # reused: x generates St(1)
        (fg3_ctx, 4, comm, [st1], None),   # in [St(1), G]
        (cyclic, 2, p_power, [h], None),   # in Phi_G(G) but not [G, G]
        (fg3_ctx, 4, g.gens[0], [g], None),  # |G : Phi(G)| = 9
    ]
    for ctx, n, w, subs, shared in cases:
        sub = _member_closure(ctx, w, *subs)
        ref = engine.normal_closure([w], ctx.quotient(n))
        assert sub.is_subgroup_of(ref) and ref.is_subgroup_of(sub)
        if shared is None:
            assert all(sub is not m for m in subs)
            assert sub.order_exponent < subs[0].order_exponent
        else:
            assert sub is shared


def test_family_reuse_pins_closures_and_insertions(monkeypatch):
    # verify all on fg3 at depth 4, seed 1: none of the 8 random members is
    # closed (8 when every one is; 2 of them extend G').  11 commutator
    # subgroups are closed from scratch: G' and G'' at depths 2-4, G''' at
    # depth 4, gamma_3 at depths 2 and 3, where no family member lies below
    # G', and at depth 4 the [N, G] of St(3) and N_3.9, the least members
    # of their chains, which, with G', every other [N, G] at depth 4
    # extends.  The run inserts 216 pcgs elements
    closures = mock.Mock(wraps=context.normal_closure)
    monkeypatch.setattr(context, "normal_closure", closures)
    commutators = mock.Mock(wraps=context.commutator_subgroup)
    monkeypatch.setattr(context, "commutator_subgroup", commutators)
    pcgs = engine.InducedPcgs
    with mock.patch.object(pcgs, "add_generators", autospec=True,
                           side_effect=pcgs.add_generators) as adds, \
            mock.patch.object(pcgs, "_insert", autospec=True,
                              side_effect=pcgs._insert) as inserts:
        code = run(["verify", "all", "--preset", "fg3", "--depth", "4",
                    "--seed", "1"])
    assert code == EXIT_FAIL                       # the known-red fg-lemma
    assert closures.call_count == 0
    assert commutators.call_count == 11
    assert adds.call_count == 30
    assert inserts.call_count == 216


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_min_generators_from_the_g_frattini_subgroup(name):
    # |G_n : Phi_G(G_n)| extends the cached G'; engine.min_generators
    # closes the Frattini subgroup from scratch
    ctx = GroupContext(preset(name))
    for n in (2, 3, 4):
        g = ctx.quotient(n)
        assert ctx.normal_rank(g) == engine.min_generators(g)
        assert ctx.member_ng(g) is ctx.derived(n)


def test_verdict_keeps_first_witness_and_builds_it_on_failure_only():
    built = []

    def witness(clause):
        def build():
            built.append(clause)
            return {"clause": clause}
        return build

    v = Verdict(members={})
    assert v.record("a", True, witness=witness("a"))
    assert not v.record("b", False, witness=witness("b"))
    assert not v.record("c", False, "fail: late", witness=witness("c"),
                        table="members")
    rep = v.report("demo", one_sided=True)
    assert built == ["b"]
    assert rep.status == "fail" and rep.witness == {"clause": "b"}
    assert rep.details == {"a": "pass", "b": "fail",
                           "members": {"c": "fail: late"}}


# -- the individual checks ---------------------------------------------------------

def test_effective_csp_fg3_small(fg3_ctx):
    rep = run_check(fg3_ctx, "effective-csp", depth=4, seed=1)
    assert rep.status == "pass"
    assert rep.one_sided
    assert rep.details["offset"] == 2


def test_effective_csp_fallback_miss_fails_the_check(fg3_ctx, monkeypatch):
    # every psi^-1(K' x ... x K') <= [N, G] embedding reports a miss
    monkeypatch.setattr(suite, "first_missing_embedding",
                        lambda gens, level, sub: (0, gens[0]))
    rep = run_check(fg3_ctx, "effective-csp", depth=4, seed=1)
    fallbacks = {k: t for k, t in rep.details["members"].items()
                 if k.endswith("/K'-fallback")}
    assert "fail at coordinate 0" in fallbacks.values()
    assert rep.status == "fail"
    assert rep.witness["kind"] == "non-membership"
    assert rep.witness["member"] in fallbacks


def test_effective_csp_skips_for_script_g():
    ctx = GroupContext(make_ggs(3, (1, 1)))
    rep = run_check(ctx, "effective-csp", depth=3, seed=0)
    assert rep.status == "skipped"


def test_branching_fg3(fg3_ctx):
    rep = run_check(fg3_ctx, "branching", depth=4, seed=1)
    assert rep.status == "pass" and rep.details["gamma"] == 3


def test_branching_symmetric_p5():
    ctx = GroupContext(make_ggs(5, (0, 1, 1, 0)))
    rep = run_check(ctx, "branching", depth=3, seed=1)
    assert rep.status == "pass" and rep.details["gamma"] == 4


def test_ggs_strong_fg3(fg3_ctx):
    rep = run_check(fg3_ctx, "ggs-strong", depth=4, seed=1)
    assert rep.status == "pass" and rep.details["inner"] == "G''"


def test_fg_lemma_decomposes(fg3_ctx):
    rep = run_check(fg3_ctx, "fg-lemma", depth=4, seed=1)
    # clause (a2) and (b) hold; the literal clause (a1) is refuted exactly
    assert rep.details["a2:psi(St(2))=G'x..xG'"] == "pass"
    assert rep.details["a2:psi(St(3))=G'x..xG'"] == "pass"
    assert rep.details["b:coordinate-link m=1"] == "pass"
    assert rep.details["a1:G^(2)=St(2)"] == "fail"
    assert rep.status == "fail"
    assert rep.witness["kind"] == "non-membership"
    assert rep.witness["element"] is not None


def reference_coordinate_link(inst, n, m, xs):
    """Clause (b) by definition, for each of xs: every level-(m-1) section
    times the inverse of some assembled candidate lies in St(2)."""
    from itertools import product
    from branchgroups.trees import assemble, vertex_from_local_index
    p = inst.p
    a, b = inst.generators(n - m)[:2]
    inverses = [assemble(0, [a**ell[i] * b**ell[(i + 1) % p]
                             for i in range(p)]).inverse()
                for ell in product(range(p), repeat=p)]
    return [all(any((x.section(vertex_from_local_index(p, m - 1, c))
                     * inv).in_stab(2) for inv in inverses)
                for c in range(p**(m - 1))) for x in xs]


@pytest.mark.parametrize("p,n", [(3, 4), (3, 5), (5, 3)])
def test_coordinate_link_lookup_matches_the_definition(p, n):
    # stabilizer words pass; a and random portraits fail at some section
    inst = fabrykowski_gupta(p)
    g = GroupContext(inst).quotient(n)
    nlabels = g.gens[0].lab.size
    rng = np.random.default_rng(n * p)
    seen = set()
    for m in range(1, n - 1):
        prefixes = suite._coordinate_link_prefixes(inst, n - m + 1)
        st = g.stabilizer(m).gens
        xs = [st[0], st[-1] * st[0], g.gens[0]] + [
            Portrait.from_labels(p, n, rng.integers(0, p, nlabels)
                                 * (rng.random(nlabels) < density))
            for density in (0.1, 0.3, 1)]
        want = reference_coordinate_link(inst, n, m, xs)
        assert [suite._coordinate_link_holds(prefixes, m, x)
                for x in xs] == want
        seen.update(want)
    assert seen == {True, False}


def test_fg_lemma_guards_the_exponent_vector_enumeration():
    # clause (b) would enumerate 11^11 exponent vectors
    rep = run_check(GroupContext(fabrykowski_gupta(11)), "fg-lemma", depth=3)
    assert rep.status == "skipped"
    assert rep.details["reason"].startswith("resource guard: ")
    assert "11^11" in rep.details["reason"]


def test_fg_lemma_skips_non_fg(gs3_ctx):
    rep = run_check(gs3_ctx, "fg-lemma", depth=3, seed=0)
    assert rep.status == "skipped"


def test_chain_theorem_fg3(fg3_ctx):
    rep = run_check(fg3_ctx, "chain", depth=4)
    assert rep.status == "pass"
    assert rep.details["t"] == {"1": 3, "2": 6, "3": 18}
    assert rep.details["closed-form t(m)"] == "pass"


def test_chain_index_inequalities_report_a_broken_one(monkeypatch):
    # shrink the level-1 image to V_0 so that t(1) = 1 and t(2) = 6 > 3 t(1)
    image_in_wm = suite.image_in_wm

    def shrunk(g_n, m):
        return (vj_basis(g_n.p, tuple_from_rank(0, g_n.p, 1)) if m == 1
                else image_in_wm(g_n, m))

    monkeypatch.setattr(suite, "image_in_wm", shrunk)
    rep = run_check(GroupContext(fabrykowski_gupta(3)), "chain", depth=4)
    assert rep.details["t"]["1"] == 1
    assert rep.details["t(2)<=p*t(1)"] == "fail"
    assert rep.details["index-inequalities"] == "fail"
    assert rep.status == "fail"


def test_chain_theorem_gs3_is_informational(gs3_ctx):
    rep = run_check(gs3_ctx, "chain", depth=3)
    assert rep.status == "skipped"
    assert "informational" in rep.details


@pytest.mark.parametrize("name,depth", [
    ("fg3", 4), ("gs3", 4), ("fg5", 3), ("sunic-grigorchuk", 6),
    ("remark-group", 3), ("appb-p5", 3)])
def test_chain_reports_equal_the_referee_path(name, depth, monkeypatch):
    # the Jennings certificate off, every level goes through uniserial_chain,
    # compute_rm and first_non_normal_layer: the same report, byte for byte
    fast = run_check(GroupContext(preset(name)), "chain", depth=depth)
    monkeypatch.setattr(gmodules, "certified_chain", lambda u, mod, m: False)
    slow = run_check(GroupContext(preset(name)), "chain", depth=depth)
    assert report_json(fast) == report_json(slow)


def test_certified_chain_check_closes_no_submodule(monkeypatch):
    def refuse(*args):
        raise AssertionError("a closure on the certified path")

    for name in ("uniserial_chain", "commutator_subspace",
                 "submodule_closure"):
        monkeypatch.setattr(gmodules, name, refuse)
    rep = run_check(GroupContext(fabrykowski_gupta(7)), "chain", depth=3)
    assert rep.status == "pass"
    assert rep.details["chain m=2"] == "pass: length 42"
    assert rep.details["image=V_j m=2"] == "pass: j_max=(6, 7)"


def test_width_rank_fg3(fg3_ctx):
    rep = run_check(fg3_ctx, "width-rank", depth=4, seed=1)
    assert rep.status == "pass"
    assert rep.details["bound"] == 2
    assert rep.details["attainment(N=G)"] == 2


@pytest.mark.parametrize("ctx_name,depth", [("fg3_ctx", 4),
                                            ("grigorchuk_ctx", 5)])
def test_width_rank_d_matches_from_scratch_referee(ctx_name, depth, request):
    # the referee rebuilds <[N, G], x^p> from scratch for every member
    ctx = request.getfixturevalue(ctx_name)
    rep = run_check(ctx, "width-rank", depth=depth, seed=1)
    reported = rep.details["members"]
    family = {name: sub for name, sub in ctx.normal_family(depth, 1).items()
              if not sub.is_trivial()}
    assert sorted(reported) == sorted(family)
    for name, sub in family.items():
        pth = engine.Subgroup(ctx.p, depth, ctx.member_ng(sub).gens
                              + [x**ctx.p for x in sub.gens])
        assert reported[name]["d"] == (sub.order_exponent
                                       - pth.order_exponent), name
    assert reported["G"]["d"] == engine.min_generators(ctx.quotient(depth))


def test_width_rank_gs3_gated(gs3_ctx):
    rep = run_check(gs3_ctx, "width-rank", depth=3, seed=0)
    assert rep.status == "skipped"
    assert "torsion" in rep.details["reason"]


def test_congruence_equiv():
    inst = make_multi_egs(3, {1: [(1, 0)], 2: [(0, 1)]})
    rep = run_check(GroupContext(inst), "congruence-equiv", depth=3)
    assert rep.status == "pass"
    # a multi-GGS group is its own companion
    rep2 = run_check(GroupContext(make_multi_ggs(3, [(1, 0), (0, 1)])),
                     "congruence-equiv", depth=3)
    assert rep2.status == "pass"


def test_congruence_equiv_gates():
    dep = make_multi_egs(3, {1: [(1, 0)], 2: [(1, 0)]})
    rep = run_check(GroupContext(dep), "congruence-equiv", depth=3)
    assert rep.status == "skipped"


def test_appb_p5():
    rep = run_check(GroupContext(preset("appb-p5")), "appb", depth=3)
    assert rep.status == "pass"
    assert rep.details["min_generators(G_3)"] == 3
    assert rep.details["d_word_count"] == 1
    assert rep.details["St(5)<=B"].startswith("skipped")


def test_appb_gates(fg3_ctx):
    rep = run_check(fg3_ctx, "appb", depth=3)
    assert rep.status == "skipped"


def test_sunic_grigorchuk(grigorchuk_ctx):
    rep = run_check(grigorchuk_ctx, "sunic", depth=5)
    assert rep.status == "pass"
    assert rep.details["regular-branch-over-K"] == "pass"
    assert rep.details["phi_22(St(2))=G"] == "pass"
    assert rep.details["R_1={1..p}^1"] == "pass"
    assert rep.details["R_2={1..p}^2"] == "pass"
    assert rep.details["n_G"] == 3


def test_sunic_odd():
    rep = run_check(GroupContext(make_sunic(3, (2,))), "sunic", depth=5)
    assert rep.status == "pass"
    assert rep.details["St(4)<=G''"] == "pass"


def test_sunic_dihedral_skipped():
    rep = run_check(GroupContext(make_sunic(2, (1,))), "sunic", depth=4)
    assert rep.status == "skipped"


def test_n_g_stable(grigorchuk_ctx):
    assert grigorchuk_ctx.n_g(5) == 3
    assert grigorchuk_ctx.n_g(6) == 3


def test_n_g_and_k_computed_once_per_depth(monkeypatch):
    ctx = GroupContext(preset("sunic-grigorchuk"))
    k = ctx.sunic_k(5)
    assert ctx.sunic_k(5) is k and branch_subgroup(ctx, 5) is k
    calls = []
    section = k.section_subgroup

    def counting(v):
        calls.append(v)
        return section(v)

    monkeypatch.setattr(k, "section_subgroup", counting)
    assert [ctx.n_g(5), ctx.n_g(5)] == [3, 3]
    # each candidate steps one letter below the last section; only the
    # first step is taken on K
    assert calls == [(2,)]
    run_check(ctx, "width-rank", depth=5)
    run_check(ctx, "sunic", depth=5)
    assert len(calls) == 1


def test_generator_count(fg3_ctx):
    rep = run_check(fg3_ctx, "generator-count")
    assert rep.status == "pass" and rep.details["min_generators"] == 2


def test_profinite_pair_p3(fg3_ctx):
    other = GroupContext(make_multi_ggs(3, [(1, 0), (0, 1)]))
    rep = verify_profinite_distinction(fg3_ctx, other)
    assert rep.status == "pass"
    assert rep.details == {"rank_G": 2, "rank_H": 3}


def test_profinite_pair_sanity_inversion(fg3_ctx):
    rep = verify_profinite_distinction(fg3_ctx, fg3_ctx)
    assert rep.status == "fail"


# -- determinism -------------------------------------------------------------------

def test_reports_are_reproducible():
    inst = fabrykowski_gupta(3)
    r1 = run_check(GroupContext(inst), "width-rank", depth=3, seed=9)
    r2 = run_check(GroupContext(inst), "width-rank", depth=3, seed=9)
    assert report_json(r1) == report_json(r2)


def test_run_all_merges_by_name(fg3_ctx):
    reports = run_all(fg3_ctx, depth=3, seed=2)
    names = [r.name for r in reports]
    assert names == sorted(names)
