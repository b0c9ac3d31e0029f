"""Acceptance gate: the ten headline criteria, one test (and one printed
pass/fail line) per criterion.  All tolerances are exact integer equalities;
each criterion carries the wall-clock budget it must meet.

Criterion 7 contains a sub-clause (the literal derived-series identity
G^(m) = St(m) for the p=3 tree group with defining vector (1,0)) that exact
computation refutes: (G/St(4))'' has order 3^22 while St(2)/St(4) has order
3^24, and derived subgroups commute with quotients.  That clause is asserted
as stated and is expected to fail; see the repository notes for the analysis
and the machine-checked witness.  Every other criterion passes.
"""

import itertools
import time

import numpy as np
import pytest

from branchgroups.catalog import (fabrykowski_gupta, gupta_sidki, make_ggs,
                                  make_multi_ggs, make_sunic, preset)
from branchgroups.context import GroupContext
from branchgroups.engine import (Subgroup, commutator_subgroup, group_of,
                                 is_regular_branch_over,
                                 is_super_strongly_fractal, min_generators,
                                 normal_closure, psi_preimage_gens)
from branchgroups.gmodules import (canonical_generator_vec, compute_rm,
                                   image_in_wm, layer_preimage,
                                   tuple_from_rank, uniserial_chain,
                                   vj_basis, wm_module)
from branchgroups.oracle import (bfs_enumerate, brute_normal_between,
                                 brute_submodules)
from branchgroups.suite import run_check
from branchgroups.trees import rooted_a

SEED = 20260809

_ctx_cache: dict[str, GroupContext] = {}


def ctx_for(name: str) -> GroupContext:
    if name not in _ctx_cache:
        _ctx_cache[name] = GroupContext(preset(name))
    return _ctx_cache[name]


class criterion:
    """Times a criterion body and prints its verdict line."""

    def __init__(self, number: int, budget_s: float, label: str):
        self.number = number
        self.budget = budget_s
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number}: {verdict} "
              f"({elapsed:.1f}s / budget {self.budget:.0f}s) - {self.label}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget")
        return False


def test_criterion_1_layer_dimensions():
    with criterion(1, 60, "t(m) closed form for the two reference groups"):
        fg3 = ctx_for("fg3").quotient(4)
        assert fg3.level_dims() == [1, 3, 6, 18]
        fg5 = ctx_for("fg5").quotient(3)
        assert fg5.level_dims() == [1, 5, 20]


def test_criterion_2_chain_theorem():
    with criterion(2, 120, "uniserial chains and brute normal-subgroup census"):
        for name, depth, levels in (("fg3", 4, (1, 2, 3)), ("fg5", 3, (1, 2))):
            ctx = ctx_for(name)
            inst = ctx.inst
            g = ctx.quotient(depth)
            for m in levels:
                mod = wm_module(inst, m)
                image = image_in_wm(g, m)
                chain, witness = uniserial_chain(image, mod)
                assert witness is None, (name, m)
                assert len(chain) - 1 == image.dim  # every layer has index p
                if image.dim <= 6:
                    brute = brute_normal_between(g, inst, m)
                    preimages = [layer_preimage(g, m, space)
                                 for space in reversed(chain)]
                    assert len(brute) == len(preimages) == image.dim + 1
                    for bsub, psub in zip(brute, preimages):
                        assert bsub.equal(psub), (name, m)


def test_criterion_3_submodule_census():
    with criterion(3, 60, "brute census of the level-2 module for p=3"):
        inst = ctx_for("fg3").inst
        mod = wm_module(inst, 2)
        subs = brute_submodules(mod)
        assert len(subs) == 9
        expected = {vj_basis(3, j).key()
                    for j in itertools.product((1, 2, 3), repeat=2)}
        assert {s.key() for s in subs} == expected
        for small, big in zip(subs, subs[1:]):
            assert big.contains(small)       # totally ordered
        for s in subs:                        # canonical generators inside
            j = next(j for j in itertools.product((1, 2, 3), repeat=2)
                     if vj_basis(3, j) == s)
            assert s.contains_vector(canonical_generator_vec(3, j))


def rm_members(rm: dict, p: int, m: int) -> list[tuple]:
    """R_m of a compute_rm result that matches a chain prefix: the index
    tuples from (1,...,1) up to j_max, in lexicographic order."""
    members = [tuple_from_rank(r, p, m) for r in range(rm["t"])]
    assert members[-1:] == [rm["j_max"]][:len(members)]
    return members


def test_criterion_4_rm_values():
    with criterion(4, 60, "R_m prefixes for p=3 and the three-generator p=5 group"):
        g = ctx_for("fg3").quotient(4)
        r1, r2 = (compute_rm(image_in_wm(g, m), m) for m in (1, 2))
        assert r1["match"] and rm_members(r1, 3, 1) == [(1,), (2,), (3,)]
        assert r2["match"]
        assert set(rm_members(r2, 3, 2)) == {(i, j) for i in (1, 2)
                                             for j in (1, 2, 3)}
        rg = ctx_for("remark-group").quotient(3)
        rr = compute_rm(image_in_wm(rg, 2), 2)
        assert rr["match"] and rr["t"] == 24
        members = set(rm_members(rr, 5, 2))
        assert members == set(itertools.product(range(1, 6), repeat=2)) - {(5, 5)}


def test_criterion_5_effective_csp():
    with criterion(5, 180, "congruence offsets over >=20-member families"):
        rep = run_check(ctx_for("fg3"), "effective-csp", depth=5, seed=SEED)
        assert rep.status == "pass" and rep.details["offset"] == 2
        assert rep.details["family_size"] >= 20
        rep = run_check(ctx_for("gs3"), "effective-csp", depth=5, seed=SEED)
        assert rep.status == "pass" and rep.details["offset"] == 3
        assert rep.details["family_size"] >= 20
        # branching inclusions for both regular-branch cases
        rep = run_check(ctx_for("fg3"), "branching", depth=4, seed=SEED)
        assert rep.status == "pass" and rep.details["gamma"] == 3
        sym = GroupContext(make_ggs(5, (0, 1, 1, 0)))
        rep = run_check(sym, "branching", depth=3, seed=SEED)
        assert rep.status == "pass" and rep.details["gamma"] == 4


def test_criterion_6_central_width():
    with criterion(6, 60, "width bound 2 over the family, attained by G"):
        ctx = ctx_for("fg3")
        rep = run_check(ctx, "width-rank", depth=4, seed=SEED)
        assert rep.status == "pass"
        assert rep.details["bound"] == 2
        assert rep.details["attainment(N=G)"] == 2
        assert len(rep.details["members"]) >= 20
        assert all(v["width"] <= 2 for v in rep.details["members"].values())
        series = [ctx.quotient(4)]
        while not series[-1].is_trivial():
            series.append(ctx.gamma(len(series) + 1, 4))
            assert series[-1].order_exponent < series[-2].order_exponent
        layer_dims = [series[k].order_exponent - series[k + 1].order_exponent
                      for k in range(len(series) - 1)]
        assert all(d <= 2 for d in layer_dims)


def test_criterion_7_structure_identities():
    with criterion(7, 60, "rank-p equalities; St(r+1)<=G'; the literal "
                          "derived-series clause (expected to fail)"):
        ctx = ctx_for("fg3")
        g = ctx.quotient(4)
        st1, st2 = g.stabilizer(1), g.stabilizer(2)
        st1_derived = commutator_subgroup(st1, st1, g)
        assert st1_derived.equal(st2)
        pre = Subgroup(3, 4, psi_preimage_gens(
            ctx.derived(3).gens, 1, 4))
        assert pre.equal(st2)
        assert st2.is_subgroup_of(ctx.derived(4))   # St(r_G+1) <= G'
        # Literal clause G^(m) = St(m) for m in {2,3}: refuted by exact
        # computation (see module docstring); asserted as stated.
        for m in (2, 3):
            stm = g.stabilizer(m)
            der = ctx.derived(4, m)
            assert der.order_exponent == stm.order_exponent, (
                f"G^({m}) has order exponent {der.order_exponent}, "
                f"St({m}) has {stm.order_exponent}")


def test_criterion_8_generator_counts():
    with criterion(8, 60, "minimal generator counts and the profinite pair"):
        # d(G/St(n)) = 1 + rdot at n = rdot+1 for two derived-branch groups
        fg5 = ctx_for("fg5")
        assert min_generators(fg5.quotient(2)) == 2
        two = GroupContext(make_multi_ggs(5, [(1, 0, 0, 0), (0, 1, 0, 0)]))
        assert min_generators(two.quotient(3)) == 3
        # the two-ray symmetric p=5 group needs 3 generators at depth 3
        rep = run_check(ctx_for("appb-p5"), "appb", depth=3)
        assert rep.status == "pass"
        assert rep.details["min_generators(G_3)"] == 3
        # profinite distinction: ranks 3 != 4
        three = GroupContext(make_multi_ggs(
            5, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]))
        assert min_generators(three.quotient(4)) == 4
        assert min_generators(two.quotient(3)) != min_generators(
            three.quotient(4))


def test_criterion_9_sunic_suite():
    with criterion(9, 180, "binary-tree and ternary-tree polynomial groups"):
        # p=2, f = x^2+x+1
        ctx2 = ctx_for("sunic-grigorchuk")
        rep = run_check(ctx2, "sunic", depth=6)
        assert rep.status == "pass"
        assert rep.details["regular-branch-over-K"] == "pass"
        assert rep.details["super-strongly-fractal(n<=4)"] == "pass"
        assert rep.details["R_1={1..p}^1"] == "pass"
        assert rep.details["R_2={1..p}^2"] == "pass"
        n_g = ctx2.n_g(6)
        assert isinstance(n_g, int)
        wrep = run_check(ctx2, "width-rank", depth=6, seed=SEED)
        assert wrep.status == "pass"
        assert wrep.details["bound"] == 2 + n_g + 3
        assert len(wrep.details["members"]) >= 20
        # p=3, f = x+2
        ctx3 = GroupContext(make_sunic(3, (2,)))
        rep = run_check(ctx3, "sunic", depth=5)
        assert rep.status == "pass"
        assert rep.details["regular-branch-over-K"] == "pass"
        wrep = run_check(ctx3, "width-rank", depth=4, seed=SEED)
        assert wrep.status == "pass" and wrep.details["bound"] == 1 + 3


def test_criterion_10_oracle_agreement():
    with criterion(10, 60, "pcgs orders equal BFS counts; twisted sums equal "
                           "permutation modules"):
        cases = [
            (Subgroup(3, 2, [rooted_a(3, 2)]), [rooted_a(3, 2)], 3),
            (ctx_for("fg3").quotient(2), fabrykowski_gupta(3).generators(2), 3),
            (ctx_for("fg3").quotient(3), fabrykowski_gupta(3).generators(3), 3),
            (ctx_for("gs3").quotient(2), gupta_sidki(3).generators(2), 3),
            (ctx_for("gs3").quotient(3), gupta_sidki(3).generators(3), 3),
            (ctx_for("sunic-grigorchuk").quotient(3),
             preset("sunic-grigorchuk").generators(3), 2),
            (ctx_for("sunic-grigorchuk").quotient(4),
             preset("sunic-grigorchuk").generators(4), 2),
            (ctx_for("fg5").quotient(2), fabrykowski_gupta(5).generators(2), 5),
            (ctx_for("remark-group").quotient(2),
             preset("remark-group").generators(2), 5),
        ]
        for g, gens, p in cases:
            assert g.order_exponent <= 12
            count, exp = bfs_enumerate(gens, cap_exp=12)
            assert exp == g.order_exponent and count == p**exp
        from branchgroups.gmodules import iterated_twisted_sum
        for name in ("fg3", "gs3"):
            inst = preset(name)
            for m in (1, 2, 3):
                tw = iterated_twisted_sum(inst, m)
                wm = wm_module(inst, m)
                assert all(np.array_equal(tw.perms[k], wm.perms[k])
                           for k in wm.perms)
