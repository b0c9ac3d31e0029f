"""Desk-scale verification of the paper-level claims, with structured reports.

Every check runs inside a finite quotient G_n = G/St_G(n).  Inclusion
checks of the form St(m+d) <= [N,G] are interpreted on images there: a
failure falsifies the corresponding statement for the pulled-back
congruence subgroup, while a pass is consistency only; such checks carry
one_sided=True.  Layer indices t(m), module images and generator counts
are exact values of the infinite group whenever n is deep enough, and
are reported two-sided.

The group's shared state (quotients, series, normal families, [N, G])
lives in `context`, the report records and their recorder in `reports`.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable

import numpy as np

from . import catalog
from .catalog import (MultiEGSInstance, SunicInstance, branch_type,
                      evaluate_word, has_csp, is_fabrykowski_gupta, is_ggs,
                      is_torsion, r_dot)
from .context import (GroupContext, SplitMix64, branch_gamma,
                      branch_subgroup, random_word)
from .engine import (ResourceGuardError, Subgroup, first_missing_embedding,
                     group_of, is_regular_branch_over, is_subdirect_in_product,
                     is_super_strongly_fractal, join, normal_closure,
                     sections_within)
from .gmodules import (check_chain_layer, image_in_wm, is_chain_member,
                       wm_module)
from .reports import Verdict, VerificationReport, non_membership, skipped
from .trees import Portrait

# Sampled St(m) elements per level in fg-lemma clause (b).
FG_LINK_SAMPLES = 3
# Most exponent vectors (p^p) clause (b) enumerates: p <= 7
MAX_LINK_VECTORS = 2**20


# -- classification helpers ----------------------------------------------------


def csp_offset(inst, n_g: int | None = None) -> tuple[int | None, str]:
    """Effective congruence offset d with St(m+d) <= [N,G], per family."""
    if isinstance(inst, SunicInstance):
        if not inst.is_regular_branch():
            return None, "sunic (2,1) is infinite dihedral, not regular branch"
        if inst.p == 2:
            if n_g is None:
                return None, "n_G required for p=2"
            return inst.r + n_g + 3, "sunic p=2: r+n_G+3"
        return inst.r + 3, "sunic odd p: r+3"
    k = branch_gamma(inst)
    if k == 2:
        if is_fabrykowski_gupta(inst):
            return 2, "fabrykowski-gupta: 2"
        if is_ggs(inst):
            return 3, "ggs over derived: 3"
        return r_dot(inst) + 3, "multi-egs over derived: rdot+3"
    if k == 3:
        if is_ggs(inst):
            return 4, "ggs over gamma3: 4"
        return 7, "multi-egs over gamma3: 7"
    return None, f"branch type {branch_type(inst).value}: no effective offset"


def _family_offset(ctx: GroupContext,
                   n: int) -> tuple[int | None, str, int | None]:
    """(offset, rule, n_G) from csp_offset, computing n_G where the offset
    needs it; offset None carries the reason as the rule."""
    inst = ctx.inst
    n_g = None
    if isinstance(inst, SunicInstance) and inst.p == 2 and inst.is_regular_branch():
        n_g = ctx.n_g(n)
        if n_g is None:
            return None, "n_G not determined within this depth", None
    offset, rule = csp_offset(inst, n_g)
    return offset, rule, n_g


def _embedding(k: Subgroup, level: int, ng: Subgroup,
               trivial_text: str) -> tuple[str, tuple[int, Portrait] | None]:
    """The clause psi_level^{-1}(K x ... x K) <= [N, G]: its text and the
    first missing (coordinate, element), None when it holds."""
    if k.is_trivial():
        return trivial_text, None
    missing = first_missing_embedding(k.gens, level, ng)
    return ("pass" if missing is None else "fail"), missing


# -- individual checks ----------------------------------------------------------


def verify_effective_csp(ctx: GroupContext, n: int,
                         seed: int) -> VerificationReport:
    """St(m + d) <= [N, G] over a family of normal subgroups (Thm 1.1 shape,
    with the Sunic offsets for that family), and with it the coarse bound
    psi_{m+1}^{-1}(K' x ... x K') <= [N, G]."""
    offset, offset_label, _ = _family_offset(ctx, n)
    if offset is None:
        return skipped("effective-csp", n, offset_label)
    g = ctx.quotient(n)
    members = ctx.normal_family(n, seed)
    v = Verdict(offset=offset, offset_rule=offset_label,
                family_size=len(members), members={})
    for mem in members:
        if mem.subgroup.is_trivial():
            v.record(mem.name, True, "skipped: trivial", table="members")
            continue
        m = mem.subgroup.max_stab_depth()
        if m + offset > n:
            v.record(mem.name, True, f"skipped: m={m}, depth<{m + offset}",
                     table="members")
            continue
        if m + offset == n:
            v.record(mem.name, True, f"pass: m={m}, target St({n}) trivial",
                     table="members")
            continue
        ng = mem.ng(ctx, n)
        missing = ng.first_non_member(g.stabilizer(m + offset).gens)
        if not v.record(
                mem.name, missing is None,
                f"{'pass' if missing is None else 'fail'}: m={m}",
                witness=lambda: non_membership(ng, missing[1],
                                               member=mem.name, m=m,
                                               offset=offset),
                table="members"):
            break
        kprime = ctx.branch_derived(n - m - 1) if m + 1 < n else None
        if kprime is None:
            continue
        text, miss = _embedding(kprime, m + 1, ng,
                                "pass: K' trivial at this depth")
        name = mem.name + "/K'-fallback"
        v.record(name, miss is None,
                 text if miss is None else f"fail at coordinate {miss[0]}",
                 witness=lambda: non_membership(ng, miss[1], member=name,
                                                coordinate=miss[0]),
                 table="members")
    return v.report("effective-csp", n, one_sided=True)


def verify_branching(ctx: GroupContext, n: int, seed: int) -> VerificationReport:
    """gamma_3 (resp. gamma_4) coordinate inclusions in psi_{m+1}(St_{[N,G]}(m+1))
    for the two regular-branch cases."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance):
        return skipped("branching", n, "multi-EGS groups only")
    k = branch_gamma(inst)
    if k is None:
        return skipped("branching", n,
                       f"branch type {branch_type(inst).value}")
    v = Verdict(gamma=k + 1, members={})
    for mem in ctx.normal_family(n, seed):
        if mem.name not in ("G", "St(1)"):
            continue
        m = 0 if mem.name == "G" else 1
        if n - m - 1 < 1:
            v.record(mem.name, True, "skipped: depth", table="members")
            continue
        text, missing = _embedding(
            ctx.gamma(k + 1, n - m - 1), m + 1, mem.ng(ctx, n),
            f"pass: gamma_{k + 1} trivial at depth {n - m - 1}")
        if not v.record(mem.name, missing is None, text,
                        witness=lambda: {"member": mem.name,
                                         "coordinate": missing[0],
                                         "element": missing[1].digits()},
                        table="members"):
            break
    return v.report("branching", n, one_sided=True)


def verify_ggs_strong(ctx: GroupContext, n: int, seed: int) -> VerificationReport:
    """GGS-only strengthening: G'' x...x G'' (resp. gamma_3' x...) inside
    psi_m([N,G])."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance) or not is_ggs(inst):
        return skipped("ggs-strong", n, "GGS groups only")
    k = branch_gamma(inst)
    if k is None:
        return skipped("ggs-strong", n,
                       f"branch type {branch_type(inst).value}")
    label = {2: "G''", 3: "gamma3'"}[k]
    v = Verdict(inner=label, members={})
    for mem in ctx.normal_family(n, seed):
        if mem.subgroup.is_trivial() or mem.name.startswith("ncl"):
            continue
        m = mem.subgroup.max_stab_depth()
        if m >= n - 1:
            continue
        text, missing = _embedding(ctx.branch_derived(n - m), m,
                                   mem.ng(ctx, n),
                                   f"pass: {label} trivial at depth {n - m}")
        if not v.record(mem.name, missing is None, text,
                        witness=lambda: {"member": mem.name,
                                         "coordinate": missing[0]},
                        table="members"):
            break
    return v.report("ggs-strong", n, one_sided=True)


def verify_fg_lemma(ctx: GroupContext, n: int,
                    seed: int) -> VerificationReport:
    """The Fabrykowski-Gupta structure lemma, all three clauses:
    (a1) G^(m) = St(m); (a2) psi_{m-1}(St(m)) = G' x ... x G';
    (b) the coordinate-link congruence for sampled stabilizer elements.

    These are exact quotient identities, so a failure is two-sided.
    """
    inst = ctx.inst
    if not (isinstance(inst, MultiEGSInstance) and is_fabrykowski_gupta(inst)):
        return skipped("fg-lemma", n, "Fabrykowski-Gupta preset only")
    g = ctx.quotient(n)
    v = Verdict()
    for m in range(2, n):
        st = g.stabilizer(m)
        dm = ctx.derived(n, m)

        def a1_witness():
            missing = dm.first_non_member(st.gens)
            return non_membership(
                dm, None if missing is None else missing[1],
                clause=f"G^({m})=St({m})", derived_exponent=dm.order_exponent,
                stab_exponent=st.order_exponent)

        v.record(f"a1:G^({m})=St({m})",
                 dm.order_exponent == st.order_exponent
                 and dm.is_subgroup_of(st), witness=a1_witness)
    for m in range(2, n):
        v.record(f"a2:psi(St({m}))=G'x..xG'", _check_psi_st_product(ctx, n, m))
    rng = SplitMix64(seed)
    for m in range(1, n - 1):
        st_gens = g.stabilizer(m).gens
        if not st_gens:
            continue
        samples = [random_word(rng, st_gens, 2 + rng.below(3))
                   for _ in range(FG_LINK_SAMPLES)]
        prefixes = _coordinate_link_prefixes(ctx.inst, n - m + 1)
        bad = [x for x in samples if not _coordinate_link_holds(prefixes, m, x)]
        v.record(f"b:coordinate-link m={m}", not bad,
                 witness=lambda: {"clause": f"b:m={m}",
                                  "element": bad[0].digits()})
    return v.report("fg-lemma", n, one_sided=False)


def _check_psi_st_product(ctx: GroupContext, n: int, m: int) -> bool:
    """psi_{m-1}(St_G(m)) = G' x ... x G', both inclusions."""
    g = ctx.quotient(n)
    shallow = ctx.derived(n - m + 1)
    if not sections_within(g.stabilizer(m).gens, m - 1, shallow):
        return False
    return first_missing_embedding(shallow.gens, m - 1, g) is None


def _coordinate_link_prefixes(inst, d: int) -> set[bytes]:
    """The labels at levels 0 and 1 of psi^-1(a^l(1) b^l(2), ..., a^l(p) b^l(1))
    at depth d (>= 2) for every exponent vector l, as bytes.  Two elements
    agree mod St(2) iff these labels agree, and the candidate's are 0, then
    the root labels of its p sections.  Raises ResourceGuardError, before
    enumerating, when p^p exceeds MAX_LINK_VECTORS."""
    p = inst.p
    if p**p > MAX_LINK_VECTORS:
        raise ResourceGuardError(
            f"clause (b) enumerates p^p = {p}^{p} exponent vectors, over "
            f"the limit {MAX_LINK_VECTORS}")
    a, b = inst.generators(d - 1)[:2]
    root = [[int((a**i * b**j).lab[0]) for j in range(p)] for i in range(p)]
    return {bytes([0] + [root[ell[i]][ell[(i + 1) % p]] for i in range(p)])
            for ell in itertools.product(range(p), repeat=p)}


def _coordinate_link_holds(prefixes: set[bytes], m: int, x: Portrait) -> bool:
    """phi_v(x) is congruent mod St(2) to psi^-1(a^l(1) b^l(2), ..., a^l(p) b^l(1))
    for some exponent vector l, at every level-(m-1) vertex v; prefixes are
    the candidates' labels at levels 0 and 1 (_coordinate_link_prefixes)."""
    p = x.p
    heads = np.column_stack([x.level_labels(m - 1),
                             x.level_labels(m).reshape(-1, p)])
    return all(row.tobytes() in prefixes for row in heads)


def verify_chain_theorem(ctx: GroupContext, n: int,
                         seed: int) -> VerificationReport:
    """Layer-by-layer chain certification: the image of St(m) in W_m is a
    chain module V_j, every commutator step drops dimension exactly 1,
    the preimages of all chain layers are normal, and the closed forms for
    t(m) hold for non-torsion regular-branch GGS groups."""
    inst = ctx.inst
    g = ctx.quotient(n)
    levels = range(1, n)
    v = Verdict()
    tvals = {}
    for m in levels:
        u = image_in_wm(g, m)
        tvals[m] = u.dim
        check_chain_layer(v, g, m, u, wm_module(inst, m))
    # closed forms and the two index inequalities
    if (isinstance(inst, MultiEGSInstance) and is_ggs(inst)
            and not is_torsion(inst) and branch_gamma(inst) == 2):
        p = ctx.p
        ok = all(tvals[m] == (p if m == 1 else (p - 1) * p**(m - 1))
                 for m in levels)
        v.record("closed-form t(m)", ok, "pass" if ok else f"fail: {tvals}")
    else:
        v.record("closed-form t(m)", True,
                 "skipped: hypothesis (non-torsion branch GGS)")
    if isinstance(inst, MultiEGSInstance):
        broken = [f"t({m})<=p*t({k})" for m in levels for k in (m - 1, m + 1)
                  if k in tvals and tvals[m] > ctx.p * tvals[k]]
        for key in broken:
            v.record(key, False)
        v.record("index-inequalities", not broken)
    v.details["t"] = {str(m): tvals[m] for m in levels}
    v.details["characteristic"] = "assumed, not checked (out of scope)"
    if not _chain_hypothesis(inst):
        return skipped("chain", n, "outside the chain-theorem hypothesis "
                       "(needs a directed generator with nonzero vector "
                       "sum, or a Sunic group)",
                       witness=v.witness, informational=v.details)
    return v.report("chain", n, one_sided=False)


def _chain_hypothesis(inst) -> bool:
    if isinstance(inst, SunicInstance):
        return True
    return any(sum(vec) % inst.p for _, _, vec in inst.directed)


def verify_width_and_rank(ctx: GroupContext, n: int,
                          seed: int) -> VerificationReport:
    """log_p |N : [N,G]| and the normal-generator count of N over a family,
    against the family-specific bound; FG additionally attains width 2."""
    inst = ctx.inst
    if isinstance(inst, MultiEGSInstance) and is_torsion(inst):
        return skipped("width-rank", n,
                       "torsion multi-EGS outside the width corollary")
    bound, rule, n_g = _family_offset(ctx, n)
    if bound is None:
        return skipped("width-rank", n, rule)
    g = ctx.quotient(n)
    v = Verdict(bound=bound, rule=rule, members={})
    for mem in ctx.normal_family(n, seed):
        sub = mem.subgroup
        if sub.is_trivial():
            continue
        ng = mem.ng(ctx, n)
        width = sub.order_exponent - ng.order_exponent
        d_normal = ctx.normal_rank(sub, n)
        v.record(mem.name, width <= bound and d_normal <= bound,
                 {"width": width, "d": d_normal},
                 witness=lambda: {"member": mem.name, "width": width,
                                  "d": d_normal, "bound": bound},
                 table="members")
    v.details["max_width_seen"] = max(
        (r["width"] for r in v.details["members"].values()), default=0)
    if isinstance(inst, MultiEGSInstance) and is_fabrykowski_gupta(inst):
        g_width = g.order_exponent - ctx.derived(n).order_exponent
        v.record("attainment(N=G)", g_width == 2, g_width,
                 witness=lambda: {"attainment": g_width})
    if n_g is not None:
        v.details["n_G"] = n_g
    return v.report("width-rank", n, one_sided=True)


def verify_congruence_equiv(ctx: GroupContext, n: int,
                            seed: int) -> VerificationReport:
    """G and the multi-GGS group on the concatenated vector system have the
    same congruence quotients (mutual containment of generator images)."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance):
        return skipped("congruence-equiv", n, "multi-EGS groups only")
    if branch_gamma(inst) != 2:
        return skipped("congruence-equiv", n,
                       "requires regular branch over the derived subgroup")
    vecs = [tuple(int(x) for x in row) for row in inst.concatenated_vectors()]
    if r_dot(inst) != len(vecs):
        return skipped("congruence-equiv", n,
                       "concatenated system dependent; companion multi-GGS "
                       "group is not defined")
    h_inst = catalog.make_multi_ggs(ctx.p, vecs)
    g = ctx.quotient(n)
    h = group_of(h_inst, n)
    v = Verdict(companion=h_inst.spec_dict())
    v.record("orders", g.is_subgroup_of(h) and h.is_subgroup_of(g),
             [g.order_exponent, h.order_exponent], witness=lambda: v.details)
    return v.report("congruence-equiv", n, one_sided=False)


def _appb_d(ctx: GroupContext, words, n: int) -> Subgroup:
    """D: the normal closure of the D-words in the depth-n quotient."""
    return normal_closure([evaluate_word(ctx.inst, w, n) for w in words],
                          ctx.quotient(n))


def verify_appb(ctx: GroupContext, n: int, seed: int) -> VerificationReport:
    """The corrected branch structure for two-or-more-ray symmetric groups:
    B = D*gamma_3 is a branching subgroup, St(5) <= B (depth permitting),
    B <= gamma_3 St(k), and the congruence completion needs 3 generators."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance) or catalog.appb_shape(inst) is None:
        return skipped("appb", n, "requires the multi-ray single-vector "
                       "symmetric non-constant shape")
    words = catalog.appb_d_words(inst)
    v = Verdict(d_word_count=len(words))
    g = ctx.quotient(n)
    gam3 = ctx.gamma(3, n)
    b_sub = join(_appb_d(ctx, words, n), gam3)
    # regular branch over B; the shallow B is needed only for its generators
    shallow_b_gens = _appb_d(ctx, words, n - 1).gens + ctx.gamma(3, n - 1).gens
    v.record("regular-branch-over-B",
             is_regular_branch_over(g, ctx.quotient(n - 1), b_sub,
                                    shallow_b_gens))
    if n >= 6:
        v.record("St(5)<=B", g.stabilizer(5).is_subgroup_of(b_sub))
    else:
        v.record("St(5)<=B", True, "skipped: needs depth >= 6")
    for k in range(1, n):
        v.record(f"B<=gamma3*St({k})",
                 b_sub.is_subgroup_of(join(gam3, g.stabilizer(k))),
                 witness=lambda: {"clause": f"B<=gamma3*St({k})"})
    if n >= 3:
        d3 = ctx.normal_rank(ctx.quotient(3), 3)
        v.record("min_generators(G_3)", d3 == 3, d3,
                 witness=lambda: {"clause": "min_generators(G_3)", "value": d3})
    return v.report("appb", n, one_sided=True)


def verify_sunic_suite(ctx: GroupContext, n: int,
                       seed: int) -> VerificationReport:
    """The appendix facts for Sunic groups: branching subgroup, super strong
    fractality, the R_m pattern, n_G and the stabilizer inclusions."""
    inst = ctx.inst
    if not isinstance(inst, SunicInstance):
        return skipped("sunic", n, "Sunic groups only")
    if not inst.is_regular_branch():
        return skipped("sunic", n,
                       "(p,r)=(2,1) is infinite dihedral, not regular branch")
    v = Verdict()
    p, r = inst.p, inst.r
    g = ctx.quotient(n)
    # regular branch over K
    k_n = branch_subgroup(ctx, n)
    k_gens_shallow = branch_subgroup(ctx, n - 1).gens
    v.record("regular-branch-over-K",
             is_regular_branch_over(g, ctx.quotient(n - 1), k_n,
                                    k_gens_shallow),
             witness=lambda: {"clause": "regular-branch-over-K"})
    # super strongly fractal (depth-capped)
    ssf_depth = min(n, 4)
    v.record(f"super-strongly-fractal(n<={ssf_depth})",
             is_super_strongly_fractal([ctx.quotient(d)
                                        for d in range(1, ssf_depth + 1)]))
    if p == 2 and n >= 3:
        v.record("phi_22(St(2))=G", g.stabilizer(2).section_subgroup(
            (2, 2)).equal(ctx.quotient(n - 2)))
    if p % 2 == 1:
        v.record("psi(G') subdirect", is_subdirect_in_product(
            ctx.derived(n), 1, ctx.quotient(n - 1)))
    # R_m pattern
    for m in range(1, n):
        u = image_in_wm(g, m)
        t = u.dim
        if m <= r:
            key, ok = f"R_{m}={{1..p}}^{m}", t == p**m
        else:
            key, ok = (f"R_{m}>=lower-bound",
                       t >= (p - 1) * p**(m - 1) and is_chain_member(u, m))
        v.record(key, ok, "pass" if ok else f"fail: t={t}",
                 witness=lambda: {"clause": f"R_{m}", "t": t})
    n_g = None
    if p == 2:
        n_g = ctx.n_g(n)
        v.details["n_G"] = n_g if n_g is not None else "not found within depth"
    # stabilizer inclusions (depth permitting)
    if p % 2 == 1 or n_g is not None:
        need, label = (r + 3, "G''") if p % 2 == 1 else (r + n_g + 2, "K'")
        key = f"St({need})<={label}"
        if n > need:
            v.record(key, g.stabilizer(need).is_subgroup_of(
                ctx.branch_derived(n)))
        else:
            v.record(key, True, f"skipped: needs depth > {need}")
    return v.report("sunic", n, one_sided=True)


def verify_generator_counts(ctx: GroupContext, n: int,
                            seed: int) -> VerificationReport:
    """d(G/St(n)) = 1 + rdot at n = rdot + 1 for groups that branch over the
    derived subgroup."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance):
        return skipped("generator-count", n, "multi-EGS groups only")
    if branch_gamma(inst) != 2:
        return skipped("generator-count", n,
                       "requires regular branch over the derived subgroup")
    rd = r_dot(inst)
    if n < rd + 1:
        return skipped("generator-count", n,
                       f"needs depth >= rdot+1 = {rd + 1}")
    d = ctx.normal_rank(ctx.quotient(n), n)
    v = Verdict(rdot=rd, expected=1 + rd)
    v.record("min_generators", d == 1 + rd, d,
             witness=lambda: {"min_generators": d, "expected": 1 + rd})
    return v.report("generator-count", n, one_sided=False)


def verify_profinite_distinction(ctx_g: GroupContext, ctx_h: GroupContext
                                 ) -> VerificationReport:
    """Two groups with different numbers of directed generators have
    congruence completions of different abelianized rank."""
    gi, hi = ctx_g.inst, ctx_h.inst
    for inst in (gi, hi):
        if not (isinstance(inst, MultiEGSInstance)
                and branch_gamma(inst) == 2 and has_csp(inst)):
            return skipped("profinite-pair", 0,
                           "both groups must branch over the derived subgroup "
                           "and have the congruence subgroup property")
    rg, rh = r_dot(gi), r_dot(hi)
    dg = ctx_g.normal_rank(ctx_g.quotient(rg + 1), rg + 1)
    dh = ctx_h.normal_rank(ctx_h.quotient(rh + 1), rh + 1)
    v = Verdict(rank_G=dg)
    v.record("rank_H", dg == 1 + rg and dh == 1 + rh and dg != dh, dh,
             witness=lambda: dict(v.details))
    return VerificationReport("profinite-pair", max(rg, rh) + 1, v.status,
                              details=v.details, witness=v.witness)


# -- registry -----------------------------------------------------------------


# name -> (check, rule giving the default depth for an instance); every
# check takes (ctx, n, seed)
CHECKS: dict[str, tuple[Callable, Callable]] = {
    "effective-csp": (verify_effective_csp,
                      lambda inst: 5 if inst.p <= 3 else 3),
    "branching": (verify_branching, lambda inst: 4 if inst.p == 3 else 3),
    "ggs-strong": (verify_ggs_strong, lambda inst: 4 if inst.p == 3 else 3),
    "fg-lemma": (verify_fg_lemma, lambda inst: 4),
    "chain": (verify_chain_theorem, lambda inst: 4 if inst.p <= 3 else 3),
    "width-rank": (verify_width_and_rank,
                   lambda inst: 4 if inst.p <= 3 else 3),
    "congruence-equiv": (verify_congruence_equiv, lambda inst: 3),
    "appb": (verify_appb, lambda inst: 4 if inst.p == 3 else 3),
    "sunic": (verify_sunic_suite, lambda inst: 6 if inst.p == 2 else 5),
    "generator-count": (verify_generator_counts,
                        lambda inst: r_dot(inst) + 1
                        if isinstance(inst, MultiEGSInstance) else 3),
}


def run_check(ctx: GroupContext, name: str, depth: int | None = None,
              seed: int = 0, timings: bool = False) -> VerificationReport:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    check, depth_rule = CHECKS[name]
    n = depth if depth is not None else depth_rule(ctx.inst)
    t0 = time.perf_counter()
    try:
        report = check(ctx, n, seed)
    except ResourceGuardError as exc:
        report = skipped(name, n, f"resource guard: {exc}")
    if timings:
        report.millis = int((time.perf_counter() - t0) * 1000)
    return report


def run_all(ctx: GroupContext, depth: int | None = None, seed: int = 0,
            timings: bool = False) -> list[VerificationReport]:
    return [run_check(ctx, name, depth, seed, timings)
            for name in sorted(CHECKS)]
