"""Desk-scale verification of the paper-level claims, with structured reports.

Every check runs inside a finite quotient G_n = G/St_G(n).  Inclusion
checks of the form St(m+d) <= [N,G] are interpreted on images there: a
failure falsifies the corresponding statement for the pulled-back
congruence subgroup, while a pass is consistency only; such checks carry
one_sided=True.  Layer indices t(m), module images and generator counts
are exact values of the infinite group whenever n is deep enough, and
are reported two-sided.

Reports are reproducible bit for bit from (spec, depth, seed); timings
are kept out of the payload unless explicitly requested.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import catalog
from .catalog import (BranchType, MultiEGSInstance, SunicInstance, branch_type,
                      evaluate_word, has_csp, is_fabrykowski_gupta, is_ggs,
                      is_torsion, r_dot)
from .engine import (ResourceGuardError, Subgroup, commutator_subgroup,
                     first_missing_embedding, group_of, is_regular_branch_over,
                     is_subdirect_in_product, is_super_strongly_fractal, join,
                     min_generators, normal_closure, sections_within)
from .gmodules import (compute_rm, first_non_normal_layer, layer_preimage,
                       submodule_closure, tuple_from_rank, uniserial_chain,
                       vj_basis, wm_module)
from .trees import Portrait, assemble, commutator, vertex_from_local_index

# -- deterministic rng -------------------------------------------------------

_MASK = (1 << 64) - 1


class SplitMix64:
    """The standard 64-bit mix-and-shift generator; fully portable."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def below(self, n: int) -> int:
        return self.next() % n


# -- reports ------------------------------------------------------------------


@dataclass
class VerificationReport:
    name: str
    group: dict
    depth: int
    status: str                    # pass | fail | skipped
    one_sided: bool = False
    details: dict = field(default_factory=dict)
    witness: dict | None = None
    millis: int = 0

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "one_sided": self.one_sided, "details": self.details,
                "witness": self.witness, "millis": self.millis}


def _skip(name, inst, depth, reason, **details) -> VerificationReport:
    return VerificationReport(name, inst.spec_dict(), depth, "skipped",
                              details={"reason": reason, **details})


# -- group context ------------------------------------------------------------

# Members of the normal family that effective-csp and width-rank test.
FAMILY_SIZE = 20
# Sampled St(m) elements per level in fg-lemma clause (b).
FG_LINK_SAMPLES = 3


class GroupContext:
    """Shared cache of quotients, commutator subgroups and series for one
    instance."""

    def __init__(self, inst):
        self.inst = inst
        self._quotients: dict[int, Subgroup] = {}
        self._commutators: dict[tuple[Subgroup, Subgroup, int], Subgroup] = {}
        self._families: dict[tuple[int, int], list] = {}
        self._sunic_k: dict[int, Subgroup] = {}
        self._n_g: dict[int, int | None] = {}

    @property
    def p(self) -> int:
        return self.inst.p

    def quotient(self, n: int) -> Subgroup:
        if n not in self._quotients:
            self._quotients[n] = group_of(self.inst, n, name=f"G_{n}")
        return self._quotients[n]

    def commutator(self, a: Subgroup, b: Subgroup, n: int) -> Subgroup:
        """[A, B] in the depth-n quotient, memoised on the operand objects:
        every series term and every [N, G] is built here, once."""
        key = (a, b, n)
        if key not in self._commutators:
            self._commutators[key] = commutator_subgroup(a, b, self.quotient(n))
        return self._commutators[key]

    def derived(self, n: int, order: int = 1) -> Subgroup:
        """The order-th derived subgroup G^(order) of the depth-n quotient."""
        h = self.quotient(n)
        for _ in range(order):
            h = self.commutator(h, h, n)
        return h

    def gamma(self, k: int, n: int) -> Subgroup:
        """k-th lower central term of the depth-n quotient."""
        g = term = self.quotient(n)
        for _ in range(k - 1):
            term = self.commutator(term, g, n)
        return term

    def branch_derived(self, n: int) -> Subgroup | None:
        """K' for the branching subgroup K at depth n (None if not branch)."""
        k = branch_subgroup(self, n)
        return None if k is None else self.commutator(k, k, n)

    def sunic_k(self, n: int) -> Subgroup:
        """K = <[a,b_2],...,[a,b_r]>^G for Sunic groups on the binary tree."""
        if n not in self._sunic_k:
            gens = self.inst.generators(n)
            seeds = [commutator(gens[0], b) for b in gens[2:]]
            self._sunic_k[n] = normal_closure(seeds, self.quotient(n), name="K")
        return self._sunic_k[n]

    def n_g(self, n: int) -> int | None:
        """Least n' with <a, b_1, ..., b_{r-1}> inside the section of
        st_K(2...2) at the vertex 2...2 of level n' (p = 2 Sunic groups);
        quotient-level, hence one-sided."""
        if n not in self._n_g:
            k = self.sunic_k(n)
            self._n_g[n] = None
            for cand in range(1, n - 1):
                sec = k.section_subgroup((2,) * cand)
                targets = self.inst.generators(n - cand)[:self.inst.r]  # a, b_1..b_{r-1}
                if sec.first_non_member(targets) is None:
                    self._n_g[n] = cand
                    break
        return self._n_g[n]

    def normal_family(self, n: int, seed: int) -> list["FamilyMember"]:
        key = (n, seed)
        if key not in self._families:
            self._families[key] = _build_normal_family(self, n, seed)
        return self._families[key]


class FamilyMember:
    """A verified-normal subgroup of G_n."""

    def __init__(self, name: str, subgroup: Subgroup):
        self.name = name
        self.subgroup = subgroup

    def ng(self, ctx: GroupContext, n: int) -> Subgroup:
        """[N, G] (for the members G and gamma_k this is G' and gamma_k+1)."""
        return ctx.commutator(self.subgroup, ctx.quotient(n), n)


def _random_word(rng: SplitMix64, gens: list[Portrait], length: int) -> Portrait:
    p, depth = gens[0].p, gens[0].depth
    out = Portrait.identity(p, depth)
    for _ in range(length):
        g = gens[rng.below(len(gens))]
        if rng.below(2):
            g = g.inverse()
        out = out * g
    return out


def _build_normal_family(ctx: GroupContext, n: int,
                         seed: int) -> list[FamilyMember]:
    g = ctx.quotient(n)
    members: list[FamilyMember] = [FamilyMember("G", g)]
    for m in range(1, n):
        members.append(FamilyMember(f"St({m})", g.stabilizer(m)))
    for k in (2, 3, 4):
        gam = ctx.gamma(k, n)
        if not gam.is_trivial():
            members.append(FamilyMember(f"gamma{k}", gam))
    for order in (2, 3):
        d = ctx.derived(n, order)
        if not d.is_trivial():
            members.append(FamilyMember("G" + "'" * order, d))
    # chain-layer preimages: one mid-chain layer per level (only when the
    # candidate subspace is action-invariant and inside the actual image)
    for m in range(1, n):
        u = g.image_in_wm(m)
        if u.dim >= 2:
            mid = tuple_from_rank(max(u.dim // 2 - 1, 0), ctx.p, m)
            sub = vj_basis(ctx.p, mid)
            if (u.contains(sub)
                    and submodule_closure(sub, wm_module(ctx.inst, m)) == sub):
                members.append(FamilyMember(
                    f"N_{m}.{sub.dim}", layer_preimage(g, m, sub)))
    rng = SplitMix64(seed)
    gens = g.generating_set()
    previous: Portrait | None = None
    while len(members) < FAMILY_SIZE:
        w = _random_word(rng, gens, 4 + rng.below(5))
        if w.is_identity():
            continue
        idx = len(members)
        members.append(FamilyMember(
            f"ncl{idx}", normal_closure([w], g, name=f"ncl{idx}")))
        if previous is not None and len(members) < FAMILY_SIZE:
            prod = previous * w
            if not prod.is_identity():
                members.append(FamilyMember(
                    f"ncl{idx}x", normal_closure([prod], g, name=f"ncl{idx}x")))
        previous = w
    for mem in members:
        if not mem.subgroup.is_normal_in(g):
            raise AssertionError(f"family member {mem.name} not normal")
    return members


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
    bt = branch_type(inst)
    if bt is BranchType.OVER_DERIVED:
        if is_fabrykowski_gupta(inst):
            return 2, "fabrykowski-gupta: 2"
        if is_ggs(inst):
            return 3, "ggs over derived: 3"
        return r_dot(inst) + 3, "multi-egs over derived: rdot+3"
    if bt is BranchType.OVER_GAMMA3:
        if is_ggs(inst):
            return 4, "ggs over gamma3: 4"
        return 7, "multi-egs over gamma3: 7"
    return None, f"branch type {bt.value}: no effective offset"


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


def branch_subgroup(ctx: GroupContext, n: int) -> Subgroup | None:
    """The subgroup K the group regular-branches over, in the depth-n quotient."""
    inst = ctx.inst
    if isinstance(inst, SunicInstance):
        if not inst.is_regular_branch():
            return None
        if inst.p == 2:
            return ctx.sunic_k(n)
        return ctx.derived(n)
    bt = branch_type(inst)
    if bt is BranchType.OVER_DERIVED:
        return ctx.derived(n)
    if bt is BranchType.OVER_GAMMA3:
        return ctx.gamma(3, n)
    return None


# -- individual checks ----------------------------------------------------------


def verify_effective_csp(ctx: GroupContext, n: int,
                         seed: int) -> VerificationReport:
    """St(m + d) <= [N, G] over a family of normal subgroups (Thm 1.1 shape,
    with the Sunic offsets for that family)."""
    inst = ctx.inst
    offset, offset_label, _ = _family_offset(ctx, n)
    if offset is None:
        return _skip("effective-csp", inst, n, offset_label)
    g = ctx.quotient(n)
    members = ctx.normal_family(n, seed)
    results = {}
    witness = None
    status = "pass"
    for mem in members:
        if mem.subgroup.is_trivial():
            results[mem.name] = "skipped: trivial"
            continue
        m = mem.subgroup.max_stab_depth()
        if m + offset > n:
            results[mem.name] = f"skipped: m={m}, depth<{m + offset}"
            continue
        if m + offset == n:
            results[mem.name] = f"pass: m={m}, target St({n}) trivial"
            continue
        ng = mem.ng(ctx, n)
        target = g.stabilizer(m + offset)
        missing = ng.first_non_member(target.generating_set())
        if missing is not None:
            status = "fail"
            results[mem.name] = f"fail: m={m}"
            witness = {"kind": "non-membership", "member": mem.name, "m": m,
                       "offset": offset, "element": missing[1].digits(),
                       "subgroup_gens": [x.digits()
                                         for x in ng.generating_set()]}
            break
        results[mem.name] = f"pass: m={m}"
        fallback = _remark_fallback(ctx, n, mem, m)
        if fallback is not None:
            results[mem.name + "/K'-fallback"] = fallback
    return VerificationReport(
        "effective-csp", inst.spec_dict(), n, status, one_sided=True,
        details={"offset": offset, "offset_rule": offset_label,
                 "family_size": len(members), "members": results},
        witness=witness)


def _remark_fallback(ctx: GroupContext, n: int, mem: FamilyMember,
                     m: int) -> str | None:
    """The coarse bound psi_{m+1}^{-1}(K' x ... x K') <= [N,G]; must hold
    whenever the sharper offset clause does."""
    if m + 1 >= n:
        return None
    kprime = ctx.branch_derived(n - m - 1)
    if kprime is None:
        return None
    if kprime.is_trivial():
        return "pass: K' trivial at this depth"
    missing = first_missing_embedding(kprime.generating_set(), m + 1,
                                      mem.ng(ctx, n))
    return "pass" if missing is None else f"fail at coordinate {missing[0]}"


def verify_branching(ctx: GroupContext, n: int, seed: int) -> VerificationReport:
    """gamma_3 (resp. gamma_4) coordinate inclusions in psi_{m+1}(St_{[N,G]}(m+1))
    for the two regular-branch cases."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance):
        return _skip("branching", inst, n, "multi-EGS groups only")
    bt = branch_type(inst)
    if bt is BranchType.OVER_DERIVED:
        gamma_k = 3
    elif bt is BranchType.OVER_GAMMA3:
        gamma_k = 4
    else:
        return _skip("branching", inst, n, f"branch type {bt.value}")
    members = [mem for mem in ctx.normal_family(n, seed)
               if mem.name in ("G", "St(1)")]
    results = {}
    status = "pass"
    witness = None
    for mem in members:
        m = 0 if mem.name == "G" else 1
        if n - m - 1 < 1:
            results[mem.name] = "skipped: depth"
            continue
        gam = ctx.gamma(gamma_k, n - m - 1)
        if gam.is_trivial():
            results[mem.name] = f"pass: gamma_{gamma_k} trivial at depth {n - m - 1}"
            continue
        missing = first_missing_embedding(gam.generating_set(), m + 1,
                                          mem.ng(ctx, n))
        results[mem.name] = "pass" if missing is None else "fail"
        if missing is not None:
            idx, x = missing
            witness = {"member": mem.name, "coordinate": idx,
                       "element": x.digits()}
            status = "fail"
            break
    return VerificationReport(
        "branching", inst.spec_dict(), n, status, one_sided=True,
        details={"gamma": gamma_k, "members": results}, witness=witness)


def verify_ggs_strong(ctx: GroupContext, n: int, seed: int) -> VerificationReport:
    """GGS-only strengthening: G'' x...x G'' (resp. gamma_3' x...) inside
    psi_m([N,G])."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance) or not is_ggs(inst):
        return _skip("ggs-strong", inst, n, "GGS groups only")
    bt = branch_type(inst)
    if bt is BranchType.OVER_DERIVED:
        label = "G''"
    elif bt is BranchType.OVER_GAMMA3:
        label = "gamma3'"
    else:
        return _skip("ggs-strong", inst, n, f"branch type {bt.value}")
    results = {}
    status = "pass"
    witness = None
    for mem in ctx.normal_family(n, seed):
        if mem.subgroup.is_trivial() or mem.name.startswith("ncl"):
            continue
        m = mem.subgroup.max_stab_depth()
        if m >= n - 1:
            continue
        k = ctx.branch_derived(n - m)     # K' for K = G' or gamma_3
        if k.is_trivial():
            results[mem.name] = f"pass: {label} trivial at depth {n - m}"
            continue
        missing = first_missing_embedding(k.generating_set(), m,
                                          mem.ng(ctx, n))
        results[mem.name] = "pass" if missing is None else "fail"
        if missing is not None:
            witness = {"member": mem.name, "coordinate": missing[0]}
            status = "fail"
            break
    return VerificationReport(
        "ggs-strong", inst.spec_dict(), n, status, one_sided=True,
        details={"inner": label, "members": results}, witness=witness)


def verify_fg_lemma(ctx: GroupContext, n: int,
                    seed: int) -> VerificationReport:
    """The Fabrykowski-Gupta structure lemma, all three clauses:
    (a1) G^(m) = St(m); (a2) psi_{m-1}(St(m)) = G' x ... x G';
    (b) the coordinate-link congruence for sampled stabilizer elements.

    These are exact quotient identities, so a failure is two-sided.
    """
    inst = ctx.inst
    if not (isinstance(inst, MultiEGSInstance) and is_fabrykowski_gupta(inst)):
        return _skip("fg-lemma", inst, n, "Fabrykowski-Gupta preset only")
    g = ctx.quotient(n)
    details: dict = {}
    witness = None
    status = "pass"
    for m in range(2, n):
        st = g.stabilizer(m)
        dm = ctx.derived(n, m)
        ok = dm.order_exponent == st.order_exponent and dm.is_subgroup_of(st)
        details[f"a1:G^({m})=St({m})"] = "pass" if ok else "fail"
        if not ok:
            status = "fail"
            if witness is None:
                missing = dm.first_non_member(st.generating_set())
                witness = {
                    "kind": "non-membership",
                    "clause": f"G^({m})=St({m})",
                    "derived_exponent": dm.order_exponent,
                    "stab_exponent": st.order_exponent,
                    "element": (missing[1].digits() if missing is not None
                                else None),
                    "subgroup_gens": [x.digits()
                                      for x in dm.generating_set()]}
    for m in range(2, n):
        details[f"a2:psi(St({m}))=G'x..xG'"] = (
            "pass" if _check_psi_st_product(ctx, n, m) else "fail")
        if details[f"a2:psi(St({m}))=G'x..xG'"] == "fail":
            status = "fail"
    rng = SplitMix64(seed)
    for m in range(1, n - 1):
        st_gens = g.stabilizer(m).generating_set()
        if not st_gens:
            continue
        ok_all = True
        for _ in range(FG_LINK_SAMPLES):
            x = _random_word(rng, st_gens, 2 + rng.below(3))
            if not _coordinate_link_holds(ctx, n, m, x):
                ok_all = False
                witness = witness or {"clause": f"b:m={m}",
                                      "element": x.digits()}
        details[f"b:coordinate-link m={m}"] = "pass" if ok_all else "fail"
        if not ok_all:
            status = "fail"
    return VerificationReport("fg-lemma", inst.spec_dict(), n, status,
                              one_sided=False, details=details, witness=witness)


def _check_psi_st_product(ctx: GroupContext, n: int, m: int) -> bool:
    """psi_{m-1}(St_G(m)) = G' x ... x G', both inclusions."""
    g = ctx.quotient(n)
    shallow = ctx.derived(n - m + 1)
    if not sections_within(g.stabilizer(m).generating_set(), m - 1, shallow):
        return False
    return first_missing_embedding(shallow.generating_set(), m - 1, g) is None


def _coordinate_link_holds(ctx: GroupContext, n: int, m: int,
                           x: Portrait) -> bool:
    """phi_v(x) is congruent mod St(2) to psi^-1(a^l(1) b^l(2), ..., a^l(p) b^l(1))
    for some exponent vector l, at every level-(m-1) vertex v."""
    p = ctx.p
    d = n - m + 1            # sections of St(m) at level m-1 live at this depth
    if d < 2:
        return True
    gens = ctx.inst.generators(d - 1)
    a, b = gens[0], gens[1]
    a_pows = [a**k for k in range(p)]
    b_pows = [b**k for k in range(p)]
    candidates = []
    for ell in itertools.product(range(p), repeat=p):
        secs = [a_pows[ell[i]] * b_pows[ell[(i + 1) % p]] for i in range(p)]
        candidates.append(assemble(0, secs))
    for idx in range(p**(m - 1)):
        v = vertex_from_local_index(p, m - 1, idx)
        sec = x.section(v)
        if not any((sec * cand.inverse()).in_stab(2) for cand in candidates):
            return False
    return True


def verify_chain_theorem(ctx: GroupContext, n: int,
                         levels: list[int] | None = None) -> VerificationReport:
    """Layer-by-layer chain certification: the image of St(m) in W_m is a
    chain module V_j, every commutator step drops dimension exactly 1,
    the preimages of all chain layers are normal, and the closed forms for
    t(m) hold for non-torsion regular-branch GGS groups."""
    inst = ctx.inst
    hyp = _chain_hypothesis(inst)
    g = ctx.quotient(n)
    if levels is None:
        levels = list(range(1, n))
    details: dict = {}
    status = "pass"
    witness = None
    tvals = {}
    for m in levels:
        mod = wm_module(inst, m)
        u = g.image_in_wm(m)
        tvals[m] = u.dim
        chain, bad_layer = uniserial_chain(u, mod)
        if bad_layer is not None:
            details[f"chain m={m}"] = f"fail: {bad_layer['reason']}"
            status = "fail"
            witness = witness or {"level": m, **bad_layer,
                                  "upper_basis": chain[-2].basis_digits()
                                  if len(chain) >= 2 else []}
            continue
        details[f"chain m={m}"] = f"pass: length {len(chain) - 1}"
        rm = compute_rm(g, m)
        details[f"image=V_j m={m}"] = (
            f"pass: j_max={rm['j_max']}" if rm["match"] else "fail")
        if not rm["match"]:
            status = "fail"
            witness = witness or {"level": m, **rm.get("witness", {})}
        normal_ok = first_non_normal_layer(g, m, chain) is None
        details[f"preimages normal m={m}"] = "pass" if normal_ok else "fail"
        if not normal_ok:
            status = "fail"
    # closed forms and the two index inequalities
    if (isinstance(inst, MultiEGSInstance) and is_ggs(inst)
            and not is_torsion(inst)
            and branch_type(inst) is BranchType.OVER_DERIVED):
        p = ctx.p
        expect = {m: (p if m == 1 else (p - 1) * p**(m - 1)) for m in levels}
        ok = all(tvals[m] == expect[m] for m in levels)
        details["closed-form t(m)"] = "pass" if ok else f"fail: {tvals}"
        if not ok:
            status = "fail"
    else:
        details["closed-form t(m)"] = "skipped: hypothesis (non-torsion branch GGS)"
    if isinstance(inst, MultiEGSInstance):
        for m in levels:
            if m - 1 in tvals:
                if tvals[m] > ctx.p * tvals[m - 1]:
                    details[f"t({m})<=p*t({m - 1})"] = "fail"
                    status = "fail"
            if m + 1 in tvals:
                if tvals[m] > ctx.p * tvals[m + 1]:
                    details[f"t({m})<=p*t({m + 1})"] = "fail"
                    status = "fail"
        details.setdefault("index-inequalities", "pass")
    details["t"] = {str(m): tvals[m] for m in levels}
    details["characteristic"] = "assumed, not checked (out of scope)"
    if not hyp:
        return VerificationReport(
            "chain", inst.spec_dict(), n, "skipped", one_sided=False,
            details={"reason": "outside the chain-theorem hypothesis "
                               "(needs a directed generator with nonzero "
                               "vector sum, or a Sunic group)",
                     "informational": details},
            witness=witness)
    return VerificationReport("chain", inst.spec_dict(), n, status,
                              one_sided=False, details=details, witness=witness)


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
        return _skip("width-rank", inst, n,
                     "torsion multi-EGS outside the width corollary")
    bound, rule, n_g = _family_offset(ctx, n)
    if bound is None:
        return _skip("width-rank", inst, n, rule)
    g = ctx.quotient(n)
    members = ctx.normal_family(n, seed)
    results = {}
    status = "pass"
    witness = None
    attained = 0
    for mem in members:
        sub = mem.subgroup
        if sub.is_trivial():
            continue
        ng = mem.ng(ctx, n)
        width = sub.order_exponent - ng.order_exponent
        pth = Subgroup(ctx.p, n,
                       ng.generating_set() + [x**ctx.p for x in sub.generating_set()])
        d_normal = sub.order_exponent - pth.order_exponent
        results[mem.name] = {"width": width, "d": d_normal}
        attained = max(attained, width)
        if width > bound or d_normal > bound:
            status = "fail"
            witness = {"member": mem.name, "width": width, "d": d_normal,
                       "bound": bound}
    details = {"bound": bound, "rule": rule, "members": results,
               "max_width_seen": attained}
    if isinstance(inst, MultiEGSInstance) and is_fabrykowski_gupta(inst):
        g_width = g.order_exponent - ctx.derived(n).order_exponent
        details["attainment(N=G)"] = g_width
        if g_width != 2:
            status = "fail"
            witness = witness or {"attainment": g_width}
    if n_g is not None:
        details["n_G"] = n_g
    return VerificationReport("width-rank", inst.spec_dict(), n, status,
                              one_sided=True, details=details, witness=witness)


def verify_congruence_equiv(ctx: GroupContext, n: int) -> VerificationReport:
    """G and the multi-GGS group on the concatenated vector system have the
    same congruence quotients (mutual containment of generator images)."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance):
        return _skip("congruence-equiv", inst, n, "multi-EGS groups only")
    if branch_type(inst) is not BranchType.OVER_DERIVED:
        return _skip("congruence-equiv", inst, n,
                     "requires regular branch over the derived subgroup")
    vecs = [tuple(int(x) for x in row) for row in inst.concatenated_vectors()]
    if r_dot(inst) != len(vecs):
        return _skip("congruence-equiv", inst, n,
                     "concatenated system dependent; companion multi-GGS "
                     "group is not defined")
    h_inst = catalog.make_multi_ggs(ctx.p, vecs)
    g = ctx.quotient(n)
    h = group_of(h_inst, n, name="H_n")
    ok = g.is_subgroup_of(h) and h.is_subgroup_of(g)
    details = {"companion": h_inst.spec_dict(),
               "orders": [g.order_exponent, h.order_exponent]}
    return VerificationReport(
        "congruence-equiv", inst.spec_dict(), n, "pass" if ok else "fail",
        one_sided=False, details=details,
        witness=None if ok else details)


def verify_appb(ctx: GroupContext, n: int) -> VerificationReport:
    """The corrected branch structure for two-or-more-ray symmetric groups:
    B = D*gamma_3 is a branching subgroup, St(5) <= B (depth permitting),
    B <= gamma_3 St(k), and the congruence completion needs 3 generators."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance) or catalog.appb_shape(inst) is None:
        return _skip("appb", inst, n, "requires the multi-ray single-vector "
                                      "symmetric non-constant shape")
    details: dict = {}
    status = "pass"
    witness = None
    words = catalog.appb_d_words(inst)
    details["d_word_count"] = len(words)
    g = ctx.quotient(n)
    gam3 = ctx.gamma(3, n)
    d_seeds = [evaluate_word(inst, w, n) for w in words]
    d_sub = normal_closure([x for x in d_seeds if not x.is_identity()], g,
                           name="D")
    b_sub = join(d_sub, gam3, name="B")
    # regular branch over B
    shallow_b = join(
        normal_closure([x for x in (evaluate_word(inst, w, n - 1)
                                    for w in words) if not x.is_identity()],
                       ctx.quotient(n - 1)),
        ctx.gamma(3, n - 1))
    rb = is_regular_branch_over(g, ctx.quotient(n - 1), b_sub,
                                shallow_b.generating_set())
    details["regular-branch-over-B"] = "pass" if rb else "fail"
    if not rb:
        status = "fail"
    if n >= 6:
        st5 = g.stabilizer(5)
        ok = st5.is_subgroup_of(b_sub)
        details["St(5)<=B"] = "pass" if ok else "fail"
        if not ok:
            status = "fail"
    else:
        details["St(5)<=B"] = "skipped: needs depth >= 6"
    for k in range(1, n):
        gs = join(gam3, g.stabilizer(k))
        ok = b_sub.is_subgroup_of(gs)
        details[f"B<=gamma3*St({k})"] = "pass" if ok else "fail"
        if not ok:
            status = "fail"
            witness = witness or {"clause": f"B<=gamma3*St({k})"}
    if n >= 3:
        d3 = min_generators(ctx.quotient(3))
        details["min_generators(G_3)"] = d3
        if d3 != 3:
            status = "fail"
            witness = witness or {"clause": "min_generators(G_3)", "value": d3}
    return VerificationReport("appb", inst.spec_dict(), n, status,
                              one_sided=True, details=details, witness=witness)


def verify_sunic_suite(ctx: GroupContext, n: int) -> VerificationReport:
    """The appendix facts for Sunic groups: branching subgroup, super strong
    fractality, the R_m pattern, n_G and the stabilizer inclusions."""
    inst = ctx.inst
    if not isinstance(inst, SunicInstance):
        return _skip("sunic", inst, n, "Sunic groups only")
    if not inst.is_regular_branch():
        return _skip("sunic", inst, n,
                     "(p,r)=(2,1) is infinite dihedral, not regular branch")
    details: dict = {}
    status = "pass"
    witness = None
    p, r = inst.p, inst.r
    g = ctx.quotient(n)
    # regular branch over K
    k_n = branch_subgroup(ctx, n)
    k_gens_shallow = branch_subgroup(ctx, n - 1).generating_set()
    rb = is_regular_branch_over(g, ctx.quotient(n - 1), k_n, k_gens_shallow)
    details["regular-branch-over-K"] = "pass" if rb else "fail"
    if not rb:
        status = "fail"
        witness = {"clause": "regular-branch-over-K"}
    # super strongly fractal (depth-capped)
    ssf_depth = min(n, 4)
    quotients = [ctx.quotient(d) for d in range(1, ssf_depth + 1)]
    ssf = is_super_strongly_fractal(quotients)
    details[f"super-strongly-fractal(n<={ssf_depth})"] = "pass" if ssf else "fail"
    if not ssf:
        status = "fail"
    if p == 2 and n >= 3:
        sec = g.stabilizer(2).section_subgroup((2, 2))
        full = ctx.quotient(n - 2)
        ok = sec.equal(full)
        details["phi_22(St(2))=G"] = "pass" if ok else "fail"
        if not ok:
            status = "fail"
    if p % 2 == 1:
        der = ctx.derived(n)
        details["psi(G') subdirect"] = (
            "pass" if is_subdirect_in_product(der, 1, ctx.quotient(n - 1))
            else "fail")
        if details["psi(G') subdirect"] == "fail":
            status = "fail"
    # R_m pattern
    for m in range(1, n):
        rm = compute_rm(g, m)
        t = rm["t"]
        if m <= r:
            ok = t == p**m
            details[f"R_{m}={{1..p}}^{m}"] = "pass" if ok else f"fail: t={t}"
        else:
            ok = t >= (p - 1) * p**(m - 1) and rm["match"]
            details[f"R_{m}>=lower-bound"] = "pass" if ok else f"fail: t={t}"
        if not ok:
            status = "fail"
            witness = witness or {"clause": f"R_{m}", "t": t}
    n_g = None
    if p == 2:
        n_g = ctx.n_g(n)
        details["n_G"] = n_g if n_g is not None else "not found within depth"
    # stabilizer inclusions (depth permitting)
    if p % 2 == 1:
        need = r + 3
        if n > need:
            gpp = ctx.derived(n, 2)
            ok = g.stabilizer(need).is_subgroup_of(gpp)
            details[f"St({need})<=G''"] = "pass" if ok else "fail"
            if not ok:
                status = "fail"
        else:
            details[f"St({r + 3})<=G''"] = "skipped: needs depth > " + str(need)
    elif n_g is not None:
        need = r + n_g + 2
        if n > need:
            kp = ctx.branch_derived(n)
            ok = g.stabilizer(need).is_subgroup_of(kp)
            details[f"St({need})<=K'"] = "pass" if ok else "fail"
            if not ok:
                status = "fail"
        else:
            details[f"St({need})<=K'"] = f"skipped: needs depth > {need}"
    return VerificationReport("sunic", inst.spec_dict(), n, status,
                              one_sided=True, details=details, witness=witness)


def verify_generator_counts(ctx: GroupContext, n: int | None = None
                            ) -> VerificationReport:
    """d(G/St(n)) = 1 + rdot at n = rdot + 1 for groups that branch over the
    derived subgroup."""
    inst = ctx.inst
    if not isinstance(inst, MultiEGSInstance):
        return _skip("generator-count", inst, n or 0, "multi-EGS groups only")
    if branch_type(inst) is not BranchType.OVER_DERIVED:
        return _skip("generator-count", inst, n or 0,
                     "requires regular branch over the derived subgroup")
    rd = r_dot(inst)
    depth = n if n is not None else rd + 1
    if depth < rd + 1:
        return _skip("generator-count", inst, depth,
                     f"needs depth >= rdot+1 = {rd + 1}")
    d = min_generators(ctx.quotient(depth))
    ok = d == 1 + rd
    return VerificationReport(
        "generator-count", inst.spec_dict(), depth,
        "pass" if ok else "fail", one_sided=False,
        details={"rdot": rd, "min_generators": d, "expected": 1 + rd},
        witness=None if ok else {"min_generators": d, "expected": 1 + rd})


def verify_profinite_distinction(ctx_g: GroupContext, ctx_h: GroupContext
                                 ) -> VerificationReport:
    """Two groups with different numbers of directed generators have
    congruence completions of different abelianized rank."""
    gi, hi = ctx_g.inst, ctx_h.inst
    for inst in (gi, hi):
        if not (isinstance(inst, MultiEGSInstance)
                and branch_type(inst) is BranchType.OVER_DERIVED
                and has_csp(inst)):
            return _skip("profinite-pair", inst, 0,
                         "both groups must branch over the derived subgroup "
                         "and have the congruence subgroup property")
    rg, rh = r_dot(gi), r_dot(hi)
    dg = min_generators(ctx_g.quotient(rg + 1))
    dh = min_generators(ctx_h.quotient(rh + 1))
    ok = (dg == 1 + rg) and (dh == 1 + rh) and dg != dh
    return VerificationReport(
        "profinite-pair", {"G": gi.spec_dict(), "H": hi.spec_dict()},
        max(rg, rh) + 1, "pass" if ok else "fail", one_sided=False,
        details={"rank_G": dg, "rank_H": dh},
        witness=None if ok else {"rank_G": dg, "rank_H": dh})


# -- registry -----------------------------------------------------------------


def default_depth(name: str, inst) -> int:
    p = inst.p
    if name == "effective-csp":
        return 5 if p == 2 else (5 if p == 3 else 3)
    if name in ("branching", "ggs-strong"):
        return 4 if p == 3 else 3
    if name == "fg-lemma":
        return 4
    if name == "chain":
        return 4 if p <= 3 else 3
    if name == "width-rank":
        return 4 if p <= 3 else 3
    if name == "congruence-equiv":
        return 3
    if name == "appb":
        return 4 if p == 3 else 3
    if name == "sunic":
        return 6 if p == 2 else 5
    if name == "generator-count":
        if isinstance(inst, MultiEGSInstance):
            return r_dot(inst) + 1
        return 3
    raise KeyError(name)


CHECKS: dict[str, Callable] = {
    "effective-csp": lambda ctx, n, seed: verify_effective_csp(ctx, n, seed),
    "branching": lambda ctx, n, seed: verify_branching(ctx, n, seed),
    "ggs-strong": lambda ctx, n, seed: verify_ggs_strong(ctx, n, seed),
    "fg-lemma": lambda ctx, n, seed: verify_fg_lemma(ctx, n, seed),
    "chain": lambda ctx, n, seed: verify_chain_theorem(ctx, n),
    "width-rank": lambda ctx, n, seed: verify_width_and_rank(ctx, n, seed),
    "congruence-equiv": lambda ctx, n, seed: verify_congruence_equiv(ctx, n),
    "appb": lambda ctx, n, seed: verify_appb(ctx, n),
    "sunic": lambda ctx, n, seed: verify_sunic_suite(ctx, n),
    "generator-count": lambda ctx, n, seed: verify_generator_counts(ctx, n),
}


def run_check(ctx: GroupContext, name: str, depth: int | None = None,
              seed: int = 0, timings: bool = False) -> VerificationReport:
    if name not in CHECKS:
        raise KeyError(f"unknown check {name!r}; choose from {sorted(CHECKS)}")
    n = depth if depth is not None else default_depth(name, ctx.inst)
    t0 = time.perf_counter()
    try:
        report = CHECKS[name](ctx, n, seed)
    except ResourceGuardError as exc:
        report = _skip(name, ctx.inst, n, f"resource guard: {exc}")
    if timings:
        report.millis = int((time.perf_counter() - t0) * 1000)
    return report


def run_all(ctx: GroupContext, depth: int | None = None, seed: int = 0,
            timings: bool = False) -> list[VerificationReport]:
    return [run_check(ctx, name, depth, seed, timings)
            for name in sorted(CHECKS)]
