"""The shared state of the theorem checks for one group instance.

`GroupContext` caches the finite quotients G_n = G/St_G(n), n_G, the
normal families the checks run over and, in one dict, [N, G] for every
normal N: G' is closed from scratch and every other [N, G], lower central
terms and family members alike, extends the largest [M, G] built below
it, building that of the member below first.  The G-Frattini subgroup of
each N is built once on its [N, G], and the higher derived terms and K'
are closed from scratch once each.
"""

from __future__ import annotations

from .catalog import BranchType, SunicInstance, branch_type
from .engine import (Subgroup, commutator_subgroup, extend, group_of,
                     normal_closure)
from .gmodules import (chain_module, image_in_wm, layer_preimage,
                       submodule_closure, wm_module)
from .trees import Portrait, commutator, commutator_seeds, powers_of

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


# -- group context ------------------------------------------------------------

# Members of the normal family that effective-csp and width-rank test.
FAMILY_SIZE = 20


class GroupContext:
    """Shared cache of quotients, commutator subgroups and series for one
    instance."""

    def __init__(self, inst):
        self.inst = inst
        self._quotients: dict[int, Subgroup] = {}
        # [H, H] for H other than G, and [N, G] for every N, per depth
        self._commutators: dict[tuple[Subgroup, int], Subgroup] = {}
        self._ngs: dict[tuple[Subgroup, int], Subgroup] = {}
        self._g_frattinis: dict[tuple[Subgroup, int], Subgroup] = {}
        # the distinct subgroups of the depth-n family members, in order
        self._members: dict[int, dict[Subgroup, None]] = {}
        self._families: dict[tuple[int, int], list] = {}
        self._sunic_k: dict[int, Subgroup] = {}
        self._n_g: dict[int, int | None] = {}

    @property
    def p(self) -> int:
        return self.inst.p

    def quotient(self, n: int) -> Subgroup:
        if n not in self._quotients:
            self._quotients[n] = group_of(self.inst, n)
        return self._quotients[n]

    def commutator(self, h: Subgroup, n: int) -> Subgroup:
        """[H, H] for H normal in the depth-n quotient G, memoised on H:
        G' is member_ng(G, n), any other closed from scratch."""
        g = self.quotient(n)
        if h is g:
            return self.member_ng(g, n)
        if (h, n) not in self._commutators:
            self._commutators[h, n] = commutator_subgroup(h, h, g)
        return self._commutators[h, n]

    def member_ng(self, sub: Subgroup, n: int) -> Subgroup:
        """[N, G] for N = sub, normal in the depth-n quotient G, memoised
        on sub: the one builder of [N, G], series terms included.

        For N = G this is G', closed from scratch.  Otherwise the [M, G]
        already built at depth n are tried, largest first and, among
        equals, larger M first; the first with M <= N is reused.  With no
        such M, [M, G] is built first, by this rule, for the largest family
        member M < N, so only the least member of a chain is closed from
        scratch.  For |M| = |N| [M, G] is the same object, else a copy of
        its pcgs extended by the normal closure of [x, g] for the
        generators x of N outside M and g of G: [N, G], as [M, G] is normal
        in G and N = <M, x>.
        """
        if (sub, n) not in self._ngs:
            g = self.quotient(n)
            self._ngs[sub, n] = (commutator_subgroup(g, g, g) if sub is g
                                 else self._ng_from_below(sub, g, n))
        return self._ngs[sub, n]

    def built_ngs(self, n: int) -> list[tuple[Subgroup, Subgroup]]:
        """The pairs (M, [M, G]) built so far in the depth-n quotient G."""
        return [(a, c) for (a, k), c in self._ngs.items() if k == n]

    def _ng_from_below(self, sub: Subgroup, g: Subgroup, n: int) -> Subgroup:
        built = sorted(self.built_ngs(n), key=lambda ac: (
            -ac[1].order_exponent, -ac[0].order_exponent))
        below = next(((m, mg) for m, mg in built
                      if m.order_exponent <= sub.order_exponent
                      and m.is_subgroup_of(sub)), None)
        if below is None:
            members = sorted(self._members.get(n, ()),
                             key=lambda m: -m.order_exponent)
            m = next((m for m in members
                      if m.order_exponent < sub.order_exponent
                      and m.is_subgroup_of(sub)), None)
            if m is None:
                return commutator_subgroup(sub, g, g)
            below = m, self.member_ng(m, n)
        m, mg = below
        if m.order_exponent == sub.order_exponent:
            return mg
        outside = [x for x, inside in zip(sub.gens, m.pcgs.members(sub.gens))
                   if not inside]
        pcgs = mg.pcgs.tail(0)
        kept = pcgs.add_generators(commutator_seeds(outside, g.gens), g.gens)
        return Subgroup(self.p, n, mg.gens + kept, pcgs=pcgs)

    def g_frattini(self, sub: Subgroup, n: int) -> Subgroup:
        """The G-Frattini subgroup <[N, G], x^p for the generators x of N>
        of N = sub, normal in the depth-n quotient G, memoised on sub: the
        least normal subgroup of G below N with a central elementary
        abelian quotient.  For N = G it is the Frattini subgroup G' G^p.
        [N, G] itself when it holds every p-th power, else a copy of its
        pcgs extended by them."""
        if (sub, n) not in self._g_frattinis:
            ng = self.member_ng(sub, n)
            p_powers = powers_of(sub.gens, self.p)
            self._g_frattinis[sub, n] = (
                ng if ng.pcgs.members(p_powers).all()
                else extend(ng, p_powers, ng.gens + p_powers))
        return self._g_frattinis[sub, n]

    def normal_rank(self, sub: Subgroup, n: int) -> int:
        """log_p |N : Phi_G(N)|, the number of normal generators of N = sub
        in the depth-n quotient G; for N = G this is d(G) by the Burnside
        basis theorem."""
        return sub.order_exponent - self.g_frattini(sub, n).order_exponent

    def derived(self, n: int, order: int = 1) -> Subgroup:
        """The order-th derived subgroup G^(order) of the depth-n quotient."""
        h = self.quotient(n)
        for _ in range(order):
            h = self.commutator(h, n)
        return h

    def gamma(self, k: int, n: int) -> Subgroup:
        """k-th lower central term of the depth-n quotient."""
        term = self.quotient(n)
        for _ in range(k - 1):
            term = self.member_ng(term, n)
        return term

    def branch_derived(self, n: int) -> Subgroup | None:
        """K' for the branching subgroup K at depth n (None if not branch)."""
        k = branch_subgroup(self, n)
        return None if k is None else self.commutator(k, n)

    def sunic_k(self, n: int) -> Subgroup:
        """K = <[a,b_2],...,[a,b_r]>^G for Sunic groups on the binary tree."""
        if n not in self._sunic_k:
            gens = self.inst.generators(n)
            seeds = [commutator(gens[0], b) for b in gens[2:]]
            self._sunic_k[n] = normal_closure(seeds, self.quotient(n))
        return self._sunic_k[n]

    def n_g(self, n: int) -> int | None:
        """Least n' with <a, b_1, ..., b_{r-1}> inside the section of
        st_K(2...2) at the vertex 2...2 of level n' (p = 2 Sunic groups);
        quotient-level, hence one-sided."""
        if n not in self._n_g:
            sec = self.sunic_k(n)
            self._n_g[n] = None
            for cand in range(1, n - 1):
                # phi_2(st_S(2)) of the last section S: the one at 2...2
                sec = sec.section_subgroup((2,))
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
    """A verified-normal subgroup of G_n; equal members may share one
    Subgroup object."""

    def __init__(self, name: str, subgroup: Subgroup):
        self.name = name
        self.subgroup = subgroup

    def ng(self, ctx: GroupContext, n: int) -> Subgroup:
        """[N, G] (for the members G and gamma_k this is G' and gamma_k+1)."""
        return ctx.member_ng(self.subgroup, n)


def random_word(rng: SplitMix64, gens: list[Portrait], length: int) -> Portrait:
    """A product of `length` factors, each a generator drawn by rng or,
    by a second draw, its inverse."""
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
    members: list[FamilyMember] = []
    registered = ctx._members.setdefault(n, {})

    def add(name: str, sub: Subgroup) -> None:
        members.append(FamilyMember(name, sub))
        registered[sub] = None

    add("G", g)
    for m in range(1, n):
        add(f"St({m})", g.stabilizer(m))
    for k in (2, 3, 4):
        gam = ctx.gamma(k, n)
        if not gam.is_trivial():
            add(f"gamma{k}", gam)
    for order in (2, 3):
        d = ctx.derived(n, order)
        if not d.is_trivial():
            add("G" + "'" * order, d)
    # chain-layer preimages: one mid-chain layer per level (only when the
    # candidate subspace is action-invariant and inside the actual image)
    for m in range(1, n):
        u = image_in_wm(g, m)
        if u.dim >= 2:
            sub = chain_module(ctx.p, m, u.dim // 2)
            if (u.contains(sub)
                    and submodule_closure(sub, wm_module(ctx.inst, m)) == sub):
                add(f"N_{m}.{sub.dim}", layer_preimage(g, m, sub))
    rng = SplitMix64(seed)
    gens = g.gens
    previous: Portrait | None = None
    while len(members) < FAMILY_SIZE:
        w = random_word(rng, gens, 4 + rng.below(5))
        if w.is_identity():
            continue
        idx = len(members)
        add(f"ncl{idx}", _member_closure(ctx, n, w, members))
        if previous is not None and len(members) < FAMILY_SIZE:
            prod = previous * w
            if not prod.is_identity():
                add(f"ncl{idx}x", _member_closure(ctx, n, prod, members))
        previous = w
    checked: set[Subgroup] = set()
    for mem in members:
        if mem.subgroup in checked:
            continue
        checked.add(mem.subgroup)
        if not mem.subgroup.is_normal_in(g):
            raise AssertionError(f"family member {mem.name} not normal")
    return members


def _member_closure(ctx: GroupContext, n: int, w: Portrait,
                    members: list[FamilyMember]) -> Subgroup:
    """The normal closure of w (not the identity) in the depth-n quotient G:
    the subgroup of a member when it equals one, else <w> L for a normal
    subgroup L already built when ncl(w) = <w> L, else closed from scratch.

    Were ncl(w) a member, it would be a least member M containing w.  And
    ncl(w) = M iff |M : Phi_G(M)| = p and w is not in Phi_G(M), Phi_G the
    G-Frattini subgroup: M / Phi_G(M) is central and elementary abelian,
    so ncl(w) Phi_G(M) = <w> Phi_G(M); and a maximal normal L of G with
    ncl(w) <= L < M has M / L central of order p, so L >= Phi_G(M).  w is
    tested against [M, G] before Phi_G(M) is built.

    Else let S be the [w, g] over the generators g of G.  Then
    ncl(w) = <w> ncl(S), as w is central modulo ncl(S), and
    [ncl(w), G] = ncl(S), as [w, xy] = [w, y] [w, x]^y.  Every normal
    subgroup containing S contains ncl(S), so only the least L among the
    members, series terms and built [M, G] that contains S is tested:
    ncl(S) = L iff S generates L modulo Phi_G(L), by the same chief-factor
    argument, i.e. iff <S> Phi_G(L) = L.  Then ncl(w) is a copy of L's
    pcgs extended by w, and its [N, G] is memoised as L.

    In `verify all --preset fg3 --depth 4 --seed 1`, 6 of the 8 random
    members share an earlier member's subgroup and the other 2 extend G'.
    The members are searched by increasing order, each distinct subgroup
    once. [M, G] is memoised, as the checks read it anyway.
    """
    g = ctx.quotient(n)
    subs = sorted(dict.fromkeys(mem.subgroup for mem in members),
                  key=lambda sub: sub.order_exponent)
    least = next(sub for sub in subs if sub.contains(w))
    if not ctx.member_ng(least, n).contains(w):
        phi = ctx.g_frattini(least, n)
        if (least.order_exponent - phi.order_exponent == 1
                and not phi.contains(w)):
            return least
    seeds = commutator_seeds([w], g.gens)
    normals = sorted(dict.fromkeys(subs + [mg for _, mg in ctx.built_ngs(n)]),
                     key=lambda sub: sub.order_exponent)
    ell = next(sub for sub in normals if sub.first_non_member(seeds) is None)
    phi = ctx.g_frattini(ell, n)
    if extend(phi, seeds, phi.gens + seeds).order_exponent == ell.order_exponent:
        sub = extend(ell, [w], [w] + ell.gens)
        ctx._ngs[sub, n] = ell
        return sub
    return normal_closure([w], g)


# -- the branching subgroup ---------------------------------------------------


def branch_gamma(inst) -> int | None:
    """k with the group regular branch over gamma_k (gamma_2 = G'), or None
    when it is not regular branch over a lower central term."""
    if isinstance(inst, SunicInstance):
        return 2 if inst.p % 2 else None
    return {BranchType.OVER_DERIVED: 2,
            BranchType.OVER_GAMMA3: 3}.get(branch_type(inst))


def branch_subgroup(ctx: GroupContext, n: int) -> Subgroup | None:
    """The subgroup K the group regular-branches over, in the depth-n quotient."""
    inst = ctx.inst
    if isinstance(inst, SunicInstance) and inst.p == 2:
        return ctx.sunic_k(n) if inst.is_regular_branch() else None
    k = branch_gamma(inst)
    return None if k is None else ctx.gamma(k, n)
