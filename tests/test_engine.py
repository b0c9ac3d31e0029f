from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.catalog import (PRESET_NAMES, fabrykowski_gupta,
                                  gupta_sidki, make_ggs, make_multi_ggs,
                                  make_sunic, preset)
from branchgroups.engine import (InducedPcgs, Subgroup, commutator_subgroup,
                                 extend, frattini_subgroup, group_of,
                                 is_regular_branch_over,
                                 is_subdirect_in_product,
                                 is_super_strongly_fractal, join,
                                 min_generators, normal_closure,
                                 sections_within)
from branchgroups.context import GroupContext
from branchgroups.gmodules import image_in_wm
from branchgroups.linalg import FpSubspace, rref
from branchgroups.oracle import bfs_enumerate
from branchgroups.trees import (Portrait, ResourceGuardError, _stack,
                               commutator, commutator_seeds, compose_all,
                               frattini_seeds, powers_of, rooted_a,
                               vertex_from_local_index)


# -- orders against the BFS oracle (the oracle is the referee) ---------------

def test_cyclic_group_order():
    assert Subgroup(3, 3, [rooted_a(3, 3)]).order_exponent == 1


@pytest.mark.parametrize("depth,expected", [(1, 1), (2, 4)])
def test_fg_small_orders_match_bfs(depth, expected):
    inst = fabrykowski_gupta(3)
    g = group_of(inst, depth)
    count, exp = bfs_enumerate(inst.generators(depth))
    assert g.order_exponent == exp == expected
    assert count == 3**expected


def test_gs_depth2_matches_bfs():
    inst = gupta_sidki(3)
    g = group_of(inst, 2)
    _, exp = bfs_enumerate(inst.generators(2))
    assert g.order_exponent == exp == 3


def test_grigorchuk_depth3_matches_bfs():
    inst = preset("sunic-grigorchuk")
    g = group_of(inst, 3)
    count, exp = bfs_enumerate(inst.generators(3))
    assert g.order_exponent == exp == 7
    assert count == 128


def test_fg_known_level_dims(fg3_ctx):
    g = fg3_ctx.quotient(4)
    assert g.order_exponent == 28
    assert g.level_dims() == [1, 3, 6, 18]
    # chain consistency: exponent = sum of layer image dimensions
    assert g.order_exponent == sum(image_in_wm(g, m).dim for m in range(4))
    # each layer image is computed once per subgroup
    assert image_in_wm(g, 2) is image_in_wm(g, 2)


@pytest.mark.parametrize("gens", [
    fabrykowski_gupta(5).generators(3),
    make_multi_ggs(5, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]).generators(3),
    [rooted_a(3, 3) * fabrykowski_gupta(3).generators(3)[1]]],
    ids=["fg5", "multi-ggs-p5-3", "fg3-cyclic-ab"])
def test_pcgs_is_induced(gens):
    p = gens[0].p
    pcgs = Subgroup(p, 3, gens).pcgs
    elems = pcgs.elements()
    pivots = [int(np.flatnonzero(h.lab)[0]) for h in elems]
    assert pivots == pcgs.pivots()
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert all(h.lab[i] == 1 for i, h in zip(pivots, elems))
    for j, h in enumerate(elems):
        assert pcgs.contains(h**p)
        assert all(pcgs.contains(commutator(h, x)) for x in elems[:j])


class ReferencePcgs:
    """The induced pcgs as it was before the power table: a dict from pivot
    to [h, h^-1, ..., h^-(p-1)] and one portrait sifted at a time.  Kept as
    the reference for insertion order, pivots and elements."""

    def __init__(self, p):
        self.p = p
        self.powers = {}

    def sift(self, f):
        nz = np.flatnonzero(f.lab)
        i = int(nz[0]) if nz.size else -1
        while i >= 0:
            powers = self.powers.get(i)
            if powers is None:
                break
            f = f * powers[int(f.lab[i])]
            nz = np.flatnonzero(f.lab[i + 1:])
            i = i + 1 + int(nz[0]) if nz.size else -1
        return i, f

    def add_generator(self, g):
        queue = [g]
        grew = False
        while queue:
            i, h = self.sift(queue.pop())
            if i < 0:
                continue
            lead = int(h.lab[i])
            if lead != 1:
                h = h ** pow(lead, -1, self.p)
            powers = [h, h.inverse()]
            for _ in range(self.p - 2):
                powers.append(powers[-1] * powers[1])
            queue.append(powers[1] * powers[-1])          # h^-p
            queue.extend(powers[1] * x[1] * h * x[0]      # [h, x]
                         for x in self.powers.values())
            self.powers[i] = powers
            grew = True
        return grew


def reference_normal_closure(seeds, ambient):
    """normal_closure as it was before batched sifting: every conjugate is
    queued and added whole.  Returns the kept elements and the pcgs."""
    pcgs = ReferencePcgs(ambient.p)
    amb = [(g, g.inverse()) for g in ambient.gens]
    queue = [s for s in seeds if not s.is_identity()]
    kept = []
    while queue:
        x = queue.pop(0)
        if not pcgs.add_generator(x):
            continue
        kept.append(x)
        queue.extend(g_inv * x * g for g, g_inv in amb)
    return kept, pcgs


def ggs5_three_vectors(depth):
    return make_multi_ggs(
        5, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]).generators(depth)


PINNED_GROUPS = {
    "fg3-d4": lambda: fabrykowski_gupta(3).generators(4),
    "fg5-d3": lambda: fabrykowski_gupta(5).generators(3),
    "multi-ggs-p5-3-d3": lambda: ggs5_three_vectors(3),
    "grigorchuk-d6": lambda: preset("sunic-grigorchuk").generators(6),
    "fg3-cyclic-ab-d3": lambda: [rooted_a(3, 3)
                                 * fabrykowski_gupta(3).generators(3)[1]],
    # at depth 1 every element lies on the deepest level (offset 0)
    "fg5-d1": lambda: [rooted_a(5, 1) ** 2, rooted_a(5, 1)],
}


def deep_rref(elems, deep, p):
    """The RREF of the deepest-level labels of the elements with pivot on
    that level, as (rows, absolute pivots)."""
    labels = [h.lab[deep:] for h in elems
              if np.flatnonzero(h.lab)[0] >= deep]
    if not labels:
        return [], []
    rows, pivots = rref(np.array(labels), p)
    return rows.tolist(), [c + deep for c in pivots]


def split_by_level(pcgs):
    """The elements in pivot order: those above the deepest level, and the
    deep block's rows in pivot order with their pivots, read through
    _slot."""
    deep, elems = pcgs._deep, pcgs.elements()
    upper = [h for h in elems if np.flatnonzero(h.lab)[0] < deep]
    pivots = [i for i in pcgs.pivots() if i >= deep]
    assert all(isinstance(i, int) for i in pcgs.pivots())
    block = pcgs._block[pcgs._slot[pivots]].tolist()
    assert [h.lab[deep:].tolist() for h in elems[len(upper):]] == block
    return upper, (block, pivots)


def assert_matches_reference(pcgs, ref):
    """Pivots and the elements above the deepest level (in insertion order
    and in pivot order) equal the stepwise referee's byte for byte; the
    deep block is the RREF of the referee's deep elements."""
    deep = pcgs._deep
    ref_pivots = sorted(ref.powers)
    assert pcgs._pivot_of == [i for i in ref.powers if i < deep]
    assert pcgs.pivots() == ref_pivots
    upper, block = split_by_level(pcgs)
    assert ([rows_of([h]) for h in upper]
            == [rows_of(ref.powers[i][:1]) for i in ref_pivots if i < deep])
    assert block == deep_rref([ref.powers[i][0] for i in ref_pivots], deep,
                              pcgs.p)
    off = pcgs._t.label_off
    assert pcgs.level_dims() == [sum(lo <= i < hi for i in ref_pivots)
                                 for lo, hi in zip(off, off[1:])]


def reference_residue(ref, f, deep):
    """The residue the sift must leave for f: the referee's when its row
    reaches the deepest level at a free pivot (or never); when it reaches
    an occupied one, the referee's residue reduced against the span of
    the referee's deep elements, in which the row's coset is decided."""
    i, want = ref.sift(f)
    upper = ReferencePcgs(ref.p)
    upper.powers = {j: h for j, h in ref.powers.items() if j < deep}
    entry, _ = upper.sift(f)
    if entry >= deep and entry in ref.powers:
        span = FpSubspace(ref.p, len(f.lab) - deep,
                          [h[0].lab[deep:] for j, h in ref.powers.items()
                           if j >= deep])
        lab = want.lab.copy()
        lab[deep:] = span.reduce(lab[deep:])
        return i, lab, want.perm
    return i, want.lab, want.perm


@pytest.mark.parametrize("name", list(PINNED_GROUPS))
def test_pcgs_matches_reference_insertion(name):
    gens = PINNED_GROUPS[name]()
    p, depth = gens[0].p, gens[0].depth
    pcgs = Subgroup(p, depth, gens).pcgs
    ref = ReferencePcgs(p)
    for g in gens:
        ref.add_generator(g)
    assert_matches_reference(pcgs, ref)
    # every row of a batch sifts to the reference residue, and to what it
    # sifts to alone
    deep = pcgs._deep
    rng = np.random.default_rng(len(name))
    batch = [gens[0]] + [Portrait.from_labels(p, depth, rng.integers(
        0, p, pcgs._t.nlabels)) for _ in range(12)]
    x = Portrait.identity(p, depth)
    for _ in range(6):                                  # members too
        x = x * gens[int(rng.integers(len(gens)))]
        batch.append(x)
    lab = np.stack([f.lab for f in batch])
    perm = np.stack([f.perm for f in batch])
    piv = pcgs.sift(lab, perm)
    for row, f in enumerate(batch):
        want_piv, want_lab, want_perm = reference_residue(ref, f, deep)
        assert piv[row] == want_piv
        assert np.array_equal(lab[row], want_lab)
        assert np.array_equal(perm[row], want_perm)
        alone_lab, alone_perm = f.lab[None].copy(), f.perm[None].copy()
        assert pcgs.sift(alone_lab, alone_perm)[0] == want_piv
        assert np.array_equal(alone_lab[0], want_lab)
    assert pcgs.members(batch).tolist() == [i < 0 for i in piv]


@pytest.mark.parametrize("name", ["fg3-d4", "fg5-d3", "grigorchuk-d6"])
def test_deep_closing_rows_gather_the_commutators(name):
    # on every deep insertion the gathered closing rows are [x, h] for the
    # new deep element h and every x above the deepest level, in slot
    # order, each in St(depth-1) with the identity perm
    gens = PINNED_GROUPS[name]()
    p, depth = gens[0].p, gens[0].depth
    t = gens[0].tables
    gather = InducedPcgs._closing_rows
    calls = []

    def checked(self, pivot):
        got_lab, got_perm = gather(self, pivot)
        if pivot < self._deep:
            return got_lab, got_perm
        assert self._slot[pivot] == len(self._block) - 1
        h = self._block_labels([-1])[0]
        h = Portrait(p, depth, h, t.ident)
        assert (h ** p).is_identity()
        upper = [Portrait(p, depth, self._lab[s, 0], self._perm[s, 0])
                 for s in range(len(self._pivot_of))]
        want = [commutator(x, h) for x in upper]
        assert all(c.in_stab(depth - 1) and np.array_equal(c.perm, t.ident)
                   for c in want)
        assert got_lab.tolist() == [c.lab.tolist() for c in want]
        assert got_perm.tolist() == [c.perm.tolist() for c in want]
        calls.append(len(want))
        return got_lab, got_perm

    with mock.patch.object(InducedPcgs, "_closing_rows", checked):
        pcgs = Subgroup(p, depth, gens).pcgs
    assert len(calls) == len(pcgs._block) and max(calls) > 0


@pytest.mark.parametrize("name", ["fg3-d4", "fg5-d3", "grigorchuk-d6"])
def test_closing_rows_gather_the_commutators_with_deep_elements(name):
    # the closing rows of every element h above the deepest level end with
    # [h, y] for every y in the deep block, in block row order, each with
    # the identity perm
    gens = PINNED_GROUPS[name]()
    p, depth = gens[0].p, gens[0].depth
    pcgs = Subgroup(p, depth, gens).pcgs
    t, k = pcgs._t, len(pcgs._block)
    ys = [Portrait(p, depth, lab, t.ident)
          for lab in pcgs._block_labels(slice(None))]
    assert k > 0 and pcgs._pivot_of
    for s in range(len(pcgs._pivot_of)):
        h = Portrait(p, depth, pcgs._lab[s, 0], pcgs._perm[s, 0])
        lab, perm = pcgs._closing_rows(pcgs._pivot_of[s])
        assert len(lab) == 1 + s + k
        assert rows_of([Portrait(p, depth, lab[r], perm[r])
                        for r in range(1 + s, len(lab))]) == rows_of(
            [commutator(h, y) for y in ys])


@pytest.mark.parametrize("name", ["fg3-d4", "grigorchuk-d6"])
def test_power_table_holds_no_deepest_level_slot(name):
    gens = PINNED_GROUPS[name]()
    pcgs = Subgroup(gens[0].p, gens[0].depth, gens).pcgs
    dims = pcgs.level_dims()
    assert len(pcgs._lab) == len(pcgs._perm) == sum(dims[:-1])
    assert len(pcgs._block) == dims[-1] > 0
    assert all(i < pcgs._deep for i in pcgs._pivot_of)


def test_strong_generator_cap_counts_deepest_level_insertions():
    gens = PINNED_GROUPS["fg3-d4"]()
    full = Subgroup(3, 4, gens)
    spy = mock.patch.object(InducedPcgs, "_insert", autospec=True,
                            side_effect=InducedPcgs._insert)
    with spy as inserts:
        deep = full.pcgs._deep
    order = [c.args[1] for c in inserts.call_args_list]
    # the cap trips at the last insertion on the deepest level
    cap = max(s for s, i in enumerate(order) if i >= deep)
    assert cap > full.order_exponent / 2
    assert any(i < deep for i in order[:cap])
    pcgs = InducedPcgs(3, 4)
    with mock.patch("branchgroups.engine.MAX_STRONG_GENS", cap), \
            spy as inserts:
        with pytest.raises(ResourceGuardError, match=f"cap {cap} exceeded"):
            pcgs.add_generators(gens)
    assert [c.args[1] for c in inserts.call_args_list] == order[:cap + 1]
    assert pcgs.order_exponent == cap
    assert pcgs.pivots() == sorted(order[:cap])
    assert pcgs._pivot_of == [i for i in order[:cap] if i < deep]


def block_is_reduced(pcgs):
    """The deep block in pivot order, with its pivots, after checking that
    it is in reduced echelon form and that _slot and _block_piv agree."""
    deep = pcgs._deep
    _, (rows, pivots) = split_by_level(pcgs)
    assert sorted(pcgs._block_piv + deep) == pivots
    assert pcgs._slot[pivots].tolist() == [
        pcgs._block_piv.tolist().index(i - deep) for i in pivots]
    if rows:
        assert rref(np.array(rows), pcgs.p)[0].tolist() == rows
    return rows, pivots


@pytest.mark.parametrize("name", ["fg3-d4", "fg5-d3", "grigorchuk-d6"])
def test_deep_block_is_the_rref_of_the_deep_elements(name):
    gens = PINNED_GROUPS[name]()
    p, depth = gens[0].p, gens[0].depth
    insert = InducedPcgs._insert
    sizes = []

    def checked(self, *args):
        insert(self, *args)
        sizes.append(len(block_is_reduced(self)[1]))

    with mock.patch.object(InducedPcgs, "_insert", checked):
        base = Subgroup(p, depth, gens[1:])
        assert base.order_exponent > 0
        before = block_is_reduced(base.pcgs)
        # extend copies base's pcgs and inserts into the copy only
        full = extend(base, gens[:1], gens)
        assert full.order_exponent > base.order_exponent
    assert block_is_reduced(base.pcgs) == before
    assert max(sizes) > 1
    pcgs = full.pcgs
    ref = ReferencePcgs(p)
    for g in gens:
        ref.add_generator(g)
    assert pcgs.pivots() == sorted(ref.powers)
    deep, n = pcgs._deep, pcgs._t.nlabels
    rows, deep_pivots = block_is_reduced(pcgs)
    assert (rows, deep_pivots) == deep_rref(
        [h[0] for h in ref.powers.values()], deep, p)
    starts = [0, deep, deep + 1, deep_pivots[len(deep_pivots) // 2], n]
    for start in starts:
        tail = pcgs.tail(start)
        kept = [j for j, i in enumerate(deep_pivots) if i >= start]
        assert block_is_reduced(tail) == ([rows[j] for j in kept],
                                          [deep_pivots[j] for j in kept])


def member_by_reference(gens, p):
    """The referee for membership: a pcgs built and sifted one portrait
    at a time, by portrait products."""
    ref = ReferencePcgs(p)
    for g in gens:
        ref.add_generator(g)
    return lambda f: ref.sift(f)[0] < 0


@pytest.mark.parametrize("name", ["fg3-d4", "fg5-d3", "grigorchuk-d6"])
def test_deep_membership_matches_the_stepwise_referee(name):
    # members, elements of St(depth-1) in and out of the span of the deep
    # elements, and members times such elements, whose rows reach the
    # deepest level only after stepping through the upper levels
    gens = PINNED_GROUPS[name]()
    p, depth = gens[0].p, gens[0].depth
    g = Subgroup(p, depth, gens)
    deep = g.pcgs._deep
    rng = np.random.default_rng(depth)
    subs = [g, commutator_subgroup(g, g, g), g.stabilizer(1),
            Subgroup(p, depth, [x for x in g.pcgs.elements()
                                if x.in_stab(depth - 1)][::2])]
    seen = set()
    for sub in subs:
        member = member_by_reference(sub.gens, p)
        elems = sub.pcgs.elements()
        deep_elems = [x for x in elems if x.in_stab(depth - 1)]
        batch = []
        for _ in range(8):
            x = compose_all((elems[int(k)] ** int(rng.integers(1, p))
                             for k in rng.integers(0, len(elems), 3)),
                            p, depth)
            lab = np.zeros(g.pcgs._t.nlabels, dtype=np.int8)
            lab[deep:] = rng.integers(0, p, len(lab) - deep)
            d = Portrait.from_labels(p, depth, lab)
            e = compose_all((y ** int(rng.integers(0, p))
                             for y in deep_elems), p, depth)
            batch += [x, d, e, x * d, x * e, d * x]
        want = [member(f) for f in batch]
        assert sub.pcgs.members(batch).tolist() == want
        assert [sub.contains(f) for f in batch] == want
        seen |= {(f.in_stab(depth - 1), w) for f, w in zip(batch, want)}
    assert seen == {(True, True), (True, False), (False, True),
                    (False, False)}


def two_seeds(a, b, *_):
    return [commutator(a, b), b * a * b]


def power_seeds(a, *_):
    """a^2, then a: a member by the time it is reached."""
    return [a * a, a]


def redundant_seeds(a, b, *_):
    """The identity, a repeated seed, and a product of two earlier seeds,
    which is a member by the time it is reached."""
    x, y = two_seeds(a, b)
    return [Portrait.identity(a.p, a.depth), x, y, x, x * y]


def deep_first_seeds(*gens):
    """An element of G ∩ St(depth-1), taken from all of G's generators,
    then a shallow seed: the deep seed's conjugates wait beneath the
    shallow seed, and the shallow seed's closing rows push deep rows above
    shallow ones."""
    a, b = gens[:2]
    deepest = Subgroup(a.p, a.depth, gens).stabilizer(a.depth - 1)
    return [deepest.gens[0], b * a * b]


CLOSURE_CASES = {
    "fg3-4": (lambda: preset("fg3").generators(4), two_seeds),
    "sunic-grigorchuk-5": (lambda: preset("sunic-grigorchuk").generators(5),
                           two_seeds),
    "fg5-3": (lambda: preset("fg5").generators(3), two_seeds),
    "multi-ggs-p5-3-d3": (lambda: ggs5_three_vectors(3), two_seeds),
    "fg3-4-redundant": (lambda: preset("fg3").generators(4),
                        redundant_seeds),
    "fg3-4-deep-first": (lambda: preset("fg3").generators(4),
                         deep_first_seeds),
    "sunic-grigorchuk-5-deep-first": (
        lambda: preset("sunic-grigorchuk").generators(5), deep_first_seeds),
    # at depth 1, b is the identity and every element is on the deepest level
    "fg5-1": (lambda: preset("fg5").generators(1), power_seeds),
}


@pytest.mark.parametrize("case", list(CLOSURE_CASES))
def test_normal_closure_matches_reference(case):
    gens_of, seeds_of = CLOSURE_CASES[case]
    gens = gens_of()
    g = Subgroup(gens[0].p, gens[0].depth, gens)
    seeds = seeds_of(*g.gens)
    kept, ref = reference_normal_closure(seeds, g)
    ncl = normal_closure(seeds, g)
    assert [x.digits() for x in ncl.gens] == [
        x.digits() for x in kept]
    assert_matches_reference(ncl.pcgs, ref)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_rows_hold_label_positions_of_every_stored_level(depth):
    # one perm entry per label position, the root's included; each level's
    # entries are a permutation of that level's label positions
    inst = fabrykowski_gupta(3)
    g = group_of(inst, depth)
    pcgs = g.pcgs
    t = pcgs._t
    width = t.nlabels
    a, b = inst.generators(depth)
    assert pcgs._perm.shape[1:] == (3, width)
    assert _stack([a, b], t)[1].shape == (2, width)
    assert all(h.perm.shape == (width,) for h in pcgs.elements())
    # a closed sequence keeps no spare slots, and none for the deepest level
    assert len(pcgs._lab) == len(pcgs._perm) == len(pcgs._pivot_of)
    assert pcgs.order_exponent == len(pcgs._pivot_of) + len(pcgs._block)
    for perm in [pcgs._perm.reshape(-1, width), _stack([a, b], t)[1]]:
        assert (perm[:, 0] == 0).all()
        for lo, hi in zip(t.label_off, t.label_off[1:]):
            assert (np.sort(perm[:, lo:hi]) == np.arange(lo, hi)).all()
    assert pcgs.members([a * b, b.inverse() * a]).all()
    assert not Subgroup(3, depth, [b]).contains(a)
    assert Subgroup(3, depth, [a]).is_normal_in(g) == (depth == 1)


def test_pcgs_arrays_own_their_data(fg3_ctx):
    # a row view would keep a whole batch buffer alive
    g = fg3_ctx.quotient(4)
    pcgs = g.pcgs
    tail = pcgs.tail(5)
    ncl = normal_closure([g.gens[1]], g)
    arrays = [pcgs._lab, pcgs._perm, tail._lab, tail._perm,
              ncl.pcgs._lab, ncl.pcgs._perm, pcgs._block, tail._block,
              ncl.pcgs._block]
    for h in (pcgs.elements() + tail.elements() + ncl.gens
              + g.section_subgroup((2, 1)).gens):
        arrays += [h.lab, h.perm]
    assert all(arr.base is None for arr in arrays)


# -- extending a closed pcgs ------------------------------------------------

EXTENSION_GROUPS = {"fg3": fabrykowski_gupta(3), "gs3": gupta_sidki(3),
                    "grigorchuk": preset("sunic-grigorchuk")}


def word(gens, letters):
    """The product of gens[i]**e over the (i, e) in letters."""
    x = Portrait.identity(gens[0].p, gens[0].depth)
    for i, e in letters:
        x = x * gens[int(i) % len(gens)] ** int(e)
    return x


def words(min_size=1):
    letters = st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2)),
                       min_size=1, max_size=6)
    return st.lists(letters, min_size=min_size, max_size=3)


@st.composite
def extension_cases(draw):
    """(G_n, base, extra, probes): base is the normal closure of random
    words (or of the commutator of two), extra are random words and the
    probes are random words and random Sylow elements."""
    inst = EXTENSION_GROUPS[draw(st.sampled_from(sorted(EXTENSION_GROUPS)))]
    depth = draw(st.integers(2, 4))
    g = group_of(inst, depth)
    gens = g.gens
    seeds = [word(gens, w) for w in draw(words(min_size=2))]
    if draw(st.booleans()):
        seeds = [commutator(seeds[0], seeds[1])]
    base = normal_closure(seeds, g)
    extra = [word(gens, w) for w in draw(words())]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nlabels = gens[0].lab.size
    probes = [word(gens, rng.integers(0, 4, (6, 2)) + [0, 1])
              for _ in range(8)]
    probes += [Portrait.from_labels(inst.p, depth,
                                    rng.integers(0, inst.p, nlabels))
               for _ in range(4)]
    probes += extra + [x * y for x in base.gens[:2]
                       for y in extra]
    return g, base, extra, probes


def table_state(pcgs):
    """Everything a closed pcgs holds: insertion order, stored rows, the
    deep block and the pivot -> index map."""
    k = len(pcgs._pivot_of)
    return (list(pcgs._pivot_of), pcgs._lab[:k].tobytes(),
            pcgs._perm[:k].tobytes(), pcgs._block.tobytes(),
            pcgs._block_piv.tobytes(), pcgs._slot.tobytes())


@settings(max_examples=40, deadline=None)
@given(extension_cases())
def test_extending_a_closed_pcgs_matches_building_from_scratch(case):
    g, base, extra, probes = case
    before = table_state(base.pcgs)
    k = base.order_exponent
    with mock.patch.object(InducedPcgs, "_insert", autospec=True,
                           side_effect=InducedPcgs._insert) as spy:
        ext = extend(base, extra, base.gens + extra)
    order = ext.order_exponent
    assert spy.call_count == order - k                 # only the new pivots
    assert table_state(base.pcgs) == before            # the base is untouched
    scratch = Subgroup(g.p, g.depth, base.gens + extra)
    assert order == scratch.order_exponent
    assert ext.pcgs.pivots() == scratch.pcgs.pivots()
    assert ext.level_dims() == scratch.level_dims()
    assert (ext.pcgs.members(probes).tolist()
            == scratch.pcgs.members(probes).tolist())


def test_join_extends_the_larger_operand(fg3_ctx):
    g = fg3_ctx.quotient(4)
    gam3, st2 = fg3_ctx.gamma(3, 4), g.stabilizer(2)
    big = max((gam3, st2), key=lambda s: s.order_exponent)
    before = table_state(big.pcgs)
    with mock.patch.object(InducedPcgs, "_insert", autospec=True,
                           side_effect=InducedPcgs._insert) as spy:
        joined = join(gam3, st2)
    assert joined.gens == gam3.gens + st2.gens
    order = joined.order_exponent
    assert spy.call_count == order - big.order_exponent  # only the new pivots
    assert table_state(big.pcgs) == before               # the base is untouched
    assert joined.equal(Subgroup(3, 4, joined.gens))
    a, b = g.gens
    small = join(Subgroup(3, 4, [a]), Subgroup(3, 4, [b]))
    assert small.order_exponent == g.order_exponent


@st.composite
def normality_cases(draw):
    """(G_n, H): H is generated by random words, or is their normal
    closure."""
    inst = EXTENSION_GROUPS[draw(st.sampled_from(sorted(EXTENSION_GROUPS)))]
    g = group_of(inst, draw(st.integers(1, 4)))
    seeds = [word(g.gens, w) for w in draw(words())]
    if draw(st.booleans()):
        return g, normal_closure(seeds, g)
    return g, Subgroup(g.p, g.depth, seeds)


@settings(max_examples=40, deadline=None)
@given(normality_cases())
def test_batched_normality_matches_the_per_generator_loop(case):
    g, h = case
    loop = all(h.contains(x.conjugate(y)) for y in g.gens for x in h.gens)
    assert h.is_normal_in(g) == loop


# -- seeds formed as stacks --------------------------------------------------

def rows_of(fs):
    return [(f.digits(), f.perm.tobytes()) for f in fs]


SEED_CASES = [("fg3", 4), ("fg5", 3), ("sunic-grigorchuk", 5), ("fg3", 1)]


@pytest.mark.parametrize("preset_name,depth", SEED_CASES)
def test_commutator_seeds_are_pairwise_commutators_in_order(preset_name,
                                                            depth):
    inst = preset(preset_name)
    g = group_of(inst, depth)
    gens = g.gens
    a, b = inst.generators(depth)[:2]
    ncl = normal_closure([commutator(a, b) * b * a], g).gens
    for xs, ys in [(gens, gens), (ncl, gens), (gens, ncl[:1]), (ncl, [])]:
        seeds = commutator_seeds(xs, ys)
        assert rows_of(seeds) == rows_of([x.inverse() * y.inverse() * x * y
                                          for x in xs for y in ys])
        assert all(s.lab.base is None and s.perm.base is None
                   for s in seeds)
    # the closure keeps the same generators, in the same order
    want = normal_closure([commutator(x, y) for x in ncl for y in gens], g)
    got = commutator_subgroup(Subgroup(g.p, depth, ncl), g, g)
    assert rows_of(got.gens) == rows_of(want.gens)
    assert table_state(got.pcgs) == table_state(want.pcgs)


@pytest.mark.parametrize("preset_name,depth", SEED_CASES)
def test_frattini_seeds_match_the_generator_list(preset_name, depth):
    g = group_of(preset(preset_name), depth)
    gens = g.gens + [x * y for x in g.gens
                                 for y in g.gens]
    gens = [x for x in gens if not x.is_identity()]
    p = g.p
    want = [x.inverse() * y.inverse() * x * y for i, x in enumerate(gens)
            for y in gens[i + 1:]] + [compose_all([x] * p, p, depth)
                                      for x in gens]
    assert rows_of(frattini_seeds(gens, p)) == rows_of(want)
    for e in range(8):
        assert rows_of(powers_of(gens, e)) == rows_of(
            [compose_all([x] * e, p, depth) for x in gens])
    assert powers_of([], p) == [] and frattini_seeds([], p) == []


# -- membership ----------------------------------------------------------------

def test_b_outside_cyclic():
    inst = fabrykowski_gupta(3)
    b = inst.generators(2)[1]
    assert not Subgroup(3, 2, [rooted_a(3, 2)]).contains(b)


def test_equal_and_subgroup(fg3_ctx):
    g = fg3_ctx.quotient(2)
    assert g.equal(g)
    assert g.stabilizer(1).is_subgroup_of(g)
    assert not g.is_subgroup_of(g.stabilizer(1))


def test_membership_of_random_words(fg3_ctx):
    g = fg3_ctx.quotient(3)
    rng = np.random.default_rng(3)
    gens = g.gens
    x = Portrait.identity(3, 3)
    for _ in range(10):
        x = x * gens[rng.integers(len(gens))]
        assert g.contains(x)


# -- stabilizers -----------------------------------------------------------------

def test_stabilizer_endpoints(fg3_ctx):
    g = fg3_ctx.quotient(2)
    assert g.stabilizer(0) is g
    assert g.stabilizer(2).order_exponent == 0


def test_stab_one_has_index_p(fg3_ctx):
    g = fg3_ctx.quotient(3)
    assert g.order_exponent - g.stabilizer(1).order_exponent == 1


def test_nested_stabilizers(fg3_ctx):
    g = fg3_ctx.quotient(4)
    st2a = g.stabilizer(1).stabilizer(2)
    st2b = g.stabilizer(2)
    assert st2a.order_exponent == st2b.order_exponent
    assert st2a.is_subgroup_of(st2b)


def test_max_stab_depth(fg3_ctx):
    g = fg3_ctx.quotient(4)
    assert g.max_stab_depth() == 0
    assert g.stabilizer(2).max_stab_depth() == 2
    with pytest.raises(ValueError):
        Subgroup(3, 4, []).max_stab_depth()


# -- sections --------------------------------------------------------------------

def test_section_of_root(fg3_ctx):
    g = fg3_ctx.quotient(3)
    assert g.section_subgroup(()) is g


def test_fg_sections_of_stab_are_full(fg3_ctx):
    # super strong fractality at a single vertex
    g = fg3_ctx.quotient(3)
    target = fg3_ctx.quotient(2)
    sec = g.stabilizer(1).section_subgroup((2,))
    assert sec.equal(target)


def test_section_with_base_change():
    # a subgroup not fixing v is sectioned through St_H(1), letter by letter
    inst = fabrykowski_gupta(3)
    g = group_of(inst, 3)
    sec = g.section_subgroup((1,))
    assert sec.equal(group_of(inst, 2))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_section_steps_one_letter_at_a_time(name):
    # the section at x + w is the section at w of the section at x, whether
    # or not the generators fix x + w
    depth = 3 if preset(name).p == 5 else 4
    g = group_of(preset(name), depth)
    for h in (g, g.stabilizer(1), g.stabilizer(2), g.stabilizer(3)):
        for v in ((2, 1), (1, 2, 2), (2, 2, 1)):
            whole = h.section_subgroup(v)
            stepped = h.section_subgroup(v[:1]).section_subgroup(v[1:])
            assert whole.depth == stepped.depth == depth - len(v)
            assert whole.equal(stepped), (h, v)


def test_depth_zero_and_leaf_sections():
    # the trivial depth-0 group has a pcgs; a leaf's section is that group
    assert Subgroup(3, 0, []).order_exponent == 0
    leaf = group_of(fabrykowski_gupta(3), 3).section_subgroup((2, 2, 2))
    assert (leaf.depth, leaf.order_exponent, leaf.gens) == (0, 0, [])
    assert Subgroup(3, 3, []).section_subgroup((2, 2, 2)).depth == 0


@pytest.mark.parametrize("sub", [
    Subgroup(3, 3, []), group_of(fabrykowski_gupta(3), 3),
    Subgroup(2, 0, [])])
def test_section_below_the_tree_is_rejected(sub):
    v = (2,) * (sub.depth + 1)
    with pytest.raises(ValueError):
        sub.section_subgroup(v)


def test_grigorchuk_phi22(grigorchuk_ctx):
    g = grigorchuk_ctx.quotient(5)
    sec = g.stabilizer(2).section_subgroup((2, 2))
    assert sec.equal(grigorchuk_ctx.quotient(3))


def test_super_strongly_fractal(fg3_ctx, grigorchuk_ctx):
    assert is_super_strongly_fractal([fg3_ctx.quotient(d) for d in (1, 2, 3, 4)])
    assert is_super_strongly_fractal(
        [grigorchuk_ctx.quotient(d) for d in (1, 2, 3, 4)])
    cyclic = [Subgroup(3, d, [rooted_a(3, d)]) for d in (1, 2)]
    assert not is_super_strongly_fractal(cyclic)


# -- closures and series -----------------------------------------------------------

def test_normal_closure_of_identity(fg3_ctx):
    g = fg3_ctx.quotient(3)
    assert normal_closure([Portrait.identity(3, 3)], g).order_exponent == 0


def test_is_trivial_builds_no_pcgs_and_agrees_with_the_order(fg3_ctx):
    one = Portrait.identity(3, 3)
    g = fg3_ctx.quotient(3)
    with mock.patch.object(InducedPcgs, "add_generators", autospec=True,
                           side_effect=InducedPcgs.add_generators) as spy:
        subs = [Subgroup(3, 3, [one, one]), Subgroup(3, 3, g.gens[:1])]
        trivial = [h.is_trivial() for h in subs]
    assert spy.call_count == 0                           # no pcgs was built
    assert trivial == [True, False]
    closure = normal_closure([one], g)
    for h in subs + [closure]:
        assert h.is_trivial() == (h.order_exponent == 0)
    assert closure.is_trivial()


def test_commutator_index(fg3_ctx):
    # |G : G'| = p^(r+1) = 9
    g = fg3_ctx.quotient(3)
    assert g.order_exponent - fg3_ctx.derived(3).order_exponent == 2


def test_lower_central_layers_small(fg3_ctx):
    # every layer has dimension 1 or 2, so the loop reaches the trivial group
    series = [fg3_ctx.quotient(4)]
    while not series[-1].is_trivial():
        series.append(fg3_ctx.gamma(len(series) + 1, 4))
        assert 1 <= series[-2].order_exponent - series[-1].order_exponent <= 2


def test_gamma3_sits_strictly_above_st2(fg3_ctx):
    # St(2) <= gamma_3 with index p: the element [[a,b],a] lies in gamma_3
    # but moves level-2 vertices (its level-1 labels are (2,2,2)), so the
    # maximal stabilized level of gamma_3 is 1, not 2.
    g = fg3_ctx.quotient(4)
    gamma3 = fg3_ctx.gamma(3, 4)
    st2 = g.stabilizer(2)
    assert st2.is_subgroup_of(gamma3)
    assert gamma3.order_exponent == st2.order_exponent + 1
    a, b = g.gens
    witness = commutator(commutator(a, b), a)
    assert gamma3.contains(witness)
    assert list(witness.level_labels(1)) == [2, 2, 2]
    assert gamma3.max_stab_depth() == 1


def test_sunic_k_normal_closure(grigorchuk_ctx):
    k = grigorchuk_ctx.sunic_k(4)
    g = grigorchuk_ctx.quotient(4)
    # index of K in the Grigorchuk group is 16
    assert g.order_exponent - k.order_exponent == 4
    assert k.is_normal_in(g)


def test_is_normal_in(fg3_ctx):
    g = fg3_ctx.quotient(3)
    a, b = g.gens
    assert g.stabilizer(1).is_normal_in(g)
    assert Subgroup(3, 3, []).is_normal_in(g)
    assert not Subgroup(3, 3, [b]).is_normal_in(g)     # b^a is not in <b>


def test_min_generators_basics(fg3_ctx):
    assert min_generators(Subgroup(3, 2, [rooted_a(3, 2)])) == 1
    assert min_generators(fg3_ctx.quotient(2)) == 2


def test_frattini_of_elementary_abelian():
    a = rooted_a(3, 1)
    g = Subgroup(3, 1, [a])
    assert frattini_subgroup(g).order_exponent == 0


# -- structure identities (Prop rank-p and st-in-derived) ---------------------------

def test_rank_p_identities(fg3_ctx):
    g = fg3_ctx.quotient(4)
    st1 = g.stabilizer(1)
    st2 = g.stabilizer(2)
    st1p = commutator_subgroup(st1, st1, g)
    assert st1p.equal(st2)
    # psi^{-1}(G' x G' x G') == St(2)
    from branchgroups.engine import psi_preimage_gens
    shallow = fg3_ctx.derived(3)
    pre = Subgroup(3, 4, psi_preimage_gens(shallow.gens, 1, 4))
    assert pre.equal(st2)


def test_st_rplus1_in_derived(fg3_ctx):
    g = fg3_ctx.quotient(4)
    der = fg3_ctx.derived(4)
    assert g.stabilizer(2).is_subgroup_of(der)


def test_st_rplus1_in_derived_two_rays():
    # the same inclusion for an independent two-vector system: St(3) <= G'
    from branchgroups.catalog import make_multi_ggs
    from branchgroups.context import GroupContext
    ctx = GroupContext(make_multi_ggs(3, [(1, 0), (0, 1)]))
    g = ctx.quotient(4)
    assert g.stabilizer(3).is_subgroup_of(ctx.derived(4))


# -- branch structure -----------------------------------------------------------

def test_fg_regular_branch_over_derived(fg3_ctx):
    g4, g3 = fg3_ctx.quotient(4), fg3_ctx.quotient(3)
    k4 = fg3_ctx.derived(4)
    k3 = fg3_ctx.derived(3)
    assert is_regular_branch_over(g4, g3, k4, k3.gens)


def test_symmetric_p5_not_branch_over_derived():
    from branchgroups.context import GroupContext
    ctx = GroupContext(make_ggs(5, (0, 1, 1, 0)))
    g3, g2 = ctx.quotient(3), ctx.quotient(2)
    derived3, derived2 = ctx.derived(3), ctx.derived(2)
    assert not is_regular_branch_over(g3, g2, derived3,
                                      derived2.gens)
    gamma3 = ctx.gamma(3, 3)
    gamma3_shallow = ctx.gamma(3, 2)
    assert is_regular_branch_over(g3, g2, gamma3,
                                  gamma3_shallow.gens)


def test_subdirectness(fg3_ctx):
    assert is_subdirect_in_product(fg3_ctx.derived(3), 1, fg3_ctx.quotient(2))
    triv = Subgroup(3, 3, [])
    assert not is_subdirect_in_product(triv, 1, fg3_ctx.quotient(2))


def subdirect_by_closures(sub, level, target):
    """The referee: close every coordinate projection and compare it with
    target."""
    p = sub.p
    return all(Subgroup(p, target.depth,
                        [g.section(vertex_from_local_index(p, level, c))
                         for g in sub.gens]).equal(target)
               for c in range(p**level))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_subdirect_without_closures_matches_the_closure_comparison(name):
    ctx = GroupContext(preset(name))
    n = 4 if ctx.p < 5 else 3
    g = ctx.quotient(n)
    cases = [(g.stabilizer(m), m, ctx.quotient(n - m)) for m in range(1, n)]
    cases += [(ctx.derived(n), 1, ctx.quotient(n - 1)),
              (ctx.derived(n, 2), 1, ctx.quotient(n - 1)),
              (ctx.derived(n), 1, ctx.derived(n - 1))]
    outcomes = set()
    for sub, level, target in cases:
        verdict = is_subdirect_in_product(sub, level, target)
        assert verdict == subdirect_by_closures(sub, level, target)
        outcomes.add((verdict, sections_within(sub.gens, level, target)))
    # subdirect; a projection a proper subgroup of the target (refused by
    # its order alone); a projection outside the target
    assert outcomes == {(True, True), (False, True), (False, False)}
    trivial = Subgroup(g.p, n, [])
    assert not is_subdirect_in_product(trivial, 1, ctx.quotient(n - 1))
    assert is_subdirect_in_product(trivial, 1, Subgroup(g.p, n - 1, []))


def test_sections_within(fg3_ctx):
    st1 = fg3_ctx.quotient(3).stabilizer(1).gens
    assert sections_within(st1, 1, fg3_ctx.quotient(2))
    assert not sections_within(st1, 1, Subgroup(3, 2, []))
