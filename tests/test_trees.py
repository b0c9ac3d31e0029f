from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.catalog import fabrykowski_gupta, gupta_sidki
from branchgroups.trees import (Portrait, _Tables, assemble, commutator,
                                commutator_rows, compose_all, compose_rows,
                                embed_at_vertex, embed_rows, inverse_rows,
                                parse_vertex, power_rows, rooted_a,
                                section_rows, vertex_from_local_index,
                                vertex_local_index)


def nlabels(p, depth):
    return (p**depth - 1) // (p - 1)


def random_portrait(rng, p, depth):
    return Portrait.from_labels(p, depth, rng.integers(0, p, nlabels(p, depth)))


def label_at(f, v):
    """The label of f at the vertex v (a tuple or a vertex string)."""
    v = parse_vertex(v)
    return int(f.level_labels(len(v))[vertex_local_index(v, f.p)])


def truncate(f, depth):
    """The image of f in the depth-`depth` quotient: its first labels and
    perm entries."""
    n = nlabels(f.p, depth)
    return Portrait(f.p, depth, f.lab[:n].copy(), f.perm[:n].copy())


def assert_label_positions(t, perm):
    """Every row of perm (one portrait or a stack) has one entry per label
    position, fixes the root, and maps each level's label positions onto
    themselves."""
    assert perm.shape[-1] == t.nlabels
    for row in np.atleast_2d(perm):
        assert row[0] == 0
        for m in range(t.depth):
            lo, hi = t.label_off[m], t.label_off[m + 1]
            assert sorted(row[lo:hi]) == list(range(lo, hi))


# -- rooted automorphism -----------------------------------------------------

def test_rooted_a_labels():
    a = rooted_a(3, 2)
    assert label_at(a, ()) == 1
    assert all(label_at(a, (i,)) == 0 for i in (1, 2, 3))


def test_rooted_a_cycle_action():
    a = rooted_a(3, 1)
    assert a.apply_vertex("1") == (2,)
    assert a.apply_vertex("3") == (1,)
    assert rooted_a(3, 2).apply_vertex("31") == (1, 1)


def test_a_has_order_p():
    for p in (2, 3, 5):
        a = rooted_a(p, 2)
        assert (a**p).is_identity()
        assert not (a**(p - 1)).is_identity() or p == 1


def test_inverse_of_rooted():
    assert label_at(rooted_a(3, 1).inverse(), ()) == 2


# -- FG generator facts -------------------------------------------------------

@pytest.fixture(scope="module")
def fg_gens():
    inst = fabrykowski_gupta(3)
    return {d: inst.generators(d) for d in (1, 2, 3, 4)}


def test_fg_b_order_three(fg_gens):
    b = fg_gens[3][1]
    assert (b * b * b).is_identity()


def test_fg_b_sections(fg_gens):
    b = fg_gens[3][1]
    assert b.section("3") == fg_gens[2][1]
    assert b.section("1") == rooted_a(3, 2)
    assert b.section("2").is_identity()


def test_gs_inverse_is_square():
    b = gupta_sidki(3).generators(3)[1]
    assert b.inverse() == b * b


def test_directed_fixes_path(fg_gens):
    b = fg_gens[4][1]
    assert b.apply_vertex((3, 3, 3, 3)) == (3, 3, 3, 3)
    assert b.in_stab(1) and not b.in_stab(2)


def test_fg_level_labels(fg_gens):
    # sections of b are (a, 1, b); only the a contributes a root label
    assert list(fg_gens[2][1].level_labels(1)) == [1, 0, 0]
    assert not Portrait.identity(3, 2).level_labels(1).any()


# -- assemble/section ---------------------------------------------------------

def test_assemble_identity():
    one = Portrait.identity(3, 2)
    assert assemble(0, (one, one, one)).is_identity()
    assert assemble(1, (one, one, one)) == rooted_a(3, 3)


def test_assemble_fg_b(fg_gens):
    a2, one = rooted_a(3, 2), Portrait.identity(3, 2)
    assert assemble(0, (a2, one, fg_gens[2][1])) == fg_gens[3][1]


def test_section_of_root_is_self(fg_gens):
    b = fg_gens[3][1]
    assert b.section(()) == b


def test_embed_at_vertex_roundtrip():
    rng = np.random.default_rng(5)
    c = random_portrait(rng, 3, 2)
    e = embed_at_vertex(c, (2, 1), 4)
    assert e.section((2, 1)) == c
    assert e.in_stab(2)
    assert e.section((1,)).is_identity()


def section_by_vertex(f, c, level):
    """The referee: f's labels below the level-`level` vertex of local index
    c, read level by level, and the perm rebuilt from them."""
    t, p = f.tables, f.p
    lab = np.concatenate([np.zeros(0, dtype=np.int8)] + [
        f.lab[t.label_off[level + k] + c * p**k:][:p**k]
        for k in range(f.depth - level)])
    return Portrait.from_labels(p, f.depth - level, lab)


def embed_by_vertex(f, c, level, depth):
    """The referee: f's labels written level by level below the
    level-`level` vertex of local index c, zeros elsewhere."""
    t, p = _Tables(f.p, depth), f.p
    lab = np.zeros(t.nlabels, dtype=np.int8)
    for k in range(f.depth):
        lab[t.label_off[level + k] + c * p**k:][:p**k] = f.level_labels(k)
    return Portrait.from_labels(p, depth, lab)


@pytest.mark.parametrize("p,depth", [(2, 5), (3, 4), (5, 3)])
def test_section_and_embed_rows_match_the_per_vertex_reference(p, depth):
    rng = np.random.default_rng(p)
    t = _Tables(p, depth)
    moved = 0
    for level in range(depth + 1):
        fs = [random_portrait(rng, p, depth) for _ in range(6)]
        cs = [random_portrait(rng, p, depth - level) for _ in range(5)]
        rows = rng.integers(0, len(fs), 12)
        at = rng.integers(0, p**level, 12)
        lab, perm = section_rows(t, np.stack([f.lab for f in fs]),
                                 np.stack([f.perm for f in fs]), level, rows,
                                 at)
        for r, c, got_lab, got_perm in zip(rows, at, lab, perm):
            want = section_by_vertex(fs[r], c, level)
            assert np.array_equal(got_lab, want.lab)
            assert np.array_equal(got_perm, want.perm)
            v = vertex_from_local_index(p, level, c)
            assert fs[r].section(v) == want
            moved += fs[r].apply_vertex(v) != v
        rows = rng.integers(0, len(cs), 12)
        c_lab = np.stack([c.lab for c in cs])
        c_perm = np.stack([c.perm for c in cs])
        lab, perm = embed_rows(t, c_lab, c_perm, level, rows, at)
        for r, c, got_lab, got_perm in zip(rows, at, lab, perm):
            want = embed_by_vertex(cs[r], c, level, depth)
            assert np.array_equal(got_lab, want.lab)
            assert np.array_equal(got_perm, want.perm)
            v = vertex_from_local_index(p, level, c)
            assert embed_at_vertex(cs[r], v, depth) == want
        # a section at the vertex of an embedding gives back the original
        back = section_rows(t, lab, perm, level, np.arange(len(at)), at)
        assert np.array_equal(back[0], c_lab[rows])
        assert np.array_equal(back[1], c_perm[rows])
    assert moved > 0


# -- algebraic laws (property-based) ------------------------------------------

def primes_and_depths():
    """p in {2, 3, 5, 7} at depths 1-3; p in {11, 13, 61} (61 is the
    largest supported prime) at depths 1-2."""
    return st.one_of(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)),
        st.tuples(st.sampled_from([11, 13, 61]), st.integers(1, 2)))


@st.composite
def portraits(draw, p=None, depth=None):
    if p is None:
        p, depth = draw(primes_and_depths())
    labels = draw(st.lists(st.integers(0, p - 1), min_size=nlabels(p, depth),
                           max_size=nlabels(p, depth)))
    return Portrait.from_labels(p, depth, np.array(labels))


@st.composite
def portrait_triples(draw):
    p, depth = draw(primes_and_depths())
    return [draw(portraits(p=p, depth=depth)) for _ in range(3)]


@settings(max_examples=60, deadline=None)
@given(portrait_triples())
def test_associativity_and_inverses(triple):
    f, g, h = triple
    assert (f * g) * h == f * (g * h)
    assert (f * f.inverse()).is_identity()
    assert (f.inverse() * f).is_identity()


@settings(max_examples=60, deadline=None)
@given(portrait_triples())
def test_action_composition(triple):
    f, g, _ = triple
    p, depth = f.p, f.depth
    for idx in range(min(p**depth, 6)):
        v = vertex_from_local_index(p, depth, idx)
        assert (f * g).apply_vertex(v) == g.apply_vertex(f.apply_vertex(v))


@settings(max_examples=60, deadline=None)
@given(portrait_triples())
def test_section_composition_law(triple):
    f, g, _ = triple
    v = (1,)
    assert (f * g).section(v) == f.section(v) * g.section(f.apply_vertex(v))


@settings(max_examples=60, deadline=None)
@given(portrait_triples())
def test_truncation_is_homomorphism(triple):
    f, g, _ = triple
    d = f.depth - 1
    assert truncate(f * g, d) == truncate(f, d) * truncate(g, d)


@settings(max_examples=40, deadline=None)
@given(portrait_triples(), st.integers(0, 2))
def test_level_label_additivity_on_stabilizer(triple, m):
    # force both elements into St(m) by zeroing shallow labels
    f, g, _ = triple
    m = min(m, f.depth - 1)
    cutoff = nlabels(f.p, m)
    for x in (f, g):
        x.lab[:cutoff] = 0
    f2 = Portrait.from_labels(f.p, f.depth, f.lab)
    g2 = Portrait.from_labels(g.p, g.depth, g.lab)
    left = (f2 * g2).level_labels(m)
    right = (f2.level_labels(m) + g2.level_labels(m)) % f.p
    assert np.array_equal(left, right)


@st.composite
def portrait_stacks(draw):
    """Two stacks of 1-4 portraits each, for p in {2, 3, 5, 7, 11, 61} at
    small depths."""
    p, depth = draw(st.one_of(
        st.tuples(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3)),
        st.tuples(st.sampled_from([11, 61]), st.integers(1, 2))))
    rows = draw(st.integers(1, 4))
    return [[draw(portraits(p=p, depth=depth)) for _ in range(rows)]
            for _ in range(2)]


def stacked(fs):
    return np.stack([f.lab for f in fs]), np.stack([f.perm for f in fs])


@settings(max_examples=60, deadline=None)
@given(portrait_stacks(), st.integers(0, 3))
def test_compose_rows_matches_compose(stacks, seed):
    fs, gs = stacks
    t = _Tables(fs[0].p, fs[0].depth)
    f_lab, f_perm = stacked(fs)
    g_lab, g_perm = stacked(gs)
    pick = np.random.default_rng(seed).integers(0, len(gs), len(fs))
    cases = [  # (result, expected products row by row)
        (compose_rows(t, f_lab, f_perm, g_lab, g_perm), zip(fs, gs)),
        (compose_rows(t, fs[0].lab, fs[0].perm, g_lab, g_perm),
         ((fs[0], g) for g in gs)),
        (compose_rows(t, f_lab, f_perm, gs[0].lab, gs[0].perm),
         ((f, gs[0]) for f in fs)),
        (compose_rows(t, f_lab, f_perm, g_lab, g_perm, pick),
         ((f, gs[j]) for f, j in zip(fs, pick)))]
    for (lab, perm), pairs in cases:
        pairs = list(pairs)
        assert lab.shape == (len(pairs), t.nlabels)
        # one perm entry per label position, levels 0..depth-1
        assert perm.shape == (len(pairs), t.nlabels)
        assert_label_positions(t, perm)
        for row, (f, g) in enumerate(pairs):
            want = f.compose(g)
            assert np.array_equal(lab[row], want.lab)
            assert np.array_equal(perm[row], want.perm)


@settings(max_examples=60, deadline=None)
@given(portraits(), st.data())
def test_deepest_level_is_computed_on_demand(f, data):
    # a portrait stores no level-depth images; vertex_perm and apply_vertex
    # build them, and they must agree with the depth + 1 portrait that has
    # f's labels and a zero last level (which stores them), and with a
    # letter-by-letter walk: the letter below u moves by f's label at u
    p, n = f.p, f.depth
    assert f.perm.shape == (nlabels(p, n),)
    assert_label_positions(f.tables, f.perm)
    deeper = Portrait.from_labels(
        p, n + 1, np.concatenate([f.lab, np.zeros(p**n, dtype=f.lab.dtype)]))
    assert np.array_equal(f.vertex_perm(n), deeper.vertex_perm(n))
    for idx in data.draw(st.lists(st.integers(0, p**n - 1), max_size=6)):
        v = vertex_from_local_index(p, n, idx)
        walk = tuple((x - 1 + label_at(f, v[:k])) % p + 1
                     for k, x in enumerate(v))
        assert f.apply_vertex(v) == deeper.apply_vertex(v) == walk
        assert f.vertex_perm(n)[idx] == vertex_local_index(walk, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 61])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_inverse_rows_matches_inverse(p, depth):
    # at depth 1 a perm is the root's entry alone
    rng = np.random.default_rng(100 * p + depth)
    t = _Tables(p, depth)
    fs = [random_portrait(rng, p, depth) for _ in range(5)]
    lab, perm = inverse_rows(t, *stacked(fs))
    assert lab.shape == (5, t.nlabels) and perm.shape == (5, t.nlabels)
    for row, f in enumerate(fs):
        want = f.inverse()
        assert np.array_equal(lab[row], want.lab)
        assert np.array_equal(perm[row], want.perm)
        assert (f * Portrait(p, depth, lab[row], perm[row])).is_identity()
        one_lab, one_perm = inverse_rows(t, f.lab, f.perm)
        assert np.array_equal(one_lab, want.lab)
        assert np.array_equal(one_perm, want.perm)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_power_and_commutator_rows_match_products(p, depth):
    # the reference is plain composition, one portrait at a time
    rng = np.random.default_rng(10 * p + depth)
    t = _Tables(p, depth)
    fs = [random_portrait(rng, p, depth) for _ in range(4)]
    for e in range(2 * p + 2):
        lab, perm = power_rows(t, *stacked(fs), e)
        for row, f in enumerate(fs):
            want = compose_all([f] * e, p, depth)
            assert np.array_equal(lab[row], want.lab)
            assert np.array_equal(perm[row], want.perm)
            assert f**e == want
    i, j = np.array([0, 0, 3, 2, 1]), np.array([1, 2, 0, 2, 3])
    lab, perm = commutator_rows(t, *stacked(fs), *stacked(fs), i, j)
    for row, (x, y) in enumerate((fs[a], fs[b]) for a, b in zip(i, j)):
        want = x.inverse() * y.inverse() * x * y
        assert np.array_equal(lab[row], want.lab)
        assert np.array_equal(perm[row], want.perm)
    lab, perm = commutator_rows(t, *stacked(fs[:2]), *stacked(fs[2:]))
    assert [Portrait(p, depth, lab[r], perm[r]) for r in range(2)] == [
        commutator(fs[0], fs[2]), commutator(fs[1], fs[3])]


# -- a reference that reads labels alone ---------------------------------------

class LabelWalk:
    """Portraits over p at one depth as plain label lists, acted on by a
    letter-by-letter walk that never reads a stored perm: the letter x
    below u goes to x + eps(u) mod p, and eps_{fg}(u) = eps_f(u) +
    eps_g(u^f).  Vertices are tuples of letters 0..p-1; product() lists
    each level in lex order, so the stored vertices come out in label
    position order."""

    def __init__(self, p, depth):
        self.p = p
        self.vertices = [v for m in range(depth)
                         for v in product(range(p), repeat=m)]
        self.pos = {v: i for i, v in enumerate(self.vertices)}

    def image(self, lab, v):
        return tuple((x + lab[self.pos[v[:k]]]) % self.p
                     for k, x in enumerate(v))

    def perm(self, lab):
        """The label position of every stored vertex's image."""
        return [self.pos[self.image(lab, v)] for v in self.vertices]

    def level_images(self, lab, m):
        """Local indices of the images of the level-m vertices."""
        return [sum(x * self.p**(m - 1 - k)
                    for k, x in enumerate(self.image(lab, v)))
                for v in product(range(self.p), repeat=m)]

    def compose(self, f, g):
        return [(f[i] + g[self.pos[self.image(f, v)]]) % self.p
                for i, v in enumerate(self.vertices)]

    def inverse(self, f):
        pre = {self.image(f, v): v for v in self.vertices}
        return [-f[self.pos[pre[v]]] % self.p for v in self.vertices]


@st.composite
def label_lists(draw):
    """p in {2, 3, 5, 61} (61 the largest supported prime) with a depth,
    and two lists of 1-3 label lists each."""
    p = draw(st.sampled_from([2, 3, 5, 61]))
    depth = draw(st.integers(1, {2: 4, 3: 3, 5: 3, 61: 2}[p]))
    rows = draw(st.integers(1, 3))
    labels = st.lists(st.integers(0, p - 1), min_size=nlabels(p, depth),
                      max_size=nlabels(p, depth))
    return p, depth, [[draw(labels) for _ in range(rows)] for _ in range(2)]


@settings(max_examples=50, deadline=None)
@given(label_lists(), st.integers(0, 3))
def test_rows_match_a_walk_over_labels(case, seed):
    p, depth, (fs, gs) = case
    t, walk = _Tables(p, depth), LabelWalk(p, depth)
    xs = [Portrait.from_labels(p, depth, np.array(f)) for f in fs + gs]
    for f, x in zip(fs + gs, xs):
        assert x.perm.tolist() == walk.perm(f)
        for m in range(1, depth + 1):
            assert x.vertex_perm(m).tolist() == walk.level_images(f, m)
        for d in range(depth):
            assert truncate(x, d).perm.tolist() == LabelWalk(p, d).perm(
                f[:nlabels(p, d)])
    f_lab, f_perm = stacked(xs[:len(fs)])
    g_lab, g_perm = stacked(xs[len(fs):])
    pick = np.random.default_rng(seed).integers(0, len(gs), len(fs))
    cases = [  # (result, factor label lists row by row)
        (compose_rows(t, f_lab[0], f_perm[0], g_lab[0], g_perm[0]),
         [(fs[0], gs[0])]),
        (compose_rows(t, f_lab[:1], f_perm[:1], g_lab[-1:], g_perm[-1:]),
         [(fs[0], gs[-1])]),
        (compose_rows(t, f_lab[0], f_perm[0], g_lab, g_perm),
         [(fs[0], g) for g in gs]),
        (compose_rows(t, f_lab, f_perm, g_lab[0], g_perm[0]),
         [(f, gs[0]) for f in fs]),
        (compose_rows(t, f_lab, f_perm, g_lab, g_perm),
         list(zip(fs, gs))),
        (compose_rows(t, f_lab, f_perm, g_lab, g_perm, pick),
         [(f, gs[j]) for f, j in zip(fs, pick)])]
    for (lab, perm), pairs in cases:
        want = [walk.compose(f, g) for f, g in pairs]
        assert np.atleast_2d(lab).tolist() == want
        assert np.atleast_2d(perm).tolist() == [walk.perm(w) for w in want]
    for (lab, perm), rows in [(inverse_rows(t, f_lab[0], f_perm[0]), fs[:1]),
                              (inverse_rows(t, f_lab, f_perm), fs)]:
        want = [walk.inverse(f) for f in rows]
        assert np.atleast_2d(lab).tolist() == want
        assert np.atleast_2d(perm).tolist() == [walk.perm(w) for w in want]


def test_commutator_definition():
    rng = np.random.default_rng(0)
    x, y = (random_portrait(rng, 3, 3) for _ in range(2))
    assert commutator(x, y) == x.inverse() * y.inverse() * x * y


# -- serialization ------------------------------------------------------------

def test_digit_roundtrip():
    rng = np.random.default_rng(1)
    f = random_portrait(rng, 5, 2)
    assert Portrait.from_digits(5, 2, f.digits()) == f


@pytest.mark.parametrize("p", [11, 61])
def test_digit_roundtrip_one_symbol_per_label(p):
    rng = np.random.default_rng(p)
    f = random_portrait(rng, p, 2)
    f.lab[1] = p - 1                 # the largest label, "a" or "Y"
    f = Portrait.from_labels(p, 2, f.lab)
    assert len(f.digits()) == nlabels(p, 2)
    assert f.digits()[1] == ("a" if p == 11 else "Y")
    assert Portrait.from_digits(p, 2, f.digits()) == f


@pytest.mark.parametrize("p, digits", [(3, "0z00"), (3, "0300"),
                                       (3, "0-00"), (11, "0b" + "0" * 10)])
def test_from_digits_rejects_labels_outside_the_field(p, digits):
    # letter 35, the label p itself, a non-DIGITS letter, label 11 at p = 11
    with pytest.raises(ValueError, match="not a label below"):
        Portrait.from_digits(p, 2, digits)


def test_vertex_index_roundtrip():
    for p in (2, 3, 5):
        for idx in range(p**2):
            v = vertex_from_local_index(p, 2, idx)
            assert vertex_local_index(v, p) == idx
    assert parse_vertex("312") == (3, 1, 2)


def test_vertex_strings_name_letters_past_nine():
    # p = 11: the string "ab1" is the vertex (10, 11, 1)
    rng = np.random.default_rng(11)
    f = random_portrait(rng, 11, 4)
    assert parse_vertex("ab1") == (10, 11, 1)
    for text, v in (("ab1", (10, 11, 1)), ("b", (11,)), ("1a", (1, 10))):
        assert f.apply_vertex(text) == f.apply_vertex(v)
        assert label_at(f, text) == label_at(f, v)
        assert f.section(text) == f.section(v)


def test_mismatched_compose_raises():
    with pytest.raises(ValueError):
        rooted_a(3, 2).compose(rooted_a(3, 3))
    with pytest.raises(ValueError):
        rooted_a(3, 2).compose(rooted_a(5, 2))
