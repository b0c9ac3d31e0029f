import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.catalog import fabrykowski_gupta, gupta_sidki
from branchgroups.trees import (Portrait, _Tables, assemble, commutator,
                                compose_rows, embed_at_vertex, parse_vertex,
                                rooted_a, vertex_from_local_index,
                                vertex_local_index)


def nlabels(p, depth):
    return (p**depth - 1) // (p - 1)


def random_portrait(rng, p, depth):
    return Portrait.from_labels(p, depth, rng.integers(0, p, nlabels(p, depth)))


# -- rooted automorphism -----------------------------------------------------

def test_rooted_a_labels():
    a = rooted_a(3, 2)
    assert a.label_at(()) == 1
    assert all(a.label_at((i,)) == 0 for i in (1, 2, 3))


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
    assert rooted_a(3, 1).inverse().label_at(()) == 2


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
    assert (f * g).truncate(d) == f.truncate(d) * g.truncate(d)


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
        for row, (f, g) in enumerate(pairs):
            want = f.compose(g)
            assert np.array_equal(lab[row], want.lab)
            assert np.array_equal(perm[row], want.perm)
    # a perm cut to levels 1..depth-1 gives the product's perm cut alike
    lab, perm = compose_rows(t, f_lab, f_perm[:, :t.ninner], g_lab, g_perm)
    for row, (f, g) in enumerate(zip(fs, gs)):
        want = f.compose(g)
        assert np.array_equal(lab[row], want.lab)
        assert np.array_equal(perm[row], want.perm[:t.ninner])


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
        assert f.label_at(text) == f.label_at(v)
        assert f.section(text) == f.section(v)


def test_mismatched_compose_raises():
    with pytest.raises(ValueError):
        rooted_a(3, 2).compose(rooted_a(3, 3))
    with pytest.raises(ValueError):
        rooted_a(3, 2).compose(rooted_a(5, 2))
