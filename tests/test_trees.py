import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.catalog import fabrykowski_gupta, gupta_sidki
from branchgroups.trees import (Portrait, assemble, commutator,
                                embed_at_vertex, parse_vertex, rooted_a,
                                vertex_from_local_index, vertex_local_index)


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


def test_vertex_index_roundtrip():
    for p in (2, 3, 5):
        for idx in range(p**2):
            v = vertex_from_local_index(p, 2, idx)
            assert vertex_local_index(v, p) == idx
    assert parse_vertex("312") == (3, 1, 2)


def test_mismatched_compose_raises():
    with pytest.raises(ValueError):
        rooted_a(3, 2).compose(rooted_a(3, 3))
    with pytest.raises(ValueError):
        rooted_a(3, 2).compose(rooted_a(5, 2))
