import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchgroups.catalog import (BranchType, appb_d_words, appb_shape,
                                  branch_type, evaluate_word,
                                  fabrykowski_gupta, gupta_sidki, has_csp,
                                  in_class_E, is_fabrykowski_gupta, is_ggs,
                                  is_symmetric, is_torsion, make_ggs,
                                  make_multi_egs, make_multi_ggs, make_sunic,
                                  preset, PRESET_NAMES, r_dot)
from branchgroups.trees import Portrait, rooted_a


# -- constructors ---------------------------------------------------------

def test_fg_is_ggs_with_unit_vector():
    fg = fabrykowski_gupta(3)
    assert fg.families[0] == ((1, 0),)
    assert is_fabrykowski_gupta(fg) and is_ggs(fg)
    assert is_fabrykowski_gupta(make_ggs(5, (2, 0, 0, 0)))  # b^2 generates too
    assert not is_fabrykowski_gupta(gupta_sidki(3))


def test_ggs_rejects_zero_vector():
    with pytest.raises(ValueError):
        make_ggs(3, (0, 0))


def test_ggs_rejects_even_prime():
    with pytest.raises(ValueError):
        make_ggs(2, (1,))


def test_primes_above_61_rejected():
    # int8 labels: 2(p - 1) must stay <= 127
    for build in (fabrykowski_gupta, lambda p: make_sunic(p, (1,))):
        with pytest.raises(ValueError, match="p <= 61"):
            build(67)
    b = fabrykowski_gupta(61).generators(2)[1]
    assert (b**60) * (b**60) == b**59


def test_multi_egs_rejects_dependent_family():
    with pytest.raises(ValueError):
        make_multi_egs(5, {1: [(1, 0, 0, 0), (2, 0, 0, 0)]})


def test_sunic_rejects_zero_constant_term():
    with pytest.raises(ValueError):
        make_sunic(2, (0, 1))


def test_sunic_grigorchuk_psi():
    gr = preset("sunic-grigorchuk")
    a, b1, b2 = gr.generators(4)
    assert b1.section("1").is_identity()
    assert b1.section("2") == gr.generators(3)[2]
    assert b2.section("1") == rooted_a(2, 3)
    assert b2.section("2") == gr.generators(3)[1] * gr.generators(3)[2]


def test_sunic_p3_r1_psi():
    s = make_sunic(3, (2,))
    b = s.generators(3)[1]
    assert b.section("1") == rooted_a(3, 2)
    assert b.section("2").is_identity()
    assert b.section("3") == s.generators(2)[1]  # b^{-2} = b mod 3


def test_remark_group_psi():
    rg = preset("remark-group")
    a, b, c = rg.generators(3)
    assert b.section("5") == rg.generators(2)[1]
    assert b.section("1") == rooted_a(5, 2)
    assert c.section("1") == rg.generators(2)[2]
    assert c.section("2") == rooted_a(5, 2)
    assert c.section("3") == rooted_a(5, 2)
    assert c.section("4").is_identity() and c.section("5").is_identity()
    assert r_dot(rg) == 2


@pytest.mark.parametrize("name", ["fg3", "fg5", "gs3", "sunic-grigorchuk",
                                  "remark-group", "appb-p5"])
def test_generator_truncation_consistency(name):
    inst = preset(name)
    for n in range(1, 5):
        for deep, shallow in zip(inst.generators(n + 1), inst.generators(n)):
            # the deep generator's first labels and perm entries are the
            # shallow one's
            k = len(shallow.lab)
            assert deep.lab[:k].tolist() == shallow.lab.tolist()
            assert deep.perm[:k].tolist() == shallow.perm.tolist()


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_generators_contract(name):
    # gen_names order, a new list per call (the portraits are memoised),
    # canonical dtypes, and depth >= 1
    inst = preset(name)
    gens = inst.generators(3)
    assert len(gens) == len(inst.gen_names)
    assert all(g.lab.dtype == np.int8 and g.perm.dtype == np.int32
               for g in gens)
    gens.pop()
    assert inst.generators(3) is not gens
    assert len(inst.generators(3)) == len(inst.gen_names)
    for depth in (0, -1):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            inst.generators(depth)


@pytest.mark.parametrize("name", ["fg3", "gs3", "remark-group", "appb-p5",
                                  "sunic-grigorchuk"])
def test_directed_generators_stabilize_level_one(name):
    inst = preset(name)
    for g in inst.generators(4)[1:]:
        assert g.in_stab(1)


def test_directed_labels_sit_next_to_the_path():
    # nonzero labels only at children of the path vertices
    gs = gupta_sidki(3)
    b = gs.generators(4)[1]
    path = ()
    for level in range(1, 4):
        for idx in range(3**level):
            from branchgroups.trees import vertex_from_local_index
            v = vertex_from_local_index(3, level, idx)
            if b.level_labels(level)[idx]:
                assert v[:-1] == path
        path = path + (3,)


def test_psi_words_match_sections():
    for name in ("fg3", "gs3", "remark-group", "sunic-grigorchuk"):
        inst = preset(name)
        gens = dict(zip(inst.gen_names, inst.generators(4)))
        for gen_name, coords in inst.psi_words().items():
            for c, word in enumerate(coords, start=1):
                assert gens[gen_name].section((c,)) == \
                    evaluate_word(inst, word, 3)


# -- predicates -------------------------------------------------------------

@pytest.mark.parametrize("p", [3, 5, 7])
def test_torsion_classification(p):
    assert is_torsion(gupta_sidki(p))
    assert not is_torsion(fabrykowski_gupta(p))


def test_torsion_mixed_spec():
    mixed = make_multi_egs(3, {1: [(1, 2)], 2: [(1, 0)]})
    assert not is_torsion(mixed)


def test_branch_type_cases():
    assert branch_type(fabrykowski_gupta(3)) is BranchType.OVER_DERIVED
    assert branch_type(make_ggs(5, (0, 1, 1, 0))) is BranchType.OVER_GAMMA3
    assert branch_type(make_ggs(3, (1, 1))) is BranchType.NOT_REGULAR_BRANCH
    # two families of (dependent) constant vectors: outside the dichotomy
    odd = make_multi_egs(3, {1: [(1, 1)], 2: [(2, 2)]})
    assert branch_type(odd) is BranchType.UNCLASSIFIED


def test_class_e_membership():
    assert not in_class_E(make_multi_egs(3, {1: [(1, 0)], 2: [(0, 1)]}))
    assert in_class_E(make_multi_egs(5, {1: [(1, 0, 0, 1)], 2: [(0, 1, 1, 0)]}))
    assert not in_class_E(make_multi_egs(5, {1: [(1, 0, 0, 1)],
                                             2: [(2, 0, 0, 2)]}))
    assert not in_class_E(fabrykowski_gupta(5))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4))
def test_class_e_scaling_invariance(lam, mu):
    base = make_multi_egs(5, {1: [(1, 0, 0, 1)], 2: [(0, 1, 1, 0)]})
    scaled = make_multi_egs(5, {
        1: [tuple(lam * x % 5 for x in (1, 0, 0, 1))],
        2: [tuple(mu * x % 5 for x in (0, 1, 1, 0))]})
    assert in_class_E(scaled) == in_class_E(base) == True


def test_csp_classification():
    assert has_csp(fabrykowski_gupta(3))
    assert not has_csp(make_ggs(5, (0, 1, 1, 0)))        # r_G = 1 in case (ii)
    assert has_csp(preset("appb-p5"))                     # r_G = 2 in case (ii)
    assert not has_csp(make_multi_egs(5, {1: [(1, 0, 0, 1)],
                                          2: [(0, 1, 1, 0)]}))  # class E
    # dependent concatenated system in case (i)
    dep = make_multi_egs(3, {1: [(1, 0)], 2: [(1, 0)]})
    assert branch_type(dep) is BranchType.OVER_DERIVED
    assert not has_csp(dep)


def test_r_dot_values():
    assert r_dot(fabrykowski_gupta(3)) == 1
    assert r_dot(preset("remark-group")) == 2
    assert r_dot(make_multi_egs(5, {1: [(1, 0, 0, 1)], 2: [(0, 1, 1, 0)]})) == 2


def test_symmetry_helper():
    assert is_symmetric((1, 0, 0, 1))
    assert not is_symmetric((1, 0))


# -- the two-or-more-ray configuration ---------------------------------------

def test_appb_shape_and_words():
    ab = preset("appb-p5")
    assert appb_shape(ab) == (1, 2)
    assert appb_d_words(ab) == [()]
    assert appb_shape(fabrykowski_gupta(3)) is None


def test_appb_word_count_is_kernel_size():
    for r, expected in ((2, 1), (3, 5)):
        fams = {j: [(0, 1, 1, 0)] for j in range(1, r + 1)}
        words = appb_d_words(make_multi_egs(5, fams))
        assert len(words) == expected  # p^(r-2)


def test_appb_words_evaluate_in_group():
    inst = make_multi_egs(5, {1: [(0, 1, 1, 0)], 2: [(0, 1, 1, 0)],
                              3: [(0, 1, 1, 0)]})
    from branchgroups.engine import group_of
    g = group_of(inst, 2)
    for w in appb_d_words(inst):
        assert g.contains(evaluate_word(inst, w, 2))
