"""Constructors and classification for the group families on the p-adic tree.

A group instance is defined by the first-level decomposition (psi image)
of each directed generator as a word in the generators, psi_words(), and
carries the declarative data (defining vectors / polynomial) that the
classification predicates need.  The psi words are the single definition:
the generator portraits at every depth are assembled from them, one level
at a time (_directed_generators).

Generator order is fixed: the rooted generator "a" first, then the
directed generators in family order and index order; all downstream
transversals depend on this being deterministic.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import matrix_rank
from .trees import Portrait, assemble, check_prime, compose_all, rooted_a

Vector = tuple[int, ...]
Word = tuple[tuple[str, int], ...]  # product of named generator powers


class BranchType(enum.Enum):
    OVER_DERIVED = "OverDerived"
    OVER_GAMMA3 = "OverGamma3NotDerived"
    NOT_REGULAR_BRANCH = "NotRegularBranch"
    UNCLASSIFIED = "Unclassified"


def _norm_vector(vec, p) -> Vector:
    v = tuple(int(x) % p for x in vec)
    if len(v) != p - 1:
        raise ValueError(f"defining vector must have length p-1={p - 1}, got {len(v)}")
    return v


def is_symmetric(vec: Vector) -> bool:
    n = len(vec)
    return all(vec[i] == vec[n - 1 - i] for i in range(n))


def is_constant(vec: Vector) -> bool:
    return len(set(vec)) == 1 and vec[0] != 0


@dataclass(frozen=True)
class MultiEGSInstance:
    """Multi-EGS group ⟨a⟩ plus directed generators along up to p rays.

    families[j-1] lists the defining vectors of the family whose
    directed path runs through the first-level vertex p-j+1.
    """

    p: int
    families: tuple[tuple[Vector, ...], ...]

    kind = "multi_egs"

    def __post_init__(self):
        check_prime(self.p, odd=True)
        if len(self.families) != self.p:
            raise ValueError("families must be indexed by j = 1..p")
        if all(len(f) == 0 for f in self.families):
            raise ValueError("at least one family must be nonempty")
        for j, fam in enumerate(self.families, start=1):
            if len(fam) > self.p - 1:
                raise ValueError(f"family {j} has more than p-1 vectors")
            if fam and matrix_rank(np.array(fam), self.p) != len(fam):
                raise ValueError(
                    f"vectors within family {j} must be linearly independent")

    # -- structure ------------------------------------------------------

    @property
    def r(self) -> int:
        return sum(len(f) for f in self.families)

    @property
    def directed(self) -> list[tuple[str, int, Vector]]:
        """(name, family index j, vector) triples in generator order."""
        out = []
        k = 0
        for j, fam in enumerate(self.families, start=1):
            for vec in fam:
                k += 1
                out.append((f"b{k}", j, vec))
        return out

    @property
    def gen_names(self) -> list[str]:
        return ["a"] + [name for name, _, _ in self.directed]

    def concatenated_vectors(self) -> np.ndarray:
        return np.array([vec for _, _, vec in self.directed], dtype=np.int64)

    def generators(self, depth: int) -> list[Portrait]:
        return [rooted_a(self.p, depth)] + list(_directed_generators(self, depth))

    def psi_words(self) -> dict[str, tuple[Word, ...]]:
        words: dict[str, tuple[Word, ...]] = {}
        for name, j, vec in self.directed:
            own = self.p - j + 1
            coords = []
            for c in range(1, self.p + 1):
                if c == own:
                    coords.append(((name, 1),))
                else:
                    k = (c - own) % self.p
                    e = vec[k - 1]
                    coords.append((("a", e),) if e else ())
            words[name] = tuple(coords)
        return words

    def spec_dict(self) -> dict:
        return {
            "type": "multi_egs",
            "p": self.p,
            "families": [
                {"j": j, "vectors": [list(v) for v in fam]}
                for j, fam in enumerate(self.families, start=1) if fam
            ],
        }


@dataclass(frozen=True)
class SunicInstance:
    """Šunić group G_{p,f} for monic f = x^r + c_{r-1} x^{r-1} + ... + c_0."""

    p: int
    coeffs: Vector  # (alpha_0, ..., alpha_{r-1})

    kind = "sunic"

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "coeffs", tuple(int(c) % self.p for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise ValueError("polynomial must have degree >= 1")
        if self.coeffs[0] == 0:
            raise ValueError("alpha_0 must be nonzero")

    @property
    def r(self) -> int:
        return len(self.coeffs)

    @property
    def gen_names(self) -> list[str]:
        return ["a"] + [f"b{i}" for i in range(1, self.r + 1)]

    def generators(self, depth: int) -> list[Portrait]:
        return [rooted_a(self.p, depth)] + list(_directed_generators(self, depth))

    def psi_words(self) -> dict[str, tuple[Word, ...]]:
        p, r = self.p, self.r
        words: dict[str, tuple[Word, ...]] = {}
        for i in range(1, r):
            coords = [()] * (p - 1) + [((f"b{i + 1}", 1),)]
            words[f"b{i}"] = tuple(coords)
        last: Word = tuple(
            (f"b{k + 1}", (-self.coeffs[k]) % p)
            for k in range(r) if self.coeffs[k] % p
        )
        coords = [(("a", 1),)] + [()] * (p - 2) + [last]
        words[f"b{r}"] = tuple(coords)
        return words

    def is_regular_branch(self) -> bool:
        return self.p != 2 or self.r >= 2

    def spec_dict(self) -> dict:
        return {"type": "sunic", "p": self.p, "poly": list(self.coeffs)}


GroupInstance = MultiEGSInstance | SunicInstance


@lru_cache(maxsize=None)
def _directed_generators(inst: GroupInstance, depth: int) -> tuple[Portrait, ...]:
    """The directed generators at depth n, each assembled from its psi word
    evaluated on the generators at depth n-1 (where a is the identity at
    depth 0)."""
    p, names = inst.p, inst.gen_names[1:]
    if depth == 0:
        return tuple(Portrait.identity(p, 0) for _ in names)
    prev = dict(zip(names, _directed_generators(inst, depth - 1)))
    prev["a"] = rooted_a(p, depth - 1) if depth > 1 else Portrait.identity(p, 0)
    words = inst.psi_words()
    return tuple(
        assemble(0, [compose_all((prev[g] ** e for g, e in word), p, depth - 1)
                     for word in words[name]])
        for name in names)


# -- constructors -------------------------------------------------------


def make_ggs(p: int, vec) -> MultiEGSInstance:
    """GGS-group ⟨a, b⟩ with psi(b) = (a^e_1, ..., a^e_{p-1}, b)."""
    if not any(_norm_vector(vec, check_prime(p, odd=True))):
        raise ValueError("GGS defining vector must be nonzero")
    return make_multi_egs(p, {1: [vec]})


def make_multi_ggs(p: int, vectors) -> MultiEGSInstance:
    return make_multi_egs(p, {1: vectors})


def make_multi_egs(p: int, families: dict[int, list]) -> MultiEGSInstance:
    """families maps j in 1..p to a list of defining vectors."""
    check_prime(p, odd=True)
    fams: list[tuple[Vector, ...]] = [()] * p
    for j, vecs in families.items():
        if not 1 <= j <= p:
            raise ValueError(f"family index {j} out of range 1..{p}")
        fams[j - 1] = tuple(_norm_vector(v, p) for v in vecs)
    return MultiEGSInstance(p, tuple(fams))


def make_sunic(p: int, coeffs) -> SunicInstance:
    return SunicInstance(p, tuple(coeffs))


def fabrykowski_gupta(p: int) -> MultiEGSInstance:
    """The Fabrykowski-Gupta group for any odd prime: vector (1, 0, ..., 0)."""
    return make_ggs(check_prime(p, odd=True), (1,) + (0,) * (p - 2))


def gupta_sidki(p: int) -> MultiEGSInstance:
    return make_ggs(check_prime(p, odd=True), (1, p - 1) + (0,) * (p - 3))


# -- classification predicates -------------------------------------------


def is_ggs(inst: MultiEGSInstance) -> bool:
    return inst.r == 1 and len(inst.families[0]) == 1


def is_fabrykowski_gupta(inst) -> bool:
    """GGS with a single nonzero entry in position 1 (any nonzero scalar
    gives the same subgroup of Aut T, since b -> b^lambda)."""
    if not isinstance(inst, MultiEGSInstance) or not is_ggs(inst):
        return False
    v = inst.families[0][0]
    return v[0] != 0 and not any(v[1:])


def is_torsion(inst: MultiEGSInstance) -> bool:
    """Torsion iff every defining vector has entry sum divisible by p."""
    return all(sum(vec) % inst.p == 0 for _, _, vec in inst.directed)


def branch_type(inst: MultiEGSInstance) -> BranchType:
    vecs = [vec for _, _, vec in inst.directed]
    p = inst.p
    if len(vecs) == 1 and is_constant(vecs[0]):
        return BranchType.NOT_REGULAR_BRANCH  # this is the group G-script
    if any(not is_symmetric(v) for v in vecs) or matrix_rank(np.array(vecs), p) >= 2:
        return BranchType.OVER_DERIVED
    # all vectors symmetric and pairwise dependent; need a non-constant
    # representative and at most one vector per family
    base = vecs[0]
    if is_constant(base):
        return BranchType.UNCLASSIFIED
    if all(len(f) <= 1 for f in inst.families):
        return BranchType.OVER_GAMMA3
    return BranchType.UNCLASSIFIED


def r_dot(inst: MultiEGSInstance) -> int:
    """Rank over F_p of the concatenated defining-vector system."""
    return matrix_rank(inst.concatenated_vectors(), inst.p)


def in_class_E(inst: MultiEGSInstance) -> bool:
    """The exceptional 3-generator class: two single-vector families whose
    vectors, after scaling by nonzero scalars, are complementary symmetric
    0/1 vectors."""
    if inst.r != 2:
        return False
    nonempty = [f for f in inst.families if f]
    if len(nonempty) != 2:
        return False
    e, f = nonempty[0][0], nonempty[1][0]
    p = inst.p
    for lam in range(1, p):
        es = tuple(lam * x % p for x in e)
        if not is_symmetric(es) or any(x not in (0, 1) for x in es):
            continue
        comp = tuple(1 - x for x in es)
        for mu in range(1, p):
            if tuple(mu * x % p for x in f) == comp:
                return True
    return False


def has_csp(inst: MultiEGSInstance) -> bool:
    """Congruence subgroup property per the corrected classification."""
    if in_class_E(inst):
        return False
    bt = branch_type(inst)
    if bt is BranchType.OVER_DERIVED:
        return r_dot(inst) == inst.r
    if bt is BranchType.OVER_GAMMA3:
        return inst.r == 2
    return False


# -- the appendix-B configuration ----------------------------------------


def appb_shape(inst: MultiEGSInstance) -> tuple[int, ...] | None:
    """Return the direction tuple (j_1 < ... < j_r) if inst consists of
    2 <= r <= p single-vector families sharing one symmetric non-constant
    vector; None otherwise."""
    dirs = []
    shared = None
    for j, fam in enumerate(inst.families, start=1):
        if not fam:
            continue
        if len(fam) != 1:
            return None
        if shared is None:
            shared = fam[0]
        elif fam[0] != shared:
            return None
        dirs.append(j)
    if shared is None or len(dirs) < 2:
        return None
    if not is_symmetric(shared) or is_constant(shared):
        return None
    return tuple(dirs)


def appb_d_words(inst: MultiEGSInstance) -> list[Word]:
    """Normal-generating words of the subgroup D from the corrected
    congruence classification: products prod_i (b_1^-1 b_i^{a^{j_i-j_1}})^{alpha_i}
    over solutions of sum (j_i - j_1) alpha_i = 0 in F_p."""
    dirs = appb_shape(inst)
    if dirs is None:
        raise ValueError("group does not match the two-or-more-ray single-vector shape")
    p = inst.p
    names = [name for name, _, _ in inst.directed]
    j1 = dirs[0]
    words: list[Word] = []
    for alphas in itertools.product(range(p), repeat=len(dirs) - 1):
        if sum((ji - j1) * al for ji, al in zip(dirs[1:], alphas)) % p != 0:
            continue
        word: list[tuple[str, int]] = []
        for i, al in enumerate(alphas, start=1):
            if al == 0:
                continue
            shift = (dirs[i] - j1) % p
            for _ in range(al):
                word.extend([(names[0], -1), ("a", -shift), (names[i], 1),
                             ("a", shift)])
        words.append(tuple(word))
    return words


def evaluate_word(inst: GroupInstance, word: Word, depth: int) -> Portrait:
    gens = dict(zip(inst.gen_names, inst.generators(depth)))
    return compose_all((gens[name] ** e for name, e in word), inst.p, depth)


# -- presets --------------------------------------------------------------


_PRESETS = {
    "fg3": lambda: fabrykowski_gupta(3),
    "fg5": lambda: fabrykowski_gupta(5),
    "gs3": lambda: gupta_sidki(3),
    "sunic-grigorchuk": lambda: make_sunic(2, (1, 1)),
    # <a, b, c> with psi(b) = (a,1,...,1,b), psi(c) = (c,a,a,1,...,1)
    "remark-group": lambda: make_multi_egs(5, {1: [(1, 0, 0, 0)],
                                               5: [(1, 1, 0, 0)]}),
    "appb-p5": lambda: make_multi_egs(5, {1: [(0, 1, 1, 0)],
                                          2: [(0, 1, 1, 0)]}),
}
PRESET_NAMES = list(_PRESETS)


def preset(name: str) -> GroupInstance:
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    return _PRESETS[name]()
