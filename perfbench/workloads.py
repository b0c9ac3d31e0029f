"""The benchmark workloads: inputs made from a seed, the timed work, and
the answer gate.

Answers are compared by mathematical content (check statuses, order
exponents, t(m), j_max, census counts and dimensions, closure bases),
never by report bytes, so report fields that a later change adds are not
wrong answers.
"""

from __future__ import annotations

import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

CHECKS = ("appb", "branching", "chain", "congruence-equiv", "effective-csp",
          "fg-lemma", "generator-count", "ggs-strong", "sunic", "width-rank")


def tuple_of_rank(rank: int, p: int, m: int) -> tuple[int, ...]:
    """The lexicographic chain index of V_j with dim V_j = rank + 1."""
    digits = []
    for _ in range(m):
        digits.append(rank % p + 1)
        rank //= p
    return tuple(reversed(digits))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.run with its report captured instead of printed."""
    from branchgroups import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


class Answers:
    """Compared answers; each `expect` is one answer checked."""

    def __init__(self):
        self.checked = 0
        self.wrong: list[str] = []

    def expect(self, label: str, got, want) -> None:
        self.checked += 1
        if got != want:
            self.wrong.append(f"{label}: got {got!r}, want {want!r}")


# -- verify all ---------------------------------------------------------------


@dataclass
class VerifyAll:
    """`branchgroups verify all` on one preset, called through cli.run."""

    preset: str
    p: int
    depth: int
    exit_code: int
    status: dict[str, str]
    t: dict[int, int]                      # t(m) for m = 1..depth-1
    details: list[tuple[str, tuple, object]] = field(default_factory=list)

    def setup(self, seed: int):
        from branchgroups.catalog import preset
        preset(self.preset)   # cli.run builds its own, as every invocation does
        return ["verify", "all", "--preset", self.preset,
                "--depth", str(self.depth), "--seed", str(seed)]

    def run(self, argv, answers: Answers) -> None:
        code, text = run_cli(argv)
        answers.expect("exit code", code, self.exit_code)
        checks = json.loads(text or "{}").get("checks", [])
        reports = {r["name"]: r for r in checks}
        for name in CHECKS:
            rep = reports.get(name, {})
            answers.expect(f"{name} status", rep.get("status"),
                           self.status[name])
            reason = rep.get("details", {}).get("reason", "")
            answers.expect(f"{name} not degraded",
                           str(reason).startswith("resource guard"), False)
        chain = reports.get("chain", {}).get("details", {})
        t = {int(m): dim for m, dim in chain.get("t", {}).items()}
        answers.expect("t(m)", t, self.t)
        answers.expect("order exponent", 1 + sum(t.values()),
                       1 + sum(self.t.values()))
        for m, dim in self.t.items():
            found = re.search(r"j_max=\(([\d, ]*)\)",
                              chain.get(f"image=V_j m={m}", ""))
            got = tuple(int(x) for x in found.group(1).split(",")
                        if x.strip()) if found else None
            answers.expect(f"j_max m={m}", got,
                           tuple_of_rank(dim - 1, self.p, m))
        for name, path, want in self.details:
            node = reports.get(name)
            for key in path:
                node = node.get(key) if isinstance(node, dict) else None
            answers.expect(f"{name} {'.'.join(path)}", node, want)


def fg3_t(m: int) -> int:
    """t(m) for the Fabrykowski-Gupta group at p = 3: p, then (p-1)p^(m-1)."""
    return 3 if m == 1 else 2 * 3**(m - 1)


def grigorchuk_t(m: int) -> int:
    """t(m) from |G/St(n)| = 2^(5*2^(n-3)+2) for n >= 3 (and 2^1, 2^3 for
    n = 1, 2), the orders of the first Grigorchuk group's quotients."""
    def exponent(n):
        return {0: 0, 1: 1, 2: 3}.get(n, 5 * 2**(n - 3) + 2)
    return exponent(m + 1) - exponent(m)


FG3_DEPTH = 4
GRIGORCHUK_DEPTH = 6

VERIFY_FG3 = VerifyAll(
    preset="fg3", p=3, depth=FG3_DEPTH, exit_code=1,
    status={"appb": "skipped", "branching": "pass", "chain": "pass",
            "congruence-equiv": "pass", "effective-csp": "pass",
            # acceptance criterion 7, red by exact computation
            "fg-lemma": "fail",
            "generator-count": "pass", "ggs-strong": "pass",
            "sunic": "skipped", "width-rank": "pass"},
    t={m: fg3_t(m) for m in range(1, FG3_DEPTH)},
    details=[
        # |G''| = 3^22 against |St(2)| = 3^24 in G/St(4)
        ("fg-lemma", ("witness", "derived_exponent"), 22),
        ("fg-lemma", ("witness", "stab_exponent"), 24),
        ("fg-lemma", ("details", "a1:G^(2)=St(2)"), "fail"),
        ("fg-lemma", ("details", "a1:G^(3)=St(3)"), "fail"),
        ("fg-lemma", ("details", "a2:psi(St(2))=G'x..xG'"), "pass"),
        ("fg-lemma", ("details", "a2:psi(St(3))=G'x..xG'"), "pass"),
        ("fg-lemma", ("details", "b:coordinate-link m=1"), "pass"),
        ("fg-lemma", ("details", "b:coordinate-link m=2"), "pass"),
        # G and its companion multi-GGS group: both of order 3^28
        ("congruence-equiv", ("details", "orders"), [28, 28]),
        ("generator-count", ("details", "min_generators"), 2),
        ("effective-csp", ("details", "offset"), 2),
        ("width-rank", ("details", "attainment(N=G)"), 2),
    ])

VERIFY_GRIGORCHUK = VerifyAll(
    preset="sunic-grigorchuk", p=2, depth=GRIGORCHUK_DEPTH, exit_code=0,
    status={"appb": "skipped", "branching": "skipped", "chain": "pass",
            "congruence-equiv": "skipped", "effective-csp": "pass",
            "fg-lemma": "skipped", "generator-count": "skipped",
            "ggs-strong": "skipped", "sunic": "pass", "width-rank": "pass"},
    t={m: grigorchuk_t(m) for m in range(1, GRIGORCHUK_DEPTH)},
    details=[
        ("sunic", ("details", "n_G"), 3),
        ("sunic", ("details", "phi_22(St(2))=G"), "pass"),
        ("sunic", ("details", "regular-branch-over-K"), "pass"),
        ("sunic", ("details", "super-strongly-fractal(n<=4)"), "pass"),
        ("width-rank", ("details", "n_G"), 3),
        ("width-rank", ("details", "bound"), 8),
        ("effective-csp", ("details", "offset"), 8),
    ])


# -- submodule census plus seeded closures ------------------------------------


@dataclass
class Census:
    """The exhaustive W_2(fg3) census through cli.run, then seeded vectors
    in W_3(fg3) and W_2(fg5) closed by gmodules.submodule_closure."""

    vectors_per_module: int
    modules: tuple = (("fg3", 3, 3), ("fg5", 5, 2))   # (preset, p, level)

    def setup(self, seed: int):
        from branchgroups.catalog import preset
        rng = random.Random(seed)
        samples = []
        for name, p, level in self.modules:
            inst = preset(name)
            dim = p**level
            for _ in range(self.vectors_per_module):
                rank = rng.randrange(dim)
                coeffs = [rng.randrange(p) for _ in range(rank + 1)]
                coeffs[rng.randrange(rank + 1)] = rng.randrange(1, p)
                samples.append((inst, p, level, rank, coeffs))
        return samples

    def run(self, samples, answers: Answers) -> None:
        import numpy as np
        from branchgroups.gmodules import submodule_closure, vj_basis, wm_module
        from branchgroups.linalg import FpSubspace
        code, text = run_cli(["oracle", "submodules", "--preset", "fg3",
                              "--level", "2"])
        answers.expect("census exit code", code, 0)
        census = json.loads(text or "{}")
        # W_2(fg3) is uniserial: one submodule of each dimension 1..9
        answers.expect("census count", census.get("nontrivial_submodules"), 9)
        answers.expect("census dims", census.get("dims"), list(range(1, 10)))
        modules = {}
        for inst, p, level, rank, coeffs in samples:
            key = (p, level)
            if key not in modules:
                modules[key] = wm_module(inst, level)
            rows = vj_basis(p, tuple_of_rank(rank, p, level)).rows
            vec = (np.asarray(coeffs, dtype=np.int64) @ rows) % p
            seed = FpSubspace(p, p**level, [vec])
            closure = submodule_closure(seed, modules[key])
            want = vj_basis(p, tuple_of_rank(closure.dim - 1, p, level))
            answers.expect(f"closure p={p} level={level} rank={rank}",
                           (closure == want, closure.dim <= rank + 1,
                            closure.contains(seed)), (True, True, True))


WORKLOADS = {
    "verify-fg3": VERIFY_FG3,
    "verify-grigorchuk": VERIFY_GRIGORCHUK,
    "census-w2": Census(vectors_per_module=20),
}
