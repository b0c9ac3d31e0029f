"""Per-layer tracing of branchgroups from outside the package.

`Tracer.install()` replaces the public functions and methods listed in
`TARGETS` with timing wrappers, in the defining module and in every
other module of the package that imported the same object by name.
Nothing under `src/` is edited; the wrappers live only in the process
that installs them.

Accounting: every wrapped call pushes a child-time accumulator, so a
function's self time is its duration minus the time spent in wrapped
callees. Leaf functions (they call no wrapped function) skip the push,
which keeps the hot ones (`compose`, `inverse`, `reduce`, `rref`) cheap.
Coarse spans with parent ids are kept in memory for `run_check`,
`normal_closure`, `submodule_closure` and `brute_submodules` and written
out once, at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

from workloads import CHECKS

PACKAGE = "branchgroups"
LAYERS = ("trees", "engine", "linalg", "gmodules", "oracle", "suite", "cli")

# (layer, qualified name, kind). kind is "leaf", "node" or a special
# handler name; leaves must not call any other wrapped function.
TARGETS = [
    ("trees", "Portrait.compose", "compose"),
    ("trees", "Portrait.inverse", "leaf"),
    ("trees", "Portrait.identity", "leaf"),
    ("trees", "Portrait.from_labels", "leaf"),
    ("trees", "Portrait.level_labels", "leaf"),
    ("trees", "Portrait.in_stab", "leaf"),
    ("trees", "Portrait.max_stab_level", "leaf"),
    ("trees", "Portrait.__pow__", "node"),
    ("trees", "Portrait.conjugate", "node"),
    ("trees", "Portrait.section", "node"),
    ("trees", "Portrait.from_level_labels", "node"),
    ("trees", "embed_at_vertex", "node"),
    ("trees", "assemble", "node"),
    ("trees", "commutator", "node"),
    ("trees", "rooted_a", "node"),
    ("trees", "compose_all", "node"),
    ("engine", "StabilizerChain.__init__", "node"),
    ("engine", "StabilizerChain.sift", "sift"),
    ("engine", "StabilizerChain.contains", "node"),
    ("engine", "StabilizerChain.add_generator", "add_generator"),
    ("engine", "StabilizerChain.order_exponent_from", "node"),
    ("engine", "StabilizerChain.strong_generators", "node"),
    ("engine", "Subgroup.__init__", "node"),
    ("engine", "Subgroup.chain", "node"),
    ("engine", "Subgroup.contains", "node"),
    ("engine", "Subgroup.is_subgroup_of", "node"),
    ("engine", "Subgroup.equal", "node"),
    ("engine", "Subgroup.stabilizer", "node"),
    ("engine", "Subgroup.section_subgroup", "node"),
    ("engine", "Subgroup.image_in_wm", "node"),
    ("engine", "Subgroup.level_dims", "node"),
    ("engine", "Subgroup.max_stab_depth", "node"),
    ("engine", "group_of", "node"),
    ("engine", "normal_closure", "span"),
    ("engine", "commutator_subgroup", "node"),
    ("engine", "join", "node"),
    ("engine", "lower_central_series", "node"),
    ("engine", "derived_series", "node"),
    ("engine", "frattini_subgroup", "node"),
    ("engine", "min_generators", "node"),
    ("engine", "psi_preimage_gens", "node"),
    ("engine", "is_regular_branch_over", "node"),
    ("engine", "is_super_strongly_fractal", "node"),
    ("engine", "is_subdirect_in_product", "node"),
    ("linalg", "rref", "leaf"),
    ("linalg", "FpSubspace.__init__", "node"),
    ("linalg", "FpSubspace.reduce", "leaf"),
    ("linalg", "FpSubspace.contains_vector", "node"),
    ("linalg", "FpSubspace.contains", "node"),
    ("linalg", "FpSubspace.with_vectors", "node"),
    ("linalg", "FpSubspace.sum_with", "node"),
    ("linalg", "matrix_rank", "node"),
    ("gmodules", "GModule.__init__", "node"),
    ("gmodules", "GModule.word_matrix", "node"),
    ("gmodules", "permutation_matrix", "node"),
    ("gmodules", "wm_module", "node"),
    ("gmodules", "twisted_sum", "node"),
    ("gmodules", "iterated_twisted_sum", "node"),
    ("gmodules", "canonical_generator", "node"),
    ("gmodules", "canonical_generator_vec", "node"),
    ("gmodules", "vj_basis", "node"),
    ("gmodules", "submodule_closure", "span"),
    ("gmodules", "commutator_subspace", "node"),
    ("gmodules", "uniserial_chain", "node"),
    ("gmodules", "compute_rm", "node"),
    ("gmodules", "layer_representative", "node"),
    ("gmodules", "layer_preimage", "node"),
    ("oracle", "bfs_enumerate", "node"),
    ("oracle", "closure_of_vector", "node"),
    ("oracle", "brute_submodules", "census"),
    ("oracle", "brute_normal_between", "node"),
    ("oracle", "brute_invariant_subspaces_within", "node"),
    ("suite", "run_all", "node"),
    ("suite", "run_check", "check"),
    ("suite", "GroupContext.quotient", "ctx"),
    ("suite", "GroupContext.derived", "ctx"),
    ("suite", "GroupContext.gamma", "ctx"),
    ("suite", "GroupContext.branch_derived", "ctx"),
    ("suite", "GroupContext.normal_family", "ctx"),
    ("suite", "FamilyMember.ng", "node"),
    ("suite", "csp_offset", "node"),
    ("suite", "branch_subgroup", "node"),
    ("suite", "sunic_k", "node"),
    ("suite", "compute_n_g", "node"),
    ("suite", "default_depth", "node"),
    ("suite", "verify_effective_csp", "node"),
    ("suite", "verify_branching", "node"),
    ("suite", "verify_ggs_strong", "node"),
    ("suite", "verify_fg_lemma", "node"),
    ("suite", "verify_chain_theorem", "node"),
    ("suite", "verify_width_and_rank", "node"),
    ("suite", "verify_congruence_equiv", "node"),
    ("suite", "verify_appb", "node"),
    ("suite", "verify_sunic_suite", "node"),
    ("suite", "verify_generator_counts", "node"),
    ("suite", "verify_profinite_distinction", "node"),
    ("cli", "run", "node"),
    ("cli", "build_parser", "node"),
    ("cli", "load_instance", "node"),
    ("cli", "instance_from_dict", "node"),
    ("cli", "cmd_info", "node"),
    ("cli", "cmd_quotient", "node"),
    ("cli", "cmd_stab_dims", "node"),
    ("cli", "cmd_chain", "node"),
    ("cli", "cmd_verify", "node"),
    ("cli", "cmd_report", "node"),
    ("cli", "cmd_oracle", "node"),
]

class Tracer:
    """Counters, timers and spans for one traced run in this process."""

    def __init__(self):
        self.stack = [0.0]               # child-time accumulators; root sentinel
        self.stats: dict[str, list] = {}  # "layer:qualname" -> [calls, incl_s, self_s]
        self.compose_shapes: dict[tuple[int, int], int] = {}
        self.sift_useful = 0
        self.grew = 0
        self.census_distinct = 0
        self.census_closures_before = 0
        self.census_closures = 0
        self.ctx_keys: dict[tuple, int] = {}
        self.check_s: dict[str, float] = {}
        self.spans: list[dict] = []
        self._span_stack: list[int] = []
        self.missing: list[str] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in LAYERS}
        others = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{name}")
            for name in ("catalog",)] + list(modules.values())
        originals = []
        for layer, qualname, kind in TARGETS:
            owner, attr = _resolve(modules[layer], qualname)
            if owner is None:
                self.missing.append(f"{layer}.{qualname}")
                continue
            raw = owner.__dict__[attr]
            stat = self.stats.setdefault(f"{layer}:{qualname}", [0, 0.0, 0.0])
            wrapped = _rewrap(raw, lambda fn: self._wrap(fn, kind, stat, qualname))
            setattr(owner, attr, wrapped)
            if not inspect.isclass(owner):
                # rebind every `from .x import name` copy of the function
                for mod in others:
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)
            originals.append(raw)
        stale = [f"{mod.__name__}.{key}" for mod in others
                 for key, value in vars(mod).items()
                 if any(value is raw for raw in originals)]
        if stale:
            raise RuntimeError(f"unpatched bindings remain: {stale}")

    def _wrap(self, fn, kind, stat, qualname):
        stack, clock = self.stack, perf_counter
        if kind == "leaf":
            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt
                    stack[-1] += dt
            return leaf
        if kind == "compose":
            shapes = self.compose_shapes

            def compose(a, b):
                t0 = clock()
                try:
                    return fn(a, b)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt
                    stat[2] += dt
                    stack[-1] += dt
                    key = (a.p, a.depth)
                    shapes[key] = shapes.get(key, 0) + 1
            return compose
        post = {"sift": self._post_sift,
                "add_generator": self._post_grew,
                "census": self._post_census}.get(kind)
        pre = (self._pre_census if kind == "census"
               else self._ctx_lookup(fn, qualname) if kind == "ctx" else None)
        spanned = kind in ("span", "census", "check")
        check = kind == "check"

        def node(*args, **kwargs):
            if pre is not None:
                pre(args, kwargs)
            if spanned:
                span = self._open_span(qualname, args, kwargs, check)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                stack[-1] += dt
                if spanned:
                    self._close_span(span, t0, dt)
            if post is not None:
                post(args, result)
            return result
        return node

    # -- special handlers ------------------------------------------------

    def _post_sift(self, args, result):
        # sift returns (len(levels), identity) for members, else the rank
        # of the first moved base point and a non-identity residue
        if result[0] != len(args[0].levels):
            self.sift_useful += 1

    def _post_grew(self, args, result):
        if result:
            self.grew += 1

    def _pre_census(self, args, kwargs):
        self.census_closures_before = self._calls("oracle:closure_of_vector")

    def _post_census(self, args, result):
        self.census_distinct += len(result)
        self.census_closures += (self._calls("oracle:closure_of_vector")
                                 - self.census_closures_before)

    def _ctx_lookup(self, fn, qualname):
        sig = inspect.signature(fn)
        keys = self.ctx_keys

        def record(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            values = list(bound.arguments.values())
            key = (qualname, id(values[0]), *values[1:])
            keys[key] = keys.get(key, 0) + 1
        return record

    def _open_span(self, name, args, kwargs, check):
        if check:                            # run_check(ctx, name, ...)
            name = f"run_check:{args[1] if len(args) > 1 else kwargs['name']}"
        span = {"id": len(self.spans) + 1,
                "parent": self._span_stack[-1] if self._span_stack else 0,
                "name": name}
        self.spans.append(span)
        self._span_stack.append(span["id"])
        return span

    def _close_span(self, span, t0, dt):
        self._span_stack.pop()
        span["start_s"] = t0
        span["dur_s"] = dt
        if span["name"].startswith("run_check:"):
            check = span["name"].split(":", 1)[1]
            self.check_s[check] = self.check_s.get(check, 0.0) + dt

    # -- results ---------------------------------------------------------

    def _calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def _stat(self, key: str, idx: int):
        return self.stats.get(key, [0, 0.0, 0.0])[idx]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for k, s in self.stats.items()
                   if k.split(":", 1)[0] == layer)

    def compose_bytes(self) -> int:
        """Computed traffic of all compositions: two operands read, one
        result written, plus the two gather-index tables, at the array
        sizes and dtypes the program uses for each (p, depth)."""
        from branchgroups.trees import Portrait, _Tables
        total = 0
        for (p, depth), calls in self.compose_shapes.items():
            identity = getattr(Portrait.identity, "__wrapped__",
                               Portrait.identity)
            ident = identity(p, depth)
            t = _Tables(p, depth)
            index = sum(getattr(t, name).nbytes
                        for name in ("g_lbl", "prm_off") if hasattr(t, name))
            total += calls * (3 * (ident.lab.nbytes + ident.perm.nbytes) + index)
        return total

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit)."""
        def ratio(num, den):
            return num / den if den else 0.0
        compose_calls = self._calls("trees:Portrait.compose")
        compose_self = self._stat("trees:Portrait.compose", 2)
        sifts = self._calls("engine:StabilizerChain.sift")
        adds = self._calls("engine:StabilizerChain.add_generator")
        lookups = sum(self.ctx_keys.values())
        out = {
            "trees.compose.calls": (compose_calls, "count"),
            "trees.compose.self_s": (compose_self, "s"),
            "trees.compose.us": (ratio(compose_self, compose_calls) * 1e6, "us"),
            "trees.compose.bytes": (self.compose_bytes(), "B_computed"),
            "trees.inverse.calls": (self._calls("trees:Portrait.inverse"), "count"),
            "trees.inverse.self_s": (self._stat("trees:Portrait.inverse", 2), "s"),
            "trees.self_s": (self.layer_self_s("trees"), "s"),
            "engine.sift.calls": (sifts, "count"),
            "engine.sift.useful_ratio": (ratio(self.sift_useful, sifts), "ratio"),
            "engine.add_generator.calls": (adds, "count"),
            "engine.add_generator.grew_ratio": (ratio(self.grew, adds), "ratio"),
            "engine.normal_closure.calls": (self._calls("engine:normal_closure"), "count"),
            "engine.normal_closure.s": (self._stat("engine:normal_closure", 1), "s"),
            "engine.commutator_subgroup.calls": (
                self._calls("engine:commutator_subgroup"), "count"),
            "engine.contains.calls": (
                self._calls("engine:StabilizerChain.contains"), "count"),
            "engine.self_s": (self.layer_self_s("engine"), "s"),
            "linalg.rref.calls": (self._calls("linalg:rref"), "count"),
            "linalg.rref.self_s": (self._stat("linalg:rref", 2), "s"),
            "linalg.with_vectors.calls": (
                self._calls("linalg:FpSubspace.with_vectors"), "count"),
            "linalg.reduce.calls": (self._calls("linalg:FpSubspace.reduce"), "count"),
            "linalg.reduce.self_s": (self._stat("linalg:FpSubspace.reduce", 2), "s"),
            "linalg.self_s": (self.layer_self_s("linalg"), "s"),
            "gmodules.submodule_closure.calls": (
                self._calls("gmodules:submodule_closure"), "count"),
            "gmodules.submodule_closure.s": (
                self._stat("gmodules:submodule_closure", 1), "s"),
            "gmodules.self_s": (self.layer_self_s("gmodules"), "s"),
            "oracle.closure_of_vector.calls": (
                self._calls("oracle:closure_of_vector"), "count"),
            "oracle.census.distinct_ratio": (
                ratio(self.census_distinct, self.census_closures), "ratio"),
            "oracle.self_s": (self.layer_self_s("oracle"), "s"),
            "suite.self_s": (self.layer_self_s("suite"), "s"),
            "suite.ctx.lookups": (lookups, "count"),
            "suite.ctx.hit_ratio": (ratio(lookups - len(self.ctx_keys), lookups),
                                    "ratio"),
            "cli.self_s": (self.layer_self_s("cli"), "s"),
        }
        for name in CHECKS:
            out[f"suite.check.{name}.s"] = (self.check_s.get(name, 0.0), "s")
        return out


def _resolve(module, qualname):
    """(owner, attribute) for "func" or "Class.method"; (None, None) when
    the name no longer exists."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if parts[-1] not in vars(owner):
        return None, None
    return owner, parts[-1]


def _rewrap(raw, wrap):
    """Wrap a function, staticmethod or property getter, keeping its kind."""
    if isinstance(raw, staticmethod):
        inner = wrap(raw.__func__)
        inner.__wrapped__ = raw.__func__
        return staticmethod(inner)
    if isinstance(raw, property):
        return property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__)
    inner = wrap(raw)
    inner.__wrapped__ = raw
    return inner
