"""Command-line front end: spec ingestion, computations, verification reports.

Exit codes: 0 all pass, 1 a falsification witness was found, 2 usage or
spec error, 3 resource guard exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import catalog, oracle
from .catalog import (BranchType, GroupInstance, MultiEGSInstance,
                      SunicInstance, branch_type, has_csp, in_class_E,
                      is_torsion, preset, r_dot)
from .engine import ResourceGuardError, Subgroup, group_of
from .gmodules import (compute_rm, iterated_twisted_sum, rm_tuples,
                       tuple_from_rank, uniserial_chain, wm_module)
from .linalg import FpSubspace
from .suite import (CHECKS, GroupContext, default_depth, run_all, run_check,
                    verify_profinite_distinction)
from .trees import Portrait

EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_GUARD = 0, 1, 2, 3


class SpecError(ValueError):
    """Spec-file validation failure with a JSON-pointer-ish path."""


def _expect(cond: bool, pointer: str, message: str):
    if not cond:
        raise SpecError(f"{pointer}: {message}")


def instance_from_dict(data: dict) -> GroupInstance:
    _expect(isinstance(data, dict), "", "spec must be a JSON object")
    kind = data.get("type")
    _expect(kind in ("ggs", "multi_ggs", "multi_egs", "sunic", "fg"),
            "/type", f"unknown type {kind!r}")
    p = data.get("p")
    _expect(isinstance(p, int) and p >= 2, "/p", "p must be an integer >= 2")
    try:
        if kind == "fg":
            return catalog.fabrykowski_gupta(p)
        if kind == "ggs":
            vec = data.get("vector")
            _expect(isinstance(vec, list), "/vector", "expected a list")
            return catalog.make_ggs(p, vec)
        if kind == "multi_ggs":
            vecs = data.get("vectors")
            _expect(isinstance(vecs, list) and vecs, "/vectors",
                    "expected a nonempty list of vectors")
            return catalog.make_multi_ggs(p, vecs)
        if kind == "multi_egs":
            fams = data.get("families")
            _expect(isinstance(fams, list) and fams, "/families",
                    "expected a nonempty list")
            fam_map: dict[int, list] = {}
            for i, item in enumerate(fams):
                _expect(isinstance(item, dict), f"/families/{i}",
                        "expected an object with j and vectors")
                j = item.get("j")
                _expect(isinstance(j, int), f"/families/{i}/j",
                        "expected an integer")
                vecs = item.get("vectors")
                _expect(isinstance(vecs, list) and vecs,
                        f"/families/{i}/vectors", "expected a nonempty list")
                fam_map[j] = vecs
            return catalog.make_multi_egs(p, fam_map)
        poly = data.get("poly")
        _expect(isinstance(poly, list) and poly, "/poly",
                "expected the coefficient list alpha_0..alpha_{r-1}")
        return catalog.make_sunic(p, poly)
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"/: {exc}") from exc


def load_instance(args) -> GroupInstance:
    if getattr(args, "preset", None):
        return preset(args.preset)
    if getattr(args, "spec", None):
        path = Path(args.spec)
        if not path.exists():
            raise SpecError(f"spec file {path} does not exist")
        with path.open(encoding="utf-8") as handle:
            return instance_from_dict(json.load(handle))
    raise SpecError("one of --spec or --preset is required")


def _info_payload(inst: GroupInstance) -> dict:
    out = {"spec": inst.spec_dict(), "p": inst.p,
           "generators": inst.gen_names}
    if isinstance(inst, MultiEGSInstance):
        out.update({
            "r": inst.r,
            "r_dot": r_dot(inst),
            "torsion": is_torsion(inst),
            "branch_type": branch_type(inst).value,
            "class_E": in_class_E(inst),
            "congruence_subgroup_property": has_csp(inst),
            "fabrykowski_gupta": catalog.is_fabrykowski_gupta(inst),
        })
    else:
        out.update({
            "r": inst.r,
            "regular_branch": inst.is_regular_branch(),
        })
    return out


def cmd_info(args) -> int:
    inst = load_instance(args)
    print(json.dumps(_info_payload(inst), indent=2, sort_keys=True))
    return EXIT_PASS


def cmd_quotient(args) -> int:
    inst = load_instance(args)
    g = group_of(inst, args.depth)
    payload = {"depth": args.depth, "order_exponent": g.order_exponent,
               "level_dims": g.level_dims()}
    if args.gens:
        payload["generators"] = {
            name: gen.digits()
            for name, gen in zip(inst.gen_names, inst.generators(args.depth))}
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_PASS


def cmd_stab_dims(args) -> int:
    inst = load_instance(args)
    g = group_of(inst, args.depth)
    dims = g.level_dims()
    if args.csv:
        lines = ["m,t(m)"] + [f"{m},{t}" for m, t in enumerate(dims)]
        Path(args.csv).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        print(json.dumps({"t": dims}, sort_keys=True))
    return EXIT_PASS


def cmd_chain(args) -> int:
    inst = load_instance(args)
    g = group_of(inst, args.depth)
    mod = wm_module(inst, args.level)
    u = g.image_in_wm(args.level)
    chain, bad = uniserial_chain(u, mod)
    rm = compute_rm(g, args.level)
    layers = []
    for space in chain:
        layers.append({
            "tuple": list(tuple_from_rank(space.dim - 1, inst.p, args.level)),
            "dimension": space.dim,
            "basis": space.basis_digits(),
        })
    payload = {"level": args.level, "depth": args.depth, "t": u.dim,
               "j_max": list(rm["j_max"]), "match": rm["match"],
               "uniserial": bad is None, "layers": layers}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if bad is not None or not rm["match"]:
        return EXIT_FAIL
    return EXIT_PASS


def _report_payload(inst, reports, depth, seed) -> dict:
    return {
        "group": inst.spec_dict(),
        "depth": depth,
        "seed": seed,
        "checks": [r.to_dict() for r in reports],
    }


def cmd_verify(args) -> int:
    inst = load_instance(args)
    ctx = GroupContext(inst)
    if args.check == "all":
        reports = run_all(ctx, depth=args.depth, seed=args.seed,
                          timings=args.timings)
    elif args.check == "profinite-pair":
        if not args.other:
            raise SpecError("profinite-pair requires --other SPEC-or-preset")
        if args.other in catalog.PRESET_NAMES:
            other = preset(args.other)
        else:
            other = instance_from_dict(json.loads(Path(args.other).read_text()))
        reports = [verify_profinite_distinction(ctx, GroupContext(other))]
    else:
        reports = [run_check(ctx, args.check, depth=args.depth,
                             seed=args.seed, timings=args.timings)]
    payload = _report_payload(inst, reports, args.depth or 0, args.seed)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.json:
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    for r in reports:
        line = f"{r.name}: {r.status}"
        if r.status == "skipped":
            line += f" ({r.details.get('reason', '')})"
        print(line, file=sys.stderr)
    if any(r.status == "fail" for r in reports):
        return EXIT_FAIL
    return EXIT_PASS


def cmd_report(args) -> int:
    inst = load_instance(args)
    ctx = GroupContext(inst)
    reports = run_all(ctx, depth=args.depth, seed=args.seed,
                      timings=args.timings)
    payload = _report_payload(inst, reports, args.depth or 0, args.seed)
    Path(args.json).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.json}")
    if any(r.status == "fail" for r in reports):
        return EXIT_FAIL
    return EXIT_PASS


def cmd_oracle(args) -> int:
    if args.which == "replay":
        return _oracle_replay(args)
    inst = load_instance(args)
    depth, level = args.depth, args.level
    if args.which == "bfs":
        g = group_of(inst, depth)
        count, exp = oracle.bfs_enumerate(inst.generators(depth),
                                          cap_exp=args.cap)
        ok = exp == g.order_exponent
        print(json.dumps({"depth": depth, "bfs_count": count,
                          "bfs_exponent": exp,
                          "chain_exponent": g.order_exponent,
                          "agree": ok}, sort_keys=True))
        return EXIT_PASS if ok else EXIT_FAIL
    if args.which == "submodules":
        subs = oracle.brute_submodules(wm_module(inst, level))
        print(json.dumps({"level": level,
                          "nontrivial_submodules": len(subs),
                          "dims": [s.dim for s in subs]}, sort_keys=True))
        return EXIT_PASS
    if args.which == "twisted":
        tw = iterated_twisted_sum(inst, level)
        wm = wm_module(inst, level)
        ok = all(np.array_equal(tw.perms[k], wm.perms[k]) for k in wm.perms)
        print(json.dumps({"level": level, "agree": ok}, sort_keys=True))
        return EXIT_PASS if ok else EXIT_FAIL
    if args.which == "normal-between":
        g = group_of(inst, depth)
        try:
            subs = oracle.brute_invariant_subspaces_within(
                g.image_in_wm(level), wm_module(inst, level), cap_dim=args.cap)
        except ResourceGuardError as exc:
            print(json.dumps({"status": "skipped", "reason": str(exc)}))
            return EXIT_GUARD
        print(json.dumps({"level": level, "depth": depth,
                          "subgroup_count": len(subs),
                          "dims": [s.dim for s in subs]}, sort_keys=True))
        return EXIT_PASS
    raise SpecError(f"unknown oracle {args.which!r}")


def _oracle_replay(args) -> int:
    """Re-check the witnesses in a report file with independent machinery."""
    data = json.loads(Path(args.report).read_text(encoding="utf-8"))
    _expect(isinstance(data, dict), "", "report must be a JSON object")
    _expect("group" in data, "/group", "report carries no group spec")
    inst = instance_from_dict(data["group"])
    checks = data.get("checks")
    _expect(isinstance(checks, list)
            and all(isinstance(c, dict) for c in checks), "/checks",
            "expected a list of check objects")
    confirmed, unsupported = 0, 0
    for i, check in enumerate(checks):
        wit = check.get("witness")
        if check.get("status") != "fail" or not wit:
            continue
        at = f"/checks/{i}"
        _expect(isinstance(wit, dict), f"{at}/witness",
                "expected a witness object")
        _expect(isinstance(check.get("name"), str), f"{at}/name",
                "expected a check name")
        if wit.get("kind") == "non-membership" and wit.get("element"):
            elem, gens = _witness_portraits(inst.p, wit, f"{at}/witness")
            sub = Subgroup(inst.p, elem.depth, gens)
            in_chain = sub.contains(elem)
            verdict = not in_chain
            if sub.order_exponent <= args.cap:
                verdict = verdict and (
                    elem.key() not in oracle.bfs_elements(gens, args.cap))
            print(f"{check['name']}: witness "
                  f"{'CONFIRMED' if verdict else 'NOT confirmed'}")
            confirmed += verdict
            unsupported += not verdict
        else:
            print(f"{check['name']}: witness kind not replayable")
            unsupported += 1
    print(json.dumps({"confirmed": confirmed, "unreplayed": unsupported},
                     sort_keys=True))
    return EXIT_PASS if unsupported == 0 else EXIT_FAIL


def _witness_portraits(p: int, wit: dict, at: str):
    """The element and subgroup generators of a non-membership witness;
    SpecError unless they are label strings of one tree's length."""
    elem = wit["element"]
    _expect(isinstance(elem, str), f"{at}/element", "expected a label string")
    gens = wit.get("subgroup_gens")
    _expect(isinstance(gens, list)
            and all(isinstance(g, str) and len(g) == len(elem) for g in gens),
            f"{at}/subgroup_gens",
            "expected a list of label strings of the element's length")
    depth = len_digits_to_depth(p, elem)
    try:
        return (Portrait.from_digits(p, depth, elem),
                [Portrait.from_digits(p, depth, g) for g in gens])
    except ValueError as exc:
        raise SpecError(f"{at}: {exc}") from exc


def len_digits_to_depth(p: int, digits: str) -> int:
    total = len(digits)
    depth, acc = 0, 0
    while acc < total:
        acc += p**depth
        depth += 1
    if acc != total:
        raise SpecError("witness label string has invalid length")
    return depth


def _resolve_flags(args) -> str | None:
    """Fill in the oracles' default --level and --depth and check both
    flags before any work starts; returns what is out of range, or None.

    A level m needs the layer St(m)/St(m+1) of the depth-n quotient, so
    1 <= m <= n - 1 where a quotient is built; verify and report need
    n >= 2, as several checks build the depth n - 1 quotient.
    """
    between = args.command == "oracle" and args.which == "normal-between"
    if args.command == "oracle":
        if args.level is None:
            args.level = 1 if between else 2
        if args.depth is None:
            args.depth = args.level + 2 if between else 2
    if args.command == "oracle" and args.which == "replay" and not args.report:
        return "--report is required for oracle replay"
    depth, level = getattr(args, "depth", None), getattr(args, "level", None)
    least = 2 if args.command in ("verify", "report") else 1
    if depth is not None and depth < least:
        return f"--depth must be at least {least}, got {depth}"
    if level is not None and level < 1:
        return f"--level must be at least 1, got {level}"
    if (args.command == "chain" or between) and level >= depth:
        return f"--level must be below --depth, got {level} and {depth}"
    return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="branchgroups",
        description="Exact computations in finite quotients of self-similar "
                    "groups on the p-adic tree")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_args(p):
        p.add_argument("--spec", help="path to a group spec JSON file")
        p.add_argument("--preset", choices=catalog.PRESET_NAMES,
                       help="bundled group preset")

    p_info = sub.add_parser("info", help="classification of a group spec")
    add_spec_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_quot = sub.add_parser("quotient", help="order data of G/St(n)")
    add_spec_args(p_quot)
    p_quot.add_argument("--depth", type=int, required=True)
    p_quot.add_argument("--gens", action="store_true",
                        help="include generator portraits")
    p_quot.set_defaults(func=cmd_quotient)

    p_dims = sub.add_parser("stab-dims", help="layer dimensions t(0)..t(n-1)")
    add_spec_args(p_dims)
    p_dims.add_argument("--depth", type=int, required=True)
    p_dims.add_argument("--csv", help="write a CSV table to this path")
    p_dims.set_defaults(func=cmd_stab_dims)

    p_chain = sub.add_parser("chain",
                             help="the normal-subgroup chain in one layer")
    add_spec_args(p_chain)
    p_chain.add_argument("--level", type=int, required=True)
    p_chain.add_argument("--depth", type=int, required=True)
    p_chain.set_defaults(func=cmd_chain)

    p_verify = sub.add_parser("verify", help="run verification checks")
    p_verify.add_argument("check",
                          choices=sorted(CHECKS) + ["all", "profinite-pair"])
    add_spec_args(p_verify)
    p_verify.add_argument("--other", help="second spec for profinite-pair")
    p_verify.add_argument("--depth", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--json", help="write the report to this path")
    p_verify.add_argument("--timings", action="store_true",
                          help="include wall-clock millis in the report")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="aggregate JSON report")
    add_spec_args(p_report)
    p_report.add_argument("--json", required=True)
    p_report.add_argument("--depth", type=int, default=None)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--timings", action="store_true")
    p_report.set_defaults(func=cmd_report)

    p_oracle = sub.add_parser("oracle", help="brute-force cross-validation")
    p_oracle.add_argument("which", choices=["bfs", "submodules", "twisted",
                                            "normal-between", "replay"])
    add_spec_args(p_oracle)
    p_oracle.add_argument("--depth", type=int, default=None)
    p_oracle.add_argument("--level", type=int, default=None)
    p_oracle.add_argument("--cap", type=int, default=12)
    p_oracle.add_argument("--report", help="report file for replay")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    problem = _resolve_flags(args)
    if problem is not None:
        print(f"usage error: {problem}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
