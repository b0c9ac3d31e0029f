import json
from pathlib import Path

import pytest

from branchgroups.catalog import fabrykowski_gupta
from branchgroups.cli import (EXIT_FAIL, EXIT_PASS, EXIT_USAGE, SpecError,
                              instance_from_dict, run)


def test_info_preset(capsys):
    assert run(["info", "--preset", "gs3"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["torsion"] is True
    assert payload["branch_type"] == "OverDerived"
    assert payload["congruence_subgroup_property"] is True


def test_quotient_depth_one(capsys):
    assert run(["quotient", "--preset", "fg3", "--depth", "1"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["order_exponent"] == 1


def test_stab_dims_csv(tmp_path, capsys):
    out = tmp_path / "dims.csv"
    assert run(["stab-dims", "--preset", "fg3", "--depth", "3",
                "--csv", str(out)]) == EXIT_PASS
    assert out.read_text().splitlines() == ["m,t(m)", "0,1", "1,3", "2,6"]


def test_chain_command(capsys):
    assert run(["chain", "--preset", "fg3", "--level", "2",
                "--depth", "4"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == 6
    assert payload["j_max"] == [2, 3]
    assert payload["uniserial"] is True


def test_verify_single_check(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "chain", "--preset", "fg3", "--depth", "4",
                "--json", str(out)])
    assert code == EXIT_PASS
    payload = json.loads(out.read_text())
    assert payload["checks"][0]["status"] == "pass"
    assert payload["checks"][0]["millis"] == 0  # deterministic by default


def test_verify_exit_code_on_fail():
    # the literal derived-series clause is refuted, so fg-lemma fails
    assert run(["verify", "fg-lemma", "--preset", "fg3",
                "--depth", "4"]) == EXIT_FAIL


def test_width_rank_without_n_g_is_skipped(capsys):
    # n_G of the Grigorchuk group is not determined at depth 3
    assert run(["verify", "width-rank", "--preset", "sunic-grigorchuk",
                "--depth", "3"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["status"] == "skipped"


def test_report_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        run(["verify", "width-rank", "--preset", "fg3", "--depth", "3",
             "--seed", "11", "--json", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_oracle_bfs(capsys):
    assert run(["oracle", "bfs", "--preset", "fg3", "--depth", "2"]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["agree"] is True and payload["bfs_count"] == 81


def test_oracle_twisted(capsys):
    assert run(["oracle", "twisted", "--preset", "gs3", "--level", "2"]) == EXIT_PASS


def test_oracle_replay_confirms_witness(tmp_path, capsys):
    report = tmp_path / "r.json"
    run(["verify", "fg-lemma", "--preset", "fg3", "--depth", "3",
         "--json", str(report)])
    capsys.readouterr()
    assert run(["oracle", "replay", "--report", str(report),
                "--cap", "11"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "CONFIRMED" in out


def test_spec_file_loading(tmp_path):
    spec = {"type": "multi_egs", "p": 5,
            "families": [{"j": 1, "vectors": [[1, 0, 0, 0]]},
                         {"j": 5, "vectors": [[1, 1, 0, 0]]}]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run(["info", "--spec", str(path)]) == EXIT_PASS


def test_spec_validation_errors():
    with pytest.raises(SpecError, match="/type"):
        instance_from_dict({"type": "nope", "p": 3})
    with pytest.raises(SpecError, match="/p"):
        instance_from_dict({"type": "ggs", "p": "three"})
    with pytest.raises(SpecError, match="/families/0/j"):
        instance_from_dict({"type": "multi_egs", "p": 3,
                            "families": [{"vectors": [[1, 0]]}]})


def test_bad_spec_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"type": "ggs", "p": 3, "vector": [0, 0]}))
    assert run(["info", "--spec", str(path)]) == EXIT_USAGE


def test_prime_above_61_exit_code(tmp_path, capsys):
    path = tmp_path / "fg67.json"
    path.write_text(json.dumps({"type": "fg", "p": 67}))
    assert run(["quotient", "--spec", str(path), "--depth", "2"]) == EXIT_USAGE
    assert "p <= 61" in capsys.readouterr().err


def test_oracle_replay_reads_letter_digits(tmp_path, capsys):
    # b^10 in the p=11 group carries the label 10, written "a"
    inst = fabrykowski_gupta(11)
    a, b = inst.generators(2)
    elem = (b**10).digits()
    assert elem == "0a" + "0" * 10
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"group": inst.spec_dict(), "checks": [
        {"name": "hand-made", "status": "fail",
         "witness": {"kind": "non-membership", "element": elem,
                     "subgroup_gens": [a.digits()]}}]}))
    assert run(["oracle", "replay", "--report", str(report)]) == EXIT_PASS
    assert "hand-made: witness CONFIRMED" in capsys.readouterr().out


def witness_report(**witness):
    """A p = 3 report whose one failing check carries the given
    non-membership witness (depth 2, so label strings have length 4)."""
    return {"group": {"type": "fg", "p": 3}, "checks": [
        {"name": "x", "status": "fail",
         "witness": {"kind": "non-membership", **witness}}]}


@pytest.mark.parametrize("report", [
    None,                              # no --report at all
    {"type": "fg", "p": 3},            # a spec, not a report
    [],                                # not an object
    witness_report(element="0000"),    # no subgroup_gens
    witness_report(element="0000", subgroup_gens="0000"),
    witness_report(element="0000", subgroup_gens=["000"]),
    witness_report(element="0000", subgroup_gens=[0]),
    witness_report(element=12, subgroup_gens=[]),
    witness_report(element="0z00", subgroup_gens=[]),   # label 35 >= p
    witness_report(element="0000", subgroup_gens=["0300"]),
    {"group": {"type": "fg", "p": 3},  # a failing check without a name
     "checks": [{"status": "fail", "witness": {"kind": "other"}}]},
])
def test_oracle_replay_bad_input_exit_code(report, tmp_path, capsys):
    # exit 1 would claim a witness was found
    argv = ["oracle", "replay"]
    if report is not None:
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        argv += ["--report", str(path)]
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(("usage error: --report",
                                         "spec error: "))


def test_entries_reduced_mod_p():
    inst = instance_from_dict({"type": "ggs", "p": 3, "vector": [4, -1]})
    assert inst.families[0][0] == (1, 2)


def test_usage_error_exit():
    assert run(["quotient", "--depth", "2"]) == EXIT_USAGE  # no spec/preset


@pytest.mark.parametrize("argv, flag", [
    (["quotient", "--preset", "fg3", "--depth", "0"], "--depth"),
    (["quotient", "--preset", "fg3", "--depth", "-1"], "--depth"),
    (["stab-dims", "--preset", "fg3", "--depth", "0"], "--depth"),
    (["chain", "--preset", "fg3", "--level", "1", "--depth", "0"], "--depth"),
    (["chain", "--preset", "fg3", "--level", "5", "--depth", "3"], "--level"),
    (["chain", "--preset", "fg3", "--level", "0", "--depth", "3"], "--level"),
    (["oracle", "normal-between", "--preset", "fg3", "--level", "3",
      "--depth", "2"], "--level"),
    (["oracle", "submodules", "--preset", "fg3", "--level", "0"], "--level"),
    (["verify", "all", "--preset", "sunic-grigorchuk", "--depth", "1"],
     "--depth"),
    (["verify", "all", "--preset", "appb-p5", "--depth", "1"], "--depth"),
    (["verify", "all", "--preset", "fg3", "--depth", "1"], "--depth"),
    (["verify", "chain", "--preset", "fg3", "--depth", "1"], "--depth"),
])
def test_out_of_range_depth_or_level_exit_code(argv, flag, capsys):
    # exit 1 is reserved for a falsification witness
    assert run(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: " + flag)


# -- golden reports --------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden"
# the p=5 GGS group on (0,1,1,0) and the p=3 Sunic group with coefficients
# (alpha_0, alpha_1) = (1, 1)
GGS5 = {"type": "ggs", "p": 5, "vector": [0, 1, 1, 0]}
SUNIC3 = {"type": "sunic", "p": 3, "poly": [1, 1]}


@pytest.mark.parametrize("name, argv, code", [
    ("all-fg3-d3", ["verify", "all", "--preset", "fg3", "--depth", "3"],
     EXIT_FAIL),
    ("all-gs3-d3", ["verify", "all", "--preset", "gs3", "--depth", "3"],
     EXIT_PASS),
    ("all-fg5-d2", ["verify", "all", "--preset", "fg5", "--depth", "2"],
     EXIT_PASS),
    ("all-sunic-grigorchuk", ["verify", "all", "--preset", "sunic-grigorchuk"],
     EXIT_PASS),
    ("all-appb-p5-d3", ["verify", "all", "--preset", "appb-p5", "--depth", "3"],
     EXIT_PASS),
    # the GGS group on (0,1,1,0) branches over gamma_3: ggs-strong's
    # gamma3' branch
    ("ggs-strong-ggs5-d3",
     ["verify", "ggs-strong", "--spec", GGS5, "--depth", "3"], EXIT_PASS),
    # the module layer: chain bases, the submodule census, the psi-twisted
    # cross-check and the brute normal-subgroup census
    ("chain-fg3-l2-d4",
     ["chain", "--preset", "fg3", "--level", "2", "--depth", "4"], EXIT_PASS),
    ("oracle-submodules-fg3-l2",
     ["oracle", "submodules", "--preset", "fg3", "--level", "2"], EXIT_PASS),
    ("oracle-twisted-sunic-grigorchuk-l4",
     ["oracle", "twisted", "--preset", "sunic-grigorchuk", "--level", "4"],
     EXIT_PASS),
    ("oracle-normal-between-fg3-l1",
     ["oracle", "normal-between", "--preset", "fg3", "--level", "1"],
     EXIT_PASS),
    # multi-EGS over the derived subgroup: the rdot+3 offset
    ("all-remark-group-d3",
     ["verify", "all", "--preset", "remark-group", "--depth", "3"], EXIT_PASS),
    # odd-p Sunic: psi(G') subdirect and the St(r+3)<=G'' depth skip
    ("all-sunic3-d4",
     ["verify", "all", "--spec", SUNIC3, "--depth", "4"], EXIT_PASS),
])
def test_golden_reports(name, argv, code, tmp_path, capsys):
    """CLI output (stdout, stderr, exit code) equals the committed
    references byte for byte."""
    spec = tmp_path / "spec.json"
    for a in argv:
        if isinstance(a, dict):
            spec.write_text(json.dumps(a))
    argv = [str(spec) if isinstance(a, dict) else a for a in argv]
    assert run(argv) == code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    assert err == (GOLDEN / f"{name}.stderr").read_text(encoding="utf-8")
