"""tools/report_diff.py: dumps of the same tree agree, and compare names what moved."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from test_acceptance import _random_prefix_scenario

TOOL = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"


def _tool():
    spec = importlib.util.spec_from_file_location("report_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_dumps_of_the_shipped_scenarios_agree(tmp_path):
    tool = _tool()
    a = tool.dump(tmp_path / "a.json", tool.shipped_scenarios())
    b = tool.dump(tmp_path / "b.json", tool.shipped_scenarios())
    assert sorted(a) == [f"shipped/{n}" for n in (
        "hardy-2x2", "mixed-3", "noncyclic-inequality", "quotient-zeros")]
    assert all("elapsed_seconds" not in rep for rep in a.values())
    assert tool.compare(a, b) == {}
    assert tool.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0

    moved = json.loads((tmp_path / "b.json").read_text())
    moved["shipped/mixed-3"]["multiplicities"]["S"]["witness_point"] = [[0.5, 0.0]] * 3
    del moved["shipped/hardy-2x2"]["residuals"]["chain"]
    assert tool.compare(a, moved) == {
        "multiplicities.S.witness_point": ["shipped/mixed-3"],
        "residuals.chain": ["shipped/hardy-2x2"],
    }


def test_compare_names_up_to_five_moved_reports(tmp_path, capsys):
    tool = _tool()
    a = {f"r{i}": {"passed": True, "dims": [2, 2]} for i in range(7)}
    b = json.loads(json.dumps(a))
    for i in range(6):
        b[f"r{i}"]["passed"] = False
    b["r6"]["dims"] = [2, 3]
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert tool.main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "dims: 1 of 7 reports (r6)",
        "passed: 6 of 7 reports (r0, r1, r2, r3, r4, ...)",
    ]


def test_compare_allow_prints_listed_paths_without_failing(tmp_path, capsys):
    """Paths matching an --allow pattern are printed, marked, and do not set exit 1;
    any other moved path still does, and so does a report on one side only."""
    tool = _tool()
    a = {f"r{i}": {"passed": True, "residuals": {"chain": 0.0, "eigen": 0.0},
                   "verdicts": {"chain": {"max_residual": 0.0, "status": "pass"}}}
         for i in range(2)}
    b = json.loads(json.dumps(a))
    b["r0"]["residuals"]["chain"] = 1e-16
    b["r1"]["verdicts"]["chain"]["max_residual"] = 1e-16
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    allow = ["--allow", "residuals.chain", "verdicts.*.max_residual"]
    assert tool.main(["compare", *paths, *allow]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "residuals.chain: 1 of 2 reports (r0); max |A-B| 1e-16, max |A| 0, max |B| 1e-16"
        " (allowed)",
        "verdicts.chain.max_residual: 1 of 2 reports (r1); max |A-B| 1e-16, max |A| 0,"
        " max |B| 1e-16 (allowed)",
    ]
    assert tool.main(["compare", *paths, "--allow", "residuals.chain"]) == 1
    assert tool.main(["compare", *paths]) == 1
    b["r1"]["verdicts"]["chain"]["status"] = "fail"
    b["r2"] = b["r1"]
    (tmp_path / "b.json").write_text(json.dumps(b))
    capsys.readouterr()
    assert tool.main(["compare", *paths, *allow]) == 1
    assert "verdicts.chain.status: 1 of 2 reports (r1)" in capsys.readouterr().out.splitlines()


def test_criterion_4_scenarios_match_the_acceptance_test():
    rng = np.random.default_rng(20250815)
    want = [_random_prefix_scenario(rng, 2 + trial % 2) for trial in range(20)]
    assert _tool().criterion_4_objects() == want


def test_compare_quotes_the_size_of_numeric_moves(tmp_path, capsys):
    """A moved number gets its largest |A - B| and each side's largest magnitude
    over the reports it moved in; booleans, lists and non-finite values get none."""
    tool = _tool()
    a = {f"r{i}": {"alignment": 1e-15 * i, "count": 3, "passed": True, "point": [0.0, 1.0],
                   "sine": 1.0} for i in range(4)}
    b = json.loads(json.dumps(a))
    b["r1"]["alignment"], b["r2"]["alignment"] = 1.2e-15, 1.7e-15
    b["r3"]["count"], b["r3"]["passed"], b["r3"]["point"] = 5, False, [0.0, 2.0]
    b["r0"]["sine"] = float("inf")
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert tool.spread(a, b, "alignment", ["r1", "r2"]) == pytest.approx((3e-16, 2e-15, 1.7e-15))
    assert tool.main(["compare", *paths, "--allow", "*"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alignment: 2 of 4 reports (r1, r2); max |A-B| 3e-16, max |A| 2e-15, max |B| 1.7e-15"
        " (allowed)",
        "count: 1 of 4 reports (r3); max |A-B| 2, max |A| 3, max |B| 5; total A 12, B 14"
        " (allowed)",
        "passed: 1 of 4 reports (r3) (allowed)",
        "point: 1 of 4 reports (r3) (allowed)",
        "sine: 1 of 4 reports (r0) (allowed)",
    ]


def test_compare_totals_integer_paths_over_the_common_reports(tmp_path, capsys):
    """A moved path that holds only integers gets each side's total over every
    report in both dumps, not only the moved ones, and reports that lack the path
    add nothing; a path that also holds a float or a boolean gets none."""
    tool = _tool()
    a = {f"r{i}": {"verdicts": {"shift_lemma": {"agreed": 4, "marginal": 2}},
                   "mixed": 1, "flag": 0} for i in range(3)}
    a["r3"] = {"verdicts": {}, "mixed": 2.5, "flag": True}
    a["only_a"] = {"verdicts": {"shift_lemma": {"agreed": 0, "marginal": 6}}, "mixed": 1, "flag": 0}
    b = json.loads(json.dumps(a))
    del b["only_a"]
    for i in range(2):
        b[f"r{i}"]["verdicts"]["shift_lemma"] = {"agreed": 6, "marginal": 0}
    b["r0"]["mixed"], b["r0"]["flag"] = 3, 1
    assert tool.totals(a, b, "verdicts.shift_lemma.marginal", ["r0", "r1", "r2", "r3"]) == (6, 2)
    assert tool.totals(a, b, "mixed", ["r0", "r1", "r2", "r3"]) is None
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    assert tool.main(["compare", *paths, "--allow", "*"]) == 1  # only_a is on one side only
    assert capsys.readouterr().out.splitlines() == [
        "1 reports only in A: only_a",
        "flag: 1 of 4 reports (r0); max |A-B| 1, max |A| 0, max |B| 1 (allowed)",
        "mixed: 1 of 4 reports (r0); max |A-B| 2, max |A| 1, max |B| 3 (allowed)",
        "verdicts.shift_lemma.agreed: 2 of 4 reports (r0, r1); max |A-B| 2, max |A| 4,"
        " max |B| 6; total A 12, B 16 (allowed)",
        "verdicts.shift_lemma.marginal: 2 of 4 reports (r0, r1); max |A-B| 2, max |A| 2,"
        " max |B| 0; total A 6, B 2 (allowed)",
    ]
