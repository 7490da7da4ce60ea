"""tools/scale_ladder.py runs each size in a fresh process and checks the closed form."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_ladder.py"


@pytest.fixture(scope="module")
def ladder():
    spec = importlib.util.spec_from_file_location("scale_ladder", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hardy_3x3_k1_with_and_without_the_shift_lemma(ladder, capsys):
    assert ladder.main(["3^2:1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["size", "N", "dim", "S"]
    assert len(rows) == 2
    for row, checks, verdict in zip(rows, ("all", "no-shift"), ("pass (6/6 agreed, 0 marginal)", "-")):
        size, N, dim_S, got_checks, seconds, rss, mb, mult, vs, n = row.split()[:10]
        assert (size, N, dim_S, got_checks, mult, vs, n) == ("3^2:1", "9", "8", checks, "2", "vs", "2")
        assert seconds.endswith("s") and float(rss) > 0 and mb == "MB"
        assert row.endswith(verdict)


def test_no_shift_runs_each_size_only_without_the_shift_lemma(ladder, capsys):
    assert ladder.main(["--no-shift", "3^2:1", "4^2:2"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert [row.split()[:4] for row in rows] == [["3^2:1", "9", "8", "no-shift"],
                                                 ["4^2:2", "16", "12", "no-shift"]]
    assert all(row.endswith("-") for row in rows)


def test_distinct_roots_certify_one_generator(ladder, capsys):
    """roots:3^2: two copies of the quotient with roots 0, (0.8 + 0.1i) / 3 and
    (0.8 + 0.1i) 2 / 3, its ideal on the first two, so dim S = 9 - 2^2 and the 9 joint
    eigenvalues are simple: mult(S) = 1, certified, with the shift lemma 6 of 6."""
    assert ladder.main(["roots:3^2"]) == 0
    _, *rows = capsys.readouterr().out.splitlines()
    for row, checks, verdict in zip(rows, ("all", "no-shift"), ("pass (6/6 agreed, 0 marginal)", "-")):
        size, N, dim_S, got_checks, _, _, _, mult, vs, want = row.split()[:10]
        assert (size, N, dim_S, got_checks, mult, vs, want) == (
            "roots:3^2", "9", "5", checks, "1", "vs", "1")
        assert row.endswith(verdict)
    assert len(rows) == 2


@pytest.mark.parametrize("size", ["3^1:1", "3^2:0", "3^2:3", "3x2:1", "roots:2^2", "roots:3^1",
                                  "roots:3^2:1"])
def test_a_size_without_a_closed_form_is_refused(ladder, size):
    with pytest.raises(SystemExit):
        ladder.main([size])
