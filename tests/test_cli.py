import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ramstruct import __version__
from ramstruct.catalog import bundled_cayley_path
from ramstruct.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    lines = [json.loads(line) for line in out.splitlines() if line]
    return code, lines[-1] if lines else None, lines


def test_check_command(capsys):
    code, payload, _ = run(
        capsys,
        "check",
        "--group",
        "C2xC4xC4xC4",
        "--t1",
        "[x2; x3; x4; x2^-1; x3^-1; x4^-1*x1; x1]",
        "--t2",
        "[x2*x3*x1; x2*x4; x3*x4; x2*x3*x4; x2*x3*x4*x1]",
    )
    assert code == 0
    assert payload["verdict"] is True
    assert payload["size"] == [7, 5]
    assert "sigma_sizes" in payload


def test_check_failure_reason(capsys):
    code, payload, _ = run(
        capsys,
        "check",
        "--group",
        "C5xC5",
        "--t1",
        "[x1; x2; (x1*x2)^-1]",
        "--t2",
        "[x1; x2; (x1*x2)^-1]",
    )
    assert code == 0
    assert payload["verdict"] is False
    assert payload["reason"] == "not_disjoint"
    assert "witness" in payload


def test_search_command(capsys):
    code, payload, _ = run(capsys, "search", "--group", "C2xC2xC2", "--size", "5,6")
    assert code == 0 and payload["status"] == "found"
    witness = payload["witnesses"][0]
    code, payload, _ = run(
        capsys,
        "check",
        "--group",
        "C2xC2xC2",
        "--t1",
        witness["t1"],
        "--t2",
        witness["t2"],
    )
    assert code == 0 and payload["verdict"] is True

    code, payload, _ = run(capsys, "search", "--group", "C2xC2xC2", "--size", "5,5")
    assert code == 0 and payload["status"] == "none" and payload["exhaustive"]
    for key in ("candidates_examined", "t1_candidates", "partner_searches"):
        assert payload[key] >= 0


def test_search_all(capsys):
    code, payload, _ = run(
        capsys, "search", "--group", "heis(3)", "--size", "4,4", "--all", "3"
    )
    assert code == 0 and len(payload["witnesses"]) == 3
    # --all 1 answers as the single find does
    answers = []
    for extra in ((), ("--all", "1")):
        code, payload, _ = run(capsys, "search", "--group", "heis(3)", "--size", "4,4", *extra)
        del payload["elapsed_ms"]
        answers.append((code, payload))
    assert answers[0] == answers[1]


@pytest.mark.parametrize("n", ["0", "-2"])
def test_search_all_below_one_exit_code(capsys, n):
    code, payload, _ = run(capsys, "search", "--group", "heis(3)", "--size", "4,4", "--all", n)
    assert code == 1
    assert payload["error"] == "ValueError" and payload["message"]


def test_search_too_deep_exit_code(capsys):
    # sizes too deep for the walk's recursion are an input error with a
    # reason, not a RecursionError traceback
    code, payload, _ = run(capsys, "search", "--group", "C3xC3", "--size", "4,1000")
    assert code == 1
    assert payload["error"] == "ValueError" and "recursion limit" in payload["message"]


@pytest.mark.parametrize(
    "group, size, error, words",
    [
        ("C2xC512", "3,3", "RamError", "orders up to 512"),
        ("C3xC3", "4,1000", "ValueError", "recursion limit"),
    ],
)
def test_construct_search_input_error_exit_code(capsys, group, size, error, words):
    # an input the search refuses is an input error with a reason, as for
    # `search`, not an unknown answer with the exit code of a spent budget
    code, payload, _ = run(
        capsys, "construct", "--group", group, "--size", size, "--method", "search"
    )
    assert code == 1
    assert payload["error"] == error and words in payload["message"]


def test_sizes_command(capsys):
    code, payload, _ = run(capsys, "sizes", "--group", "C3xC3", "--cap", "5")
    assert code == 0
    assert payload["pairs"] == [[4, 4], [4, 5], [5, 5]]
    assert payload["exhaustive"] is True


def test_predict_command(capsys):
    code, payload, _ = run(
        capsys, "predict", "--group", "C2xC2xC2", "--size", "5,7"
    )
    assert code == 0 and payload["member"] is False
    code, payload, _ = run(capsys, "predict", "--group", "C6xC6xC2", "--grid", "6")
    assert code == 0
    grid = {(r1, r2): member for r1, r2, member in payload["grid"]}
    assert grid[(5, 6)] is True and grid[(5, 5)] is False


@pytest.mark.parametrize("cap", ["0", "2", "3"])
def test_predict_grid_below_the_least_size(capsys, cap):
    # a grid cap is printed whatever its value: below size 3 the grid is empty
    code, payload, _ = run(capsys, "predict", "--group", "C2xC2xC2", "--grid", cap)
    assert code == 0
    assert payload["grid"] == ([[3, 3, False]] if cap == "3" else [])


def test_construct_command(capsys):
    code, payload, _ = run(
        capsys, "construct", "--group", "C6xC6xC2", "--size", "5,7"
    )
    assert code == 0 and payload["status"] == "ok"
    assert payload["witness"]["size"] == [5, 7]
    # the emitted witness re-validates through check
    code, verdict, _ = run(
        capsys,
        "check",
        "--group",
        "C6xC6xC2",
        "--t1",
        payload["witness"]["t1"],
        "--t2",
        payload["witness"]["t2"],
    )
    assert code == 0 and verdict["verdict"] is True
    assert "candidates_examined" not in payload  # the theorem route ran no search

    code, payload, _ = run(
        capsys, "construct", "--group", "C2xC2xC2", "--size", "5,6", "--method", "search"
    )
    assert code == 0 and payload["status"] == "ok" and payload["method"] == "search"
    assert payload["candidates_examined"] > 0
    assert payload["t1_candidates"] >= 1 and payload["partner_searches"] >= 1

    code, payload, _ = run(
        capsys, "construct", "--group", "C7", "--size", "3,3"
    )
    assert code == 0 and payload["status"] == "inadmissible"


def test_construct_budget_exit_code(capsys):
    code, payload, _ = run(
        capsys,
        "construct",
        "--group",
        f"cayley:{bundled_cayley_path('d4')}",
        "--size",
        "8,8",
        "--budget-ms",
        "1",
    )
    assert payload["status"] in ("unknown", "inadmissible")
    if payload["status"] == "unknown":
        assert code == 2


def test_construct_by_theorem_alone_uncovered_exit_code(capsys):
    # (7,7) on C8xC8xC8 is admissible, but the odd-odd 2-group construction
    # needs d(G) > 3: a theorem-only construct reaches no answer, runs no
    # search and exits 2 all the same
    code, payload, lines = run(
        capsys, "construct", "--group", "C8xC8xC8", "--size", "7,7", "--method", "theorem"
    )
    assert code == 2 and len(lines) == 1
    payload.pop("elapsed_ms")
    assert payload == {
        "command": "construct",
        "tool_version": __version__,
        "status": "unknown",
        "method": "",
        "reason": "no implemented characterization covers this group",
        "group": "C8xC8xC8",
    }


def test_invariants_command(capsys):
    code, payload, _ = run(capsys, "invariants", "--group", "C2xC4xC4xC4")
    assert code == 0
    assert payload["p"] == 2 and payload["e"] == 2 and payload["d"] == 4
    assert payload["power_image_sizes"] == [128, 8, 1]


def test_semiabelian_command(capsys):
    code, payload, _ = run(
        capsys, "semiabelian", "--group", f"cayley:{bundled_cayley_path('q8')}"
    )
    assert code == 0
    by_level = {item["i"]: item for item in payload["levels"]}
    assert by_level[0]["holds"] and by_level[0]["trivial"]
    assert not by_level[1]["holds"] and by_level[1]["witness"] == ["i", "j"]


def test_semiabelian_negative_level_exit_code(capsys):
    for group in ("heis(3)", "C4xC4"):
        code, payload, _ = run(capsys, "semiabelian", "--group", group, "--level", "-1")
        assert code == 1
        assert payload["error"] == "ValueError" and payload["message"]


def test_catalog_command(capsys, tmp_path):
    out = tmp_path / "results.jsonl"
    code, summary, lines = run(
        capsys,
        "catalog",
        "--max-order",
        "9",
        "--cap",
        "5",
        "--out",
        str(out),
    )
    assert code == 0
    assert summary == {"kind": "summary", "mismatches": 0, "exhaustive": True}
    catalog_lines = [l for l in lines if l.get("kind") == "catalog"]
    assert any(l["spec"] == "C2xC2xC2" for l in catalog_lines)
    assert all(not l["cached"] for l in catalog_lines)
    assert out.exists()

    # second run is served entirely from the results file, with identical records
    first_records = [dict(l, cached=None) for l in catalog_lines]
    code, summary, lines = run(
        capsys,
        "catalog",
        "--max-order",
        "9",
        "--cap",
        "5",
        "--out",
        str(out),
    )
    catalog_lines = [l for l in lines if l.get("kind") == "catalog"]
    assert all(l["cached"] for l in catalog_lines)
    assert [dict(l, cached=None) for l in catalog_lines] == first_records
    assert summary["mismatches"] == 0


def test_catalog_unwritable_out_fails_before_the_sweep(capsys, tmp_path, monkeypatch):
    # the output file is created before the first entry is evaluated, so a
    # path that cannot be written is the only line printed
    from ramstruct import catalog

    evaluated = []
    evaluate = catalog.evaluate_entry

    def counted(entry, *args):
        evaluated.append(entry.spec)
        return evaluate(entry, *args)

    monkeypatch.setattr(catalog, "evaluate_entry", counted)
    out = tmp_path / "missing" / "x.jsonl"
    code, payload, lines = run(
        capsys, "catalog", "--max-order", "8", "--cap", "5", "--out", str(out)
    )
    assert code == 1
    assert lines == [payload] and payload["error"] == "FileNotFoundError"
    assert evaluated == [] and not out.exists()


def test_parse_error_exit_code(capsys):
    code, payload, _ = run(capsys, "predict", "--group", "C1xC2")
    assert code == 1 and "error" in payload
    code, payload, _ = run(capsys, "search", "--group", "C2xC2", "--size", "5")
    assert code == 1
    code, payload, _ = run(capsys, "check", "--group", "C2xC2", "--t1", "[x1]", "--t2", "[")
    assert code == 1


def test_malformed_cayley_file_exit_code(capsys, malformed_cayley):
    spec = f"cayley:{malformed_cayley}"
    for argv in (
        ("invariants", "--group", spec),
        ("check", "--group", spec, "--t1", "[#1; #1]", "--t2", "[a; a]"),
    ):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 1 and not captured.err, argv
        payload = json.loads(captured.out)
        assert payload["error"] == "RamError" and "cayley file" in payload["message"]


def test_request_builds_its_group_once(capsys, monkeypatch):
    # the spec is parsed once (one cursor; these commands parse no tuples)
    # and its table file is loaded once, output field included
    from ramstruct import parsing

    loads, cursors = [], []
    load = parsing.load_cayley_file

    def counted_load(path):
        loads.append(path)
        return load(path)

    class CountedCursor(parsing._Cursor):
        def __init__(self, text):
            cursors.append(text)
            super().__init__(text)

    monkeypatch.setattr(parsing, "load_cayley_file", counted_load)
    monkeypatch.setattr(parsing, "_Cursor", CountedCursor)
    spec = f"cayley:{bundled_cayley_path('q8')}"
    for argv in (
        ("invariants", "--group", spec),
        ("sizes", "--group", f"prod({spec},C3)", "--cap", "4"),
        ("construct", "--group", spec, "--size", "4,4"),
    ):
        loads.clear()
        cursors.clear()
        code, payload, _ = run(capsys, *argv)
        assert code == 0 and payload["group"] == argv[2]
        assert (len(loads), cursors) == (1, [argv[2]]), argv


def test_seed_flag_accepted(capsys):
    code, payload, _ = run(
        capsys, "sizes", "--group", "C2xC2", "--cap", "4", "--seed", "7"
    )
    assert code == 0 and payload["pairs"] == []


def test_usage_error_exit_code(capsys):
    # argparse would exit with 2, which is the exhausted-budget code
    for argv in (("search", "--group", "C4xC4"), ("sizes", "--group", "C2xC2", "--cap", "x")):
        code, payload, _ = run(capsys, *argv)
        assert code == 1
        assert payload["error"] == "ArgumentError" and payload["message"]
    for argv in (["--version"], ["sizes", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0


def _fresh_process(*argv, timeout=120):
    """`ram` run in a new interpreter, as a shell user runs it."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "ramstruct.cli", *argv],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_parser_reused_across_requests(capsys):
    # main builds its parser once per process; a usage error, a request and
    # another command after it answer as each would in a fresh process
    for argv in (
        ("search", "--group", "C4xC4"),
        ("search", "--group", "C4xC4", "--size", "3,3"),
        ("predict", "--group", "C4xC4", "--size", "3,3"),
        ("search", "--group", "C4xC4", "--size", "3,3", "--all", "2"),
    ):
        code, payload, _ = run(capsys, *argv)
        payload.pop("elapsed_ms", None)
        fresh_code, fresh = _fresh_process(*argv)
        fresh.pop("elapsed_ms", None)
        assert (code, payload) == (fresh_code, fresh), argv
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__
    code, payload, _ = run(capsys, "sizes", "--group", "C2xC2", "--cap", "4")
    assert code == 0 and payload["pairs"] == []


def test_huge_power_level_answers_at_once():
    # a level past e is read as e, so p^i is never formed for a huge i; a
    # new process, so that a hang fails on the timeout
    code, payload = _fresh_process(
        "semiabelian", "--group", "C3xC3", "--level", "100000000", timeout=30
    )
    assert code == 0
    assert payload["levels"] == [{"i": 100000000, "holds": True, "trivial": False}]
