import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DUMP = ROOT / "tools" / "dump_outputs.py"
CODE_LINES = ROOT / "tools" / "code_lines.py"
BENCH_PAIRS = ROOT / "tools" / "bench_pairs.py"


def _load_tool(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_dump_module():
    return _load_tool(DUMP)


def test_dump_drops_timings_and_checkout_paths():
    canonical = _load_dump_module().canonical
    record = {
        "spec": "cayley:/some/checkout/src/ramstruct/data/cayley/q8.json",
        "elapsed_ms": 12.5,
        "lines": [{"elapsed_ms": 1.0, "group": "prod(cayley:/x/d4.json,C3)"}],
        "pairs": [(3, 4)],
    }
    assert canonical(record) == {
        "spec": "cayley:q8.json",
        "lines": [{"group": "prod(cayley:d4.json,C3)"}],
        "pairs": [[3, 4]],
    }


def test_dump_outputs_smoke(tmp_path):
    # the first item of each section, twice: the same bytes both times
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        subprocess.run(
            [sys.executable, str(DUMP), "--limit", "1", "--out", str(out)],
            check=True,
            cwd=tmp_path,
            timeout=120,
        )
    assert outs[0].read_bytes() == outs[1].read_bytes()
    data = json.loads(outs[0].read_text())
    assert {k: len(v) for k, v in data.items()} == {
        "deep_search": 1,
        "node_limits": 1,
        "catalog": 1,
        "cold_requests": 1,
        "input_errors": 1,
        "repeated": 1,
        "spherical": 1,
        "help": 1,
        "parse_errors": 1,
        "constructors": 1,
    }
    (deep,) = data["deep_search"].values()
    assert deep["exhaustive"] and {"candidates_examined", "states_replayed"} <= deep.keys()
    (stop,) = data["node_limits"].values()
    assert (stop["status"], stop["candidates_examined"], stop["exhaustive"]) == ("budget", 1, False)
    assert data["cold_requests"][0]["code"] == 0
    (error,) = data["input_errors"][0]["stdout"]
    assert data["input_errors"][0]["code"] == 1 and error["error"] == "ValueError"
    # the same bounded find before and after an unbounded one on one group
    first, unbounded, again = data["repeated"]["C2xC2xC2"]
    assert first == again and first["status"] == "budget" and unbounded["status"] == "none"
    # the two spherical systems of size 2 on C6: a generator and its inverse
    assert data["spherical"]["C6 2"] == {"count": 2, "tuples": ["[x1; x1^5]", "[x1^5; x1]"]}
    # the help of `ram` itself, and the first malformed literal's error
    assert data["help"]["ram"]["help"].startswith("usage: ram ")
    assert data["parse_errors"][0]["error"] == "ParseError"
    assert "elapsed_ms" not in outs[0].read_text()


def _printed_counts(*roots) -> dict[str, list[str]]:
    """The rows `code_lines.py` prints for the roots, by module name."""
    argv = [sys.executable, str(CODE_LINES)]
    for root in roots:
        argv += ["--root", str(root)]
    out = subprocess.run(argv, check=True, capture_output=True, text=True, timeout=60).stdout
    return {line.split()[0]: line.split()[1:] for line in out.splitlines()[1:]}


def test_code_lines_total_is_the_sum_of_the_modules():
    counts = _load_tool(CODE_LINES).module_counts(ROOT)
    assert "groups.py" in counts and all(n > 0 for n in counts.values())
    printed = _printed_counts(ROOT)
    assert printed.pop("total") == [str(sum(counts.values()))]
    assert printed == {name: [str(n)] for name, n in counts.items()}


def test_code_lines_skip_comments_and_docstrings(tmp_path):
    # on copies of the package: a comment line and a docstring line leave the
    # count as it was, and a statement adds one
    module = "structures.py"
    base = (ROOT / "src" / "ramstruct" / module).read_text()
    line = '    """Union of all conjugates of the cyclic subgroups generated by the entries."""\n'
    assert base.count(line) == 1
    edits = {
        "comment": line + "    # a comment line\n",
        "docstring": line.replace('entries."""', 'entries.\n    A docstring line."""'),
        "statement": line + "    assert G is not None\n",
    }
    roots = {}
    for name, replacement in edits.items():
        root = roots[name] = tmp_path / name
        shutil.copytree(
            ROOT / "src" / "ramstruct",
            root / "src" / "ramstruct",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (root / "src" / "ramstruct" / module).write_text(base.replace(line, replacement))
    counts = _load_tool(CODE_LINES).module_counts
    before = counts(ROOT)[module]
    assert counts(roots["comment"])[module] == before
    assert counts(roots["docstring"])[module] == before
    assert counts(roots["statement"])[module] == before + 1
    # with two roots the change is printed per module and in total
    printed = _printed_counts(ROOT, roots["statement"])
    assert printed[module] == [str(before), str(before + 1), "+1"]
    assert printed["total"][2] == "+1"


def _run_line(correct=True, failed=0, **values) -> str:
    """A canned `perfbench/run.py` stdout: a summary line, then the JSON."""
    metrics = {name: {"value": v, "unit": "u"} for name, v in values.items()}
    summary = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return "workload=w seed=1 trace=0\n" + json.dumps(summary) + "\n"


def test_bench_pairs_table_arithmetic():
    bench = _load_tool(BENCH_PAIRS)
    parse = bench.parse_run
    assert parse(_run_line(ops_per_s=5.0, op_p50_ms=2.0)) == {"ops_per_s": 5.0, "op_p50_ms": 2.0}
    with pytest.raises(ValueError):
        parse(_run_line(correct=False, ops_per_s=5.0))
    with pytest.raises(ValueError):
        parse(_run_line(failed=1, ops_per_s=5.0))
    with pytest.raises(ValueError):
        parse("")
    # parent ops_per_s 100, 110, 120, 130, 140: median 120, quartiles 110 and
    # 130, IQR 20/120 = 16.7%; the change reads 5% higher except in one pair,
    # where it ties.  op_p50_ms is lower on the change in 3 of 5 pairs.
    parent = [100.0, 110.0, 120.0, 130.0, 140.0]
    change = [105.0, 110.0, 126.0, 136.5, 147.0]
    p50_parent = [2.0, 2.0, 2.0, 2.0, 2.0]
    p50_change = [1.0, 1.0, 1.0, 3.0, 3.0]
    pairs = [
        (parse(_run_line(ops_per_s=a, op_p50_ms=c)), parse(_run_line(ops_per_s=b, op_p50_ms=d)))
        for a, b, c, d in zip(parent, change, p50_parent, p50_change)
    ]
    rows = bench.table_rows("w", pairs, {"ops_per_s": "higher", "op_p50_ms": "lower"})
    assert rows == [
        "| `w` | `ops_per_s` | 120 [110-130] | 126 [110-136.5] | +5.0% | 4/5 | 16.7% |",
        "| `w` | `op_p50_ms` | 2 [2-2] | 1 [1-3] | -50.0% | 3/5 | 0.0% |",
    ]
    assert bench.spread([7.0]) == (7.0, 7.0, 7.0)
