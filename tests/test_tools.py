import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DUMP = ROOT / "tools" / "dump_outputs.py"


def _load_dump_module():
    spec = importlib.util.spec_from_file_location("dump_outputs", DUMP)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    assert "elapsed_ms" not in outs[0].read_text()
