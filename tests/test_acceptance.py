"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its elapsed time and asserting the stated budget."""

import json
import time
from contextlib import contextmanager

import pytest

from ramstruct.catalog import SCHEMA_VERSION, bundled_cayley_path, run_catalog
from ramstruct.cli import main
from ramstruct.constructors import (
    construct_any,
    elementary_abelian_structure,
    exponent_p_structure,
    product_combine,
    product_project,
    semi_abelian_2group_odd_odd,
)
from ramstruct.errors import DegenerateRank, InadmissibleSize
from ramstruct.groups import AbelianGroup
from ramstruct.invariants import is_semi_abelian, omega, power_image, torsion_set
from ramstruct.oracle import SearchBudget, find_structure, size_set_up_to
from ramstruct.parsing import build_group, load_cayley_file
from ramstruct.structures import RamStructure, check_ramification, validated
from ramstruct.theory import (
    predict_elementary_abelian,
    predict_nilpotent,
    predict_semi_abelian_pgroup,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1])


def append_finding(path, payload: dict) -> None:
    """Append an ad-hoc result line (e.g. a search outcome worth keeping) to a
    results file."""
    record = {"schema_version": SCHEMA_VERSION, "kind": "finding", **payload}
    with path.open("a") as f:
        f.write(json.dumps(record) + "\n")


def test_criterion_1_counterexample_fixture(capsys):
    with criterion(1, "order-128 fixture checks at size (7,5)", 1.0):
        code, payload = run_cli(
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


def test_criterion_2_non_inherited_size(capsys):
    with criterion(2, "order-72 fixture checks at (5,7), denied on the 2-part", 1.0):
        code, payload = run_cli(
            capsys,
            "check",
            "--group",
            "C6xC6xC2",
            "--t1",
            "[x1; x2; x3; x2^-1; (x1*x3)^-1]",
            "--t2",
            "[x1*x2; x1*x2; (x1*x2)^-2; x1*x2*x3; (x1*x2*x3)^-1; x1^2*x2*x3; (x1^2*x2*x3)^-1]",
        )
        assert code == 0
        assert payload["verdict"] is True
        assert payload["size"] == [5, 7]
        code, payload = run_cli(
            capsys, "predict", "--group", "C2xC2xC2", "--size", "5,7"
        )
        assert code == 0
        assert payload["member"] is False


def test_criterion_3_explicit_base_constructions():
    with criterion(3, "all five explicit base structures validate", 1.0):
        expectations = [
            (5, 2, 3, 3),
            (3, 2, 4, 4),
            (2, 3, 5, 6),
            (2, 3, 6, 6),
            (2, 4, 5, 5),
        ]
        for p, d, r1, r2 in expectations:
            S = elementary_abelian_structure(p, d, r1, r2)
            assert S.size == (r1, r2)
            assert isinstance(check_ramification(S.group, S.t1, S.t2), RamStructure)


def test_criterion_4_oracle_negatives():
    with criterion(4, "exhaustive negatives on rank-2 and rank-3 groups", 60.0):
        res = size_set_up_to(AbelianGroup([2, 2]), 7)
        assert res.pairs == set() and res.exhaustive

        for s in range(3, 7):
            out = find_structure(AbelianGroup([3, 3]), 3, s)
            assert out.status == "none" and out.stats.exhausted

        C8 = AbelianGroup([2, 2, 2])
        res = size_set_up_to(C8, 8)
        assert res.exhaustive
        assert all(min(pair) >= 5 for pair in res.pairs)

        budget = SearchBudget(cap=9)
        for pair in [(5, 5), (5, 7), (5, 9), (7, 7), (7, 9), (9, 9)]:
            out = find_structure(C8, *pair, budget=budget)
            assert out.status == "none" and out.stats.exhausted


def test_criterion_5_predictor_equals_oracle(tmp_path):
    with criterion(5, "predictor grid equals oracle grid over the catalog", 1800.0):
        out = tmp_path / "catalog.jsonl"
        records = list(run_catalog(max_order=32, cap=8, out_path=out))
        compared = 0
        for record in records:
            assert record["exhaustive"], record["spec"]
            if record["predictor_applies"]:
                assert record["mismatches"] == [], record["spec"]
                compared += 1
        specs = {record["spec"] for record in records}
        assert "heis(3)" in specs and "heis(5)" in specs
        # 54 abelian groups of order <= 32 plus the two Heisenberg groups
        assert compared == 56


def test_criterion_6_exponent_p_consistency(heis3):
    with criterion(6, "oracle and predictor agree on the order-27 group", 300.0):
        scs = predict_semi_abelian_pgroup(heis3)
        assert find_structure(heis3, 4, 4).status == "found"
        assert scs.membership(4, 4)
        assert find_structure(heis3, 3, 3).status == "none"
        assert not scs.membership(3, 3)
        S = exponent_p_structure(heis3, 4, 4)
        assert isinstance(check_ramification(heis3, S.t1, S.t2), RamStructure)


def test_criterion_7_semi_abelian_detector():
    with criterion(7, "semi-abelian detector: witnesses and SA equalities", 10.0):
        for name in ("q8", "d4"):
            G = load_cayley_file(str(bundled_cayley_path(name)))
            holds, witness = is_semi_abelian(G, 1)
            assert not holds and witness is not None
            x, y = witness
            same_power = G.power(x, 2) == G.power(y, 2)
            diff_kill = G.power(G.mul(x, G.inv(y)), 2) == 0
            assert same_power != diff_kill

        from ramstruct.catalog import abelian_orders_of
        from ramstruct.invariants import exponent_exponent, sylow_decomposition

        for n in range(2, 33):
            for orders in abelian_orders_of(n):
                # the test is a p-group notion: check prime-power groups
                # directly, mixed orders through their Sylow factors
                parts = [f.group for f in sylow_decomposition(AbelianGroup(orders)).values()]
                for G in parts:
                    p, e = exponent_exponent(G)
                    for i in range(e + 1):
                        holds, _ = is_semi_abelian(G, i)
                        assert holds
                        assert omega(G, i) == torsion_set(G, i)  # SA1
                        assert (
                            G.order // omega(G, i).cardinality
                            == power_image(G, i).cardinality
                        )  # SA2


def test_criterion_8_odd_odd_and_degenerate_rank(tmp_path):
    with criterion(8, "odd-odd construction and the rank-3 search fallback", 1801.0):
        t0 = time.perf_counter()
        S = semi_abelian_2group_odd_odd(AbelianGroup([2, 4, 4, 4]), 7, 7)
        assert S.size == (7, 7)
        assert time.perf_counter() - t0 < 1.0

        C4cubed = AbelianGroup([4, 4, 4])
        with pytest.raises(DegenerateRank):
            semi_abelian_2group_odd_odd(C4cubed, 7, 7)

        budget = SearchBudget(max_millis=30 * 60 * 1000, cap=8)
        out = find_structure(C4cubed, 7, 7, budget)
        assert out.status in ("found", "none")  # decided either way, honestly
        results = tmp_path / "results.jsonl"
        append_finding(
            results,
            {
                "spec": "C4xC4xC4",
                "size": [7, 7],
                "status": out.status,
                "candidates_examined": out.stats.candidates,
                "exhaustive": out.stats.exhausted,
            },
        )
        assert json.loads(results.read_text().splitlines()[-1])["status"] == out.status
        # ground truth for the case the theory's argument does not reach
        assert out.status == "found"


def test_criterion_9_constructor_totality():
    with criterion(9, "size constructor total on the admissible region", 120.0):
        for p in (2, 3, 5):
            for d in range(1, 6):
                scs = predict_elementary_abelian(p, d)
                for r1 in range(3, 10):
                    for r2 in range(r1, 10):
                        if scs.membership(r1, r2):
                            S = elementary_abelian_structure(p, d, r1, r2)
                            assert S.size == (r1, r2)
                            assert isinstance(
                                check_ramification(S.group, S.t1, S.t2), RamStructure
                            )
                        else:
                            with pytest.raises(InadmissibleSize):
                                elementary_abelian_structure(p, d, r1, r2)


def test_criterion_10_direct_product_round_trip():
    with criterion(10, "coprime product combine/project round trip", 10.0):
        S3 = elementary_abelian_structure(3, 2, 5, 7)
        S2 = elementary_abelian_structure(2, 3, 5, 6)
        combined = product_combine(S3, S2)
        assert combined.size == (5, 7)
        assert combined.group.order == 72
        back = product_project(combined, "left", target_size=(5, 7))
        assert back.size == (5, 7)
        assert isinstance(check_ramification(back.group, back.t1, back.t2), RamStructure)
