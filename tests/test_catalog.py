import json
import shutil

from ramstruct import catalog
from ramstruct.catalog import CatalogEntry, bundled_cayley_path, run_catalog
from ramstruct.oracle import SearchBudget


def test_edited_cayley_table_is_not_served_from_cache(monkeypatch, tmp_path):
    table = tmp_path / "group.json"
    shutil.copy(bundled_cayley_path("s3"), table)
    monkeypatch.setattr(
        catalog, "builtin_catalog", lambda max_order: [CatalogEntry(f"cayley:{table}")]
    )
    out = tmp_path / "results.jsonl"

    def sweep() -> dict:
        (record,) = run_catalog(max_order=8, cap=4, out_path=out)
        return record

    first = sweep()
    assert not first["cached"] and first["order"] == 6
    for key in ("candidates_examined", "t1_candidates", "partner_searches"):
        assert first[key] >= 0
    assert sweep()["cached"]

    shutil.copy(bundled_cayley_path("q8"), table)
    edited = sweep()
    assert not edited["cached"] and edited["order"] == 8
    assert edited["content_hash"] != first["content_hash"]


def test_cached_record_without_counters_is_evaluated_afresh(monkeypatch, tmp_path):
    monkeypatch.setattr(
        catalog, "builtin_catalog", lambda max_order: [CatalogEntry("C3xC3")]
    )
    out = tmp_path / "results.jsonl"

    def sweep() -> dict:
        (record,) = run_catalog(max_order=9, cap=5, out_path=out)
        return record

    first = sweep()
    dropped = ("cached", "t1_candidates", "partner_searches")
    old = {k: v for k, v in first.items() if k not in dropped}
    out.write_text(json.dumps(old) + "\n")

    again = sweep()
    assert not again["cached"]
    assert again == first
    assert sweep()["cached"]


def test_record_of_other_oracle_version_is_evaluated_afresh(monkeypatch, tmp_path):
    monkeypatch.setattr(
        catalog, "builtin_catalog", lambda max_order: [CatalogEntry("C3xC3")]
    )
    out = tmp_path / "results.jsonl"

    def sweep() -> dict:
        (record,) = run_catalog(max_order=9, cap=5, out_path=out)
        return record

    first = sweep()
    assert sweep()["cached"]
    monkeypatch.setattr(catalog, "ORACLE_VERSION", catalog.ORACLE_VERSION + 1)
    again = sweep()
    assert not again["cached"]
    assert again["content_hash"] != first["content_hash"]


def test_record_of_other_schema_version_is_evaluated_afresh(monkeypatch, tmp_path):
    monkeypatch.setattr(
        catalog, "builtin_catalog", lambda max_order: [CatalogEntry("C3xC3")]
    )
    out = tmp_path / "results.jsonl"

    def sweep() -> dict:
        (record,) = run_catalog(max_order=9, cap=5, out_path=out)
        return record

    first = sweep()
    assert sweep()["cached"]
    monkeypatch.setattr(catalog, "SCHEMA_VERSION", catalog.SCHEMA_VERSION + 1)
    again = sweep()
    assert not again["cached"]
    assert again["content_hash"] != first["content_hash"]
    assert again["schema_version"] == first["schema_version"] + 1


def test_cayley_cache_key_ignores_the_directory(tmp_path):
    # the key holds the table's file name and bytes, not the checkout path
    budget = SearchBudget(cap=4)
    keys = []
    for folder in ("one", "two"):
        (tmp_path / folder).mkdir()
        table = tmp_path / folder / "group.json"
        shutil.copy(bundled_cayley_path("s3"), table)
        keys.append(catalog._content_hash(f"cayley:{table}", 4, budget))
    assert keys[0] == keys[1]
    shutil.copy(bundled_cayley_path("q8"), tmp_path / "two" / "group.json")
    edited = catalog._content_hash(f"cayley:{tmp_path / 'two' / 'group.json'}", 4, budget)
    assert edited != keys[0]
