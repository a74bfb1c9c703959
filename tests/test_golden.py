"""Experiment reports, the README tour and Cesaro certificates against their committed digests.

The digests in `golden/digests.json` are rewritten only on purpose, by
`golden/regenerate.py`; see its docstring for what they cover.
"""

import json

import pytest

from golden.regenerate import (
    DIGESTS, ENUMERATION_NAMES, SEEDS, cesaro_entries, experiment_entries, first_difference, outline,
    tour_entries,
)

GOLDEN = json.loads(DIGESTS.read_text())


def assert_matches_golden(entries: dict[str, dict]) -> None:
    for key, got in entries.items():
        assert key in GOLDEN, f"no golden digest for {key}"
        want = GOLDEN[key]
        assert got.get("status") == want.get("status"), f"{key}: exit status {got.get('status')}"
        if got["sha256"] != want["sha256"]:
            where = "the CSV text"
            if "outline" in want:
                where = first_difference(want["outline"], got["outline"]) or "the text, not the JSON"
            pytest.fail(f"{key} differs from its golden output, first at {where}")


@pytest.mark.parametrize("enumeration", ENUMERATION_NAMES)
@pytest.mark.parametrize("seed", SEEDS)
def test_experiment_reports_match_golden(enumeration, seed):
    assert_matches_golden(experiment_entries(enumeration, seed))


def test_readme_tour_matches_golden():
    entries = tour_entries()
    assert_matches_golden(entries)
    missing = {key for key in GOLDEN if key.startswith("tour/")} - set(entries)
    assert not missing, f"tour lines gone from the README: {sorted(missing)}"


@pytest.mark.parametrize("enumeration", ENUMERATION_NAMES)
def test_cesaro_certificates_match_golden(enumeration):
    entries = cesaro_entries(enumeration)
    assert_matches_golden(entries)
    missing = {key for key in GOLDEN if key.startswith(f"cesaro/{enumeration}/")} - set(entries)
    assert not missing, f"certificates gone from the golden set: {sorted(missing)}"


def test_first_difference_names_the_path():
    doc = {"rows": [{"a": 1, "b": [1, 2]}, {"a": 2, "b": [3]}], "ok": True}
    changed = json.loads(json.dumps(doc))
    changed["rows"][1]["b"] = [4]
    assert first_difference(outline(doc), outline(doc)) is None
    assert first_difference(outline(doc), outline(changed)) == "$.rows[1].b"
    changed["rows"].append({"a": 3, "b": []})
    assert first_difference(outline(doc), outline(changed)) == "$.rows"
