"""Recompute the golden outputs and, run as a script, rewrite their digests.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it on purpose only: `tests/test_golden.py` compares the tree against
`digests.json`, and a change that alters a digest says which one and
why in CHANGES.md.  The outputs are

- each experiment report, as canonical JSON (sorted keys, ``meta``
  dropped), and its CSV, for seeds 0-2 under both enumerations;
- the stdout and exit status of every ``wbslab`` line of the README's
  CLI tour, run in order through `wbslab.cli.main` in an empty
  directory holding CI's ``space.json`` (the points 0..9 on a line) and
  ``field.json`` (i mod 3 at point i);
- the certificate and exit status of ``wbslab cesaro certify`` for each
  rule of CESARO_CALLS at each of its N, under both enumerations.  The
  witness ranks run to over 1000 digits at N = 1024 and to 109,570
  digits for ``geometric:1,2`` at N = 4, its largest certifiable N.

Each entry holds the sha256 of the output's text and, for JSON, an
outline: the document's shape with every scalar, and every container of
scalars only, replaced by a short digest.  A mismatch is located by
walking two outlines, so the test names the first differing JSON path.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

from wbslab.cli import main
from wbslab.experiments import EXPERIMENT_NAMES, ExperimentConfig, run_experiment
from wbslab.schreier import ENUMERATION_NAMES

ROOT = Path(__file__).resolve().parents[2]
DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = (0, 1, 2)
CESARO_CALLS = {
    **{rule: (1, 2, 3, 17, 128, 1024) for rule in ("identity", "affine:1,0", "affine:2,3", "random:7,3")},
    "geometric:1,2": (1, 2, 3, 4),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def outline(node):
    """node's shape, down to its containers of scalars, with short digests as leaves."""
    if isinstance(node, dict) and any(isinstance(v, (dict, list)) for v in node.values()):
        return {key: outline(value) for key, value in node.items()}
    if isinstance(node, list) and any(isinstance(v, (dict, list)) for v in node):
        return [outline(value) for value in node]
    return sha256(canonical(node))[:8]


def first_difference(want, got, path: str = "$") -> str | None:
    """The first JSON path, in sorted-key order, where two outlines differ."""
    if want == got:
        return None
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        children = ((f"{path}.{key}", want[key], got[key]) for key in sorted(want))
    elif isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        children = ((f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(want, got)))
    else:
        return path
    for child, a, b in children:
        found = first_difference(a, b, child)
        if found:
            return found
    return path


def json_entry(text: str) -> dict:
    return {"sha256": sha256(text), "outline": outline(json.loads(text))}


def experiment_entries(enumeration: str, seed: int) -> dict[str, dict]:
    """The JSON and CSV report of each suite at one enumeration and seed."""
    entries = {}
    with tempfile.TemporaryDirectory() as out:
        config = ExperimentConfig(seed=seed, enumeration=enumeration, out_dir=Path(out))
        for name in EXPERIMENT_NAMES:
            run_experiment(name, config)
            report = json.loads((Path(out) / f"{name}.json").read_text())
            report.pop("meta")
            key = f"experiment/{enumeration}/seed={seed}/{name}"
            entries[f"{key}.json"] = json_entry(canonical(report))
            entries[f"{key}.csv"] = {"sha256": sha256((Path(out) / f"{name}.csv").read_text())}
    return entries


def tour_lines() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## CLI tour", 1)[1].split("\n## ", 1)[0]
    return [line for line in tour.splitlines() if line.startswith("wbslab ")]


def cli_entry(argv: list[str]) -> dict:
    """The exit status and stdout of one in-process CLI call; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return {"status": status, **json_entry(out.getvalue())}


def cesaro_entries(enumeration: str) -> dict[str, dict]:
    """The certificate of each call in CESARO_CALLS under one enumeration."""
    return {
        f"cesaro/{enumeration}/{rule}/N={N}": cli_entry(
            ["cesaro", "certify", "--subsequence", rule, "--N", str(N), "--enumeration", enumeration]
        )
        for rule, sizes in CESARO_CALLS.items()
        for N in sizes
    }


def tour_entries() -> dict[str, dict]:
    """Each tour line's exit status and stdout, run in order in one directory."""
    entries = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("space.json").write_text(json.dumps({"points": [[i] for i in range(10)]}))
            Path("field.json").write_text(json.dumps([i % 3 for i in range(10)]))
            for line in tour_lines():
                entries[f"tour/{line}"] = cli_entry(shlex.split(line, comments=True)[1:])
        finally:
            os.chdir(cwd)
    return entries


def all_entries() -> dict[str, dict]:
    entries = tour_entries()
    for enumeration in ENUMERATION_NAMES:
        entries.update(cesaro_entries(enumeration))
        for seed in SEEDS:
            entries.update(experiment_entries(enumeration, seed))
    return entries


def write(entries: dict[str, dict]) -> None:
    """One entry per line, so a diff names the outputs that changed."""
    lines = (f"{json.dumps(key)}: {canonical(entries[key])}" for key in sorted(entries))
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    write(all_entries())
    print(f"wrote {DIGESTS}")
