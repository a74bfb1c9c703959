"""Numpy-free argument helpers shared by the CLI parser and the library.

The CLI builds its parser from these names before it knows which action
runs, so they live apart from the array modules that only some actions
load.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["EXPERIMENT_NAMES", "existing_file", "load_json"]

# The suites ``experiments.run_experiment`` runs, in run order.
EXPERIMENT_NAMES = ("cesaro-suite", "sandwich-suite", "isometry-suite")


def load_json(source):
    """Parse the file source names if it exists, else source as JSON text."""
    path = existing_file(source)
    return json.loads(path.read_text() if path else str(source))


def existing_file(source) -> Path | None:
    """The path source names if it is a regular file, else None (inline text)."""
    try:
        return Path(source) if Path(source).is_file() else None
    except OSError:  # ENAMETOOLONG: inline JSON or a number list, not a path
        return None
