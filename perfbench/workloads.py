"""The benchmark's workloads: suite configs, their seeded generation, and item keys.

Each ``workloads/<name>.json`` holds a one-line ``why`` and a list of suite
configs, given inline (``config``) or as a path to a config shipped with the
program (``path``, relative to the checkout root).  ``matrix_names`` and
``pair_names`` name the config's matrices and ideal pairs for the
expected-answer table.  A run's seed replaces ``cfg.seed`` (the draw of the
random AP unions in ``regularity.default_family``) when the run is generated;
the program only ever sees the generated config.  Seed 0 reproduces the
shipped configs byte for byte.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
NAMES = ("bundled", "checks", "compose", "experiments")


def load(name: str) -> dict:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
    return json.loads((HERE / "workloads" / f"{name}.json").read_text())


def generate(name: str, seed: int, root: Path) -> list[dict]:
    """The workload's suite entries for one run: name, matrix/pair names and config."""
    entries = []
    for entry in load(name)["configs"]:
        if "path" in entry:
            config = json.loads((root / entry["path"]).read_text())
        else:
            config = copy.deepcopy(entry["config"])
        config.setdefault("cfg", {})["seed"] = seed
        entries.append(
            {
                "name": entry["name"],
                "matrix_names": entry["matrix_names"],
                "pair_names": entry["pair_names"],
                "config": config,
            }
        )
    return entries


def item_keys(entry: dict) -> list[str]:
    """Keys of the suite's items in ``harness.run_suite`` declaration order:
    matrices, then ideal pairs, then theorems followed by the experiment."""
    config = entry["config"]
    tasks = list(config.get("theorems", []))
    if config.get("core_equality"):
        tasks.append("experiment")
    return [
        f"{entry['name']}/{matrix}/{pair}/{task}"
        for matrix in entry["matrix_names"]
        for pair in entry["pair_names"]
        for task in tasks
    ]
