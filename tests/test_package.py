"""The installed package stands alone: no test code, and no oracle, inside it.

The check runs in a fresh interpreter with ``-I -S`` (no site-packages, no
environment paths) and only ``src`` put on ``sys.path``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from helpers import DATA

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

#: test oracles that once shipped in the library, by the module that held them
MOVED = {
    "falkkit.patterns": (
        "biased_isomorphic", "_isomorphic_profiles", "_edge_bijection_matches", "_pair",
        "induced_subgraph",
    ),
    "falkkit.arrangement": ("dependent_3sets",),
    "falkkit.graphs": ("circle_from_edges",),
    "falkkit.falk": ("random_switching",),
}

PROBE = """
import contextlib, importlib, io, json, sys
src, tests, graph, moved = sys.argv[1], sys.argv[2], sys.argv[3], json.loads(sys.argv[4])
sys.path.insert(0, src)
import falkkit
from falkkit.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["report", graph, "--json"])
loaded = sorted(
    name for name, module in sys.modules.items()
    if name in ("helpers", "conftest") or name.split(".")[0] in ("pytest", "_pytest")
    or str(getattr(module, "__file__", None) or "").startswith(tests)
)
present = sorted(
    f"{module}.{name}" for module, names in moved.items() for name in names
    if hasattr(importlib.import_module(module), name) or hasattr(falkkit, name)
)
print(json.dumps({
    "code": code,
    "stdout": out.getvalue(),
    "loaded": loaded,
    "unresolved": [name for name in falkkit.__all__ if not hasattr(falkkit, name)],
    "present": present,
    "path": [p for p in sys.path if p.startswith(tests)],
}))
"""


def test_package_runs_without_tests_and_without_moved_oracles():
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE,
         str(SRC), str(TESTS), str(DATA / "final_example.gg"), json.dumps(MOVED)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    got = json.loads(result.stdout)
    golden = json.loads((DATA / "golden_report.json").read_text(encoding="utf-8"))
    assert got["code"] == 0
    assert got["stdout"] == golden["report final_example.gg --json"]["stdout"]
    assert got["loaded"] == []
    assert got["unresolved"] == []
    assert got["present"] == []
    assert got["path"] == []
