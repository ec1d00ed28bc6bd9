"""The installed package stands alone: no test code, and no oracle, inside it.

The check runs in a fresh interpreter with ``-I -S`` (no site-packages, no
environment paths) and only ``src`` put on ``sys.path``.  Neither the
import nor the run may load ``random``: only the test-data generators use it.
The modules are layered: the census and the rank route are siblings that
meet only in :mod:`falkkit.falk`.
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

from helpers import DATA

SRC = Path(__file__).resolve().parents[1] / "src"
TESTS = Path(__file__).resolve().parent

#: test oracles and test-data generators that once shipped in the library
#: (among them the full eliminations the rank route's closed forms replaced),
#: the circle model no computation needed, the entry points folded into
#: one (the rank route's into :func:`falkkit.exterior.rank_fields`), and the
#: hypothesis gate, now :meth:`falkkit.graphs.ValidationReport.require`, by
#: the module that held them
MOVED = {
    "falkkit.patterns": (
        "biased_isomorphic", "_isomorphic_profiles", "_edge_bijection_matches", "_pair",
        "induced_subgraph", "_BiasProfile", "_bias_profile", "find_occurrences",
        "_occurrences", "_carries_triangles", "require_hypotheses",
    ),
    "falkkit.arrangement": ("dependent_3sets",),
    "falkkit.graphs": (
        "circle_from_edges", "Circle", "CircleError", "circle_gain", "is_balanced",
        "switch", "random_gain_graph", "RANDOM_GAINS", "GainGraph.with_reversed_edge",
        "Edge.reversed",
    ),
    "falkkit.falk": ("random_switching", "dim_I3_2_closed_form", "RankFields", "_rank_route"),
    "falkkit.exterior": (
        "boundary3", "boundary2", "pair_vector", "wedge1", "_check_increasing", "_ONE",
        "dim_I2", "span_F3", "_boundary_rows", "_wedge_rows", "flats", "_triples",
        "_global_rows", "_Checked", "_checked", "dim_A2", "dim_I3_2", "f3_size_and_rank",
    ),
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
    if name in ("helpers", "conftest", "random") or name.split(".")[0] in ("pytest", "_pytest")
    or str(getattr(module, "__file__", None) or "").startswith(tests)
)
def has(obj, dotted):
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True
present = sorted(
    f"{module}.{name}" for module, names in moved.items() for name in names
    if has(importlib.import_module(module), name) or has(falkkit, name)
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


def test_the_package_name_arrangement_is_the_module():
    import falkkit
    import falkkit.arrangement as module

    assert module.MAX_NORMAL_ENTRIES == 10**6
    assert module.arrangement.__module__ == "falkkit.arrangement"
    assert "arrangement" not in falkkit.__all__


def test_the_circle_enumerator_is_not_exported():
    # no computation reads it; the pattern atlas and the tests take it from
    # falkkit.graphs
    import falkkit
    import falkkit.graphs

    assert "all_circles_small" not in falkkit.__all__
    assert not hasattr(falkkit, "all_circles_small")
    assert callable(falkkit.graphs.all_circles_small)


def relative_imports(module: str) -> set[str]:
    """The falkkit modules that ``src/falkkit/<module>.py`` imports."""
    tree = ast.parse((SRC / "falkkit" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_the_census_and_the_rank_route_import_only_graphs():
    # the gate, the refusal and the flat type live in graphs, so neither
    # route, nor the realization, reads the other
    for module in ("patterns", "exterior", "arrangement"):
        assert relative_imports(module) == {"graphs"}, module
    assert "patterns" not in relative_imports("cli")
    assert relative_imports("falk") >= {"graphs", "patterns", "exterior"}
