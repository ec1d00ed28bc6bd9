"""Every subcommand, plain and ``--json``, on every bundled graph, byte for byte.

``phi3`` runs with each ``--method`` too, so the census-only and rank-only
gates and outputs are pinned as well as the default.

``data/golden_report.json`` holds stdout, stderr and the exit code of each
run, recorded with the graph file named relative to ``data/`` so that error
messages do not depend on where the checkout lives.  Changes that promise
identical output are checked against it.  To record it again after an
intended output change::

    PYTHONPATH=src python tests/test_golden_report.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from helpers import DATA

GOLDEN = DATA / "golden_report.json"
SUBCOMMANDS = ("check", "triangles", "counts", "phi3", "realize", "rank-f3", "report")
FORMS = tuple((name,) for name in SUBCOMMANDS) + tuple(
    ("phi3", "--method", method) for method in ("comb", "rank")
)
COMMANDS = tuple((*form, *flags) for form in FORMS for flags in ((), ("--json",)))


def run_all() -> dict:
    from falkkit.cli import main

    outputs = {}
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        for path in sorted(DATA.glob("*.gg")):
            for command in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command[0], path.name, *command[1:]])
                key = " ".join((command[0], path.name, *command[1:]))
                outputs[key] = {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}
    finally:
        os.chdir(cwd)
    return outputs


def test_report_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all()
    assert sorted(got) == sorted(golden)
    for key, expected in golden.items():
        assert got[key] == expected, key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
