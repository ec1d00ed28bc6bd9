"""Every subcommand, plain and ``--json``, on every bundled graph, byte for byte.

``phi3`` runs with each ``--method`` too, so the census-only and rank-only
gates and outputs are pinned as well as the default.  Every file that
parses gives the same bytes with its edge lines reversed or shuffled.

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
import random

import pytest

from falkkit.graphs import GraphFormatError, parse
from helpers import DATA, reorder_edge_lines

GOLDEN = DATA / "golden_report.json"
SUBCOMMANDS = ("check", "triangles", "counts", "phi3", "realize", "rank-f3", "report")
FORMS = tuple((name,) for name in SUBCOMMANDS) + tuple(
    ("phi3", "--method", method) for method in ("comb", "rank")
)
COMMANDS = tuple((*form, *flags) for form in FORMS for flags in ((), ("--json",)))


def run_all(directory=DATA) -> dict:
    from falkkit.cli import main

    outputs = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for path in sorted(directory.glob("*.gg")):
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


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_edge_line_order_keeps_every_output_byte(tmp_path, order):
    """Each graph file that parses, its edge lines reordered under its own name."""
    rng = random.Random(order)
    moves = {"reversed": lambda ls: ls[::-1], "shuffled": lambda ls: rng.sample(ls, len(ls))}
    written = set()
    for path in sorted(DATA.glob("*.gg")):
        text = path.read_text(encoding="utf-8")
        try:
            parse(text)
        except GraphFormatError:  # its error names a line, which the order moves
            continue
        (tmp_path / path.name).write_text(reorder_edge_lines(text, moves[order]), encoding="utf-8")
        written.add(path.name)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert len(written) >= 9
    assert sorted(got) == sorted(key for key in golden if key.split()[1] in written)
    for key, output in got.items():
        assert output == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
