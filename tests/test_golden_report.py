"""Every subcommand, plain and ``--json``, on every bundled graph, byte for byte.

``phi3`` runs with each ``--method`` too, so the census-only and rank-only
gates and outputs are pinned as well as the default.  Every file that
parses gives the same bytes with its edge lines reversed or shuffled, and
the files below give them with every gain spelled another way: the
reduced gain is all a graph holds of it.

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
from fractions import Fraction

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


#: each other spelling of a gain p/q, reduced with q > 0: both terms times
#: k, each integer with its sign written out, and the denominator written
#: even when it is 1
SPELLINGS = {
    "times2": lambda p, q: f"{2 * p}/{2 * q}",
    "times3": lambda p, q: f"{3 * p}/{3 * q}",
    "signed": lambda p, q: f"{p:+d}" + (f"/+{q}" if q != 1 else ""),
    "over1": lambda p, q: f"{p}/{q}",
}


def respelled(text: str, spell) -> str:
    """``text`` with the gain of every edge line written by ``spell``."""
    lines = []
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["edge"]:
            gain = Fraction(fields[4])
            line = " ".join([*fields[:4], spell(gain.numerator, gain.denominator)])
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_gain_spelling_keeps_every_output_byte(tmp_path, spelling):
    names = ("type_d4.gg", "final_example.gg", "b2.gg", "gcirc.gg")
    for name in names:
        text = (DATA / name).read_text(encoding="utf-8")
        other = respelled(text, SPELLINGS[spelling])
        assert other != text  # each file has an integer gain and a positive one
        (tmp_path / name).write_text(other, encoding="utf-8")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_all(tmp_path)
    assert sorted(got) == sorted(key for key in golden if key.split()[1] in names)
    for key, output in got.items():
        assert output == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_all(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
