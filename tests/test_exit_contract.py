"""The exit-code contract on seeded mutants of the graph files in ``data/``.

Every subcommand, plain and ``--json``, runs in-process through
:func:`falkkit.cli.main` on each mutant.  The exit code is 0, 1 or 2 with no
traceback: on 2, stderr starts ``falkkit: error:``; on 1, it starts
``falkkit: refused:``; on 0 with ``--json``, stdout is the text that
``json.dumps(..., indent=2)`` gives back for it.

*Malformed* mutants edit the text: they delete, duplicate or swap lines,
replace, insert or delete tokens from :data:`TOKENS`, and end the lines with
CR or CRLF.  Most of them no longer parse.  *Valid* mutants edit the edge
list and write it out again: a new gain from :data:`GAINS`, an edge reversed
with its gain inverted, an edge deleted or added, the ids renumbered.  They
always parse, so none of them exits 2.

A mutant that breaks the contract is kept, as a file in ``data/`` or as a
strict xfail that names it; it is never dropped from the seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from falkkit.cli import main
from falkkit.graphs import GraphFormatError, parse
from helpers import DATA
from test_golden_report import SUBCOMMANDS

SEED = 19
MIXED_PER_FILE = 16
VALID_PER_FILE = 25

PATHS = sorted(DATA.glob("*.gg"))


def parses(path) -> bool:
    try:
        parse(path.read_text(encoding="utf-8"))
    except GraphFormatError:
        return False
    return True


VALID_SOURCES = [path for path in PATHS if parses(path)]
REQUESTS = [(name, *flags) for name in SUBCOMMANDS for flags in ((), ("--json",))]

#: what a malformed mutant puts in place of a token, or into a line
TOKENS = (
    "0",
    "-1",
    "-",
    "+",
    "1" + "0" * 4999,
    "1/0",
    "1/-2",
    "0/3",
    "\x00",
    "\ufeff",  # byte-order mark
    "\u2028",  # LINE SEPARATOR
    "\v",
    "1_0",
    "\uff11",  # FULLWIDTH DIGIT ONE
)

#: the gains a valid mutant writes: nonzero, so every mutant parses
GAINS = tuple(map(Fraction, ("1", "-1", "2", "-2", "3", "1/2", "-1/3", "3/2", "-5/7")))


def malformed_mutants(text: str, rng: random.Random, shift: int) -> list[str]:
    """Each token of :data:`TOKENS` in place of a field of an edge line (the
    header where there is none) and inserted at a random place, then
    :data:`MIXED_PER_FILE` mutants of one to three random edits each.

    Token ``t`` replaces field ``(t + shift) % 5``, so over five files of
    shifts 0-4 every token takes the place of every field of an edge line.
    """
    lines = text.split("\n")
    edges = [i for i, line in enumerate(lines) if line.startswith("edge ")]
    targets = edges or [i for i, line in enumerate(lines) if line.startswith("graph ")]
    mutants = []
    for t, token in enumerate(TOKENS):
        i = rng.choice(targets)
        fields = lines[i].split(" ")
        fields[(t + shift) % len(fields)] = token
        mutants.append("\n".join(lines[:i] + [" ".join(fields)] + lines[i + 1 :]))
        i = rng.randrange(len(lines))
        k = rng.randint(0, len(lines[i]))
        line = lines[i][:k] + token + lines[i][k:]
        mutants.append("\n".join(lines[:i] + [line] + lines[i + 1 :]))
    return mutants + [mixed_mutant(lines, rng) for _ in range(MIXED_PER_FILE)]


def mixed_mutant(lines: list[str], rng: random.Random) -> str:
    lines = list(lines)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(7)
        i = rng.randrange(len(lines))
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 3:  # replace a token
            fields = lines[i].split(" ")
            fields[rng.randrange(len(fields))] = rng.choice(TOKENS)
            lines[i] = " ".join(fields)
        elif op == 4:  # insert anywhere in the line, within a token or between two
            k = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:k] + rng.choice(TOKENS) + lines[i][k:]
        elif op == 5:  # delete a token
            fields = lines[i].split(" ")
            del fields[rng.randrange(len(fields))]
            lines[i] = " ".join(fields)
        else:
            return rng.choice(("\r", "\r\n")).join(lines)
        if not lines:
            lines = [""]
    return "\n".join(lines)


def edge_list(text: str) -> tuple[int, list[tuple[int, int, Fraction]]]:
    """The vertex count and the (tail, head, gain) of each edge, by id."""
    num_vertices, edges = 0, {}
    for line in text.splitlines():
        fields = line.split()
        if fields[:1] == ["graph"]:
            num_vertices = int(fields[1])
        elif fields[:1] == ["edge"]:
            edge_id, tail, head = map(int, fields[1:4])
            edges[edge_id] = (tail, head, Fraction(fields[4]))
    return num_vertices, [edges[i] for i in sorted(edges)]


def valid_mutant(num_vertices: int, edges: list, rng: random.Random) -> str:
    edges = list(edges)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5) if edges else 3
        i = rng.randrange(len(edges)) if edges else 0
        if op == 0:
            tail, head, _ = edges[i]
            edges[i] = (tail, head, rng.choice(GAINS))
        elif op == 1:
            tail, head, gain = edges[i]
            edges[i] = (head, tail, 1 / gain)
        elif op == 2:
            del edges[i]
        elif op == 3:
            ends = (rng.randint(1, num_vertices), rng.randint(1, num_vertices))
            edges.append((*ends, rng.choice(GAINS)))
        else:
            rng.shuffle(edges)
    lines = [f"graph {num_vertices}"]
    lines += [f"edge {i} {t} {h} {g}" for i, (t, h, g) in enumerate(edges, start=1)]
    return "\n".join(lines) + "\n"


def contract_violations(capsys, path, valid: bool) -> list[str]:
    found = []
    for request in REQUESTS:
        code = main([request[0], str(path), *request[1:]])
        out, err = capsys.readouterr()
        if code == 0:
            problem = err != "" or (
                "--json" in request and out != json.dumps(json.loads(out), indent=2) + "\n"
            )
        elif code == 1:
            problem = out != "" or not err.startswith("falkkit: refused:")
        elif code == 2:
            problem = valid or out != "" or not err.startswith("falkkit: error:")
        else:
            problem = True
        if problem or "Traceback" in err:
            found.append(f"{' '.join(request)}: exit {code}, stderr {err[:200]!r}")
    return found


def check_mutants(capsys, tmp_path, source, mutants) -> None:
    path = tmp_path / source.name
    failures = []
    for index, (text, valid) in enumerate(mutants):
        path.write_text(text, encoding="utf-8")
        for violation in contract_violations(capsys, path, valid):
            failures.append(f"mutant {index} {text[:300]!r}: {violation}")
    assert not failures, "\n".join(failures[:10])


@pytest.mark.parametrize("shift, source", enumerate(PATHS), ids=[p.stem for p in PATHS])
def test_malformed_mutants_keep_the_exit_code_contract(capsys, tmp_path, shift, source):
    rng = random.Random(f"{SEED}:malformed:{source.name}")
    text = source.read_text(encoding="utf-8")
    mutants = [(mutant, False) for mutant in malformed_mutants(text, rng, shift)]
    check_mutants(capsys, tmp_path, source, mutants)


@pytest.mark.parametrize("source", VALID_SOURCES, ids=lambda p: p.stem)
def test_valid_mutants_keep_the_exit_code_contract(capsys, tmp_path, source):
    rng = random.Random(f"{SEED}:valid:{source.name}")
    num_vertices, edges = edge_list(source.read_text(encoding="utf-8"))
    mutants = [(valid_mutant(num_vertices, edges, rng), True) for _ in range(VALID_PER_FILE)]
    check_mutants(capsys, tmp_path, source, mutants)
