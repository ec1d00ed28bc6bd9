"""The exit-code contract on seeded mutants of the graph files in ``data/``.

Every subcommand, plain and ``--json``, runs in-process through
:func:`falkkit.cli.main` on each mutant.  The exit code is 0, 1 or 2 with no
traceback: on 2, stderr starts ``falkkit: error:``; on 1, it starts
``falkkit: refused:``; on 0 with ``--json``, stdout is the text that
``json.dumps(..., indent=2)`` gives back for it.

*Malformed* mutants edit the text: they delete, duplicate or swap lines,
replace, insert or delete tokens from :data:`TOKENS`, and end the lines with
CR or CRLF.  Most of them no longer parse.  *Valid* mutants edit the edge
list of a file that parses, or of a :func:`~falkkit.graphs.serialize` copy
of K_5, D_4 or B_3 (:data:`FAMILIES`), and write it out again: a new gain
from :data:`GAINS`, an edge reversed with its gain inverted, an edge
deleted or added, the ids renumbered.  They always parse, so none of them
exits 2.  Where ``report --json`` answers a valid mutant, ``phi3 --method
rank`` and ``rank-f3 --json`` must give the report's phi_3 and F3 numbers,
the census must equal the rank route wherever it runs, and a scrambled copy
(:func:`helpers.scrambled`: switched, reversed and renumbered) must report
the same phi_3.

A mutant that breaks the contract or disagrees is kept, as a file in
``data/`` or as a strict xfail that names it; it is never dropped from the
seed.

*Fuzzed argument lists* hold zero to five tokens from :data:`ARGV_POOL`.  A
usage error raises ``SystemExit(2)`` from argparse with a ``usage:`` line
and a last line from the top-level parser or a subcommand's; ``-h`` raises
``SystemExit(0)``; every other request returns its exit code from
:func:`~falkkit.cli.main`.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from falkkit.cli import main
from falkkit.graphs import GraphFormatError, parse, serialize
from helpers import DATA, braid, scrambled, type_b, type_d
from test_golden_report import SUBCOMMANDS

SEED = 19
MIXED_PER_FILE = 16
VALID_PER_FILE = 25
ARGV_LISTS = 400

PATHS = sorted(DATA.glob("*.gg"))


def parses(path) -> bool:
    try:
        parse(path.read_text(encoding="utf-8"))
    except GraphFormatError:
        return False
    return True


#: small members of the families, written out by serialize from their edges
FAMILIES = {"family_k5.gg": braid(5), "family_d4.gg": type_d(4), "family_b3.gg": type_b(3)}
#: the name and text of each source of valid mutants
VALID_SOURCES = [(path.name, path.read_text(encoding="utf-8")) for path in PATHS if parses(path)]
VALID_SOURCES += [(name, serialize(g)) for name, g in FAMILIES.items()]
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


def contract_violations(capsys, path, valid: bool) -> tuple[list[str], dict]:
    """What in the answers to :data:`REQUESTS` breaks the contract, and the
    exit code and stdout of each request."""
    found = []
    answers = {}
    for request in REQUESTS:
        code = main([request[0], str(path), *request[1:]])
        out, err = capsys.readouterr()
        answers[request] = code, out
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
    return found, answers


def disagreements(capsys, path, answers: dict, rng: random.Random) -> list[str]:
    """Where ``report --json`` exits 0: ``phi3 --method rank`` and
    ``rank-f3 --json`` give its ``phi3.rank`` and ``dims.span_F3_*``, the
    census equals the rank route wherever it runs, and a scrambled copy
    (:func:`helpers.scrambled`) reports the same ``phi3``."""
    code, out = answers[("report", "--json")]
    if code != 0:
        return []
    report = json.loads(out)
    phi3, dims = report["phi3"], report["dims"]
    found = []
    main(["phi3", str(path), "--method", "rank"])
    out = capsys.readouterr().out
    if out != ("" if phi3["rank"] is None else f"rank: {phi3['rank']}\n"):
        found.append(f"phi3 --method rank printed {out!r}, report has {phi3['rank']}")
    code, out = answers[("rank-f3", "--json")]
    f3 = json.loads(out)["f3"] if code == 0 else None
    if f3 != (dims and {"size": dims["span_F3_size"], "rank": dims["span_F3_rank"]}):
        found.append(f"rank-f3 --json gave {f3}, report has {dims}")
    if None not in (phi3["comb"], phi3["rank"]) and phi3["comb"] != phi3["rank"]:
        found.append(f"the census gives {phi3['comb']}, the rank route {phi3['rank']}")
    copy = path.with_name("scrambled.gg")
    g = scrambled(parse(path.read_text(encoding="utf-8")), rng)
    copy.write_text(serialize(g), encoding="utf-8")
    code = main(["report", str(copy), "--json"])
    got = json.loads(capsys.readouterr().out)["phi3"] if code == 0 else f"exit {code}"
    if got != phi3:
        found.append(f"a scrambled copy gives {got}, the mutant {phi3}")
    return found


def check_mutants(capsys, tmp_path, name, mutants) -> None:
    """The contract on every mutant of the source ``name``, and
    :func:`disagreements` on the valid ones, each with its own seeded
    scrambling."""
    path = tmp_path / name
    failures = []
    for index, (text, valid) in enumerate(mutants):
        path.write_text(text, encoding="utf-8")
        violations, answers = contract_violations(capsys, path, valid)
        if valid:
            rng = random.Random(f"{SEED}:scrambled:{name}:{index}")
            violations += disagreements(capsys, path, answers, rng)
        for violation in violations:
            failures.append(f"mutant {index} {text[:300]!r}: {violation}")
    assert not failures, "\n".join(failures[:10])


@pytest.mark.parametrize("shift, source", enumerate(PATHS), ids=[p.stem for p in PATHS])
def test_malformed_mutants_keep_the_exit_code_contract(capsys, tmp_path, shift, source):
    rng = random.Random(f"{SEED}:malformed:{source.name}")
    text = source.read_text(encoding="utf-8")
    mutants = [(mutant, False) for mutant in malformed_mutants(text, rng, shift)]
    check_mutants(capsys, tmp_path, source.name, mutants)


@pytest.mark.parametrize(
    "name, text", VALID_SOURCES, ids=[name.removesuffix(".gg") for name, _ in VALID_SOURCES]
)
def test_valid_mutants_keep_the_exit_code_contract(capsys, tmp_path, name, text):
    rng = random.Random(f"{SEED}:valid:{name}")
    num_vertices, edges = edge_list(text)
    mutants = [(valid_mutant(num_vertices, edges, rng), True) for _ in range(VALID_PER_FILE)]
    check_mutants(capsys, tmp_path, name, mutants)


#: what a fuzzed argument list is drawn from
ARGV_POOL = (
    *SUBCOMMANDS,
    "--json",
    "--method",
    "--method=",
    "rank",
    "nope",
    "-h",
    "--",
    str(DATA / "final_example.gg"),
    str(DATA / "no_such_file.gg"),
    "-x",
)


def argv_violation(capsys, argv: list[str]) -> tuple[str, str | None]:
    """How the request ``argv`` ended, and what in it breaks the contract."""
    try:
        code = main(argv)
        ended = f"exit {code}"
    except SystemExit as exc:
        code = exc.code
        ended = f"SystemExit({code})"
    out, err = capsys.readouterr()
    lines = err.splitlines()
    if "Traceback" in err or code not in (0, 1, 2):
        return ended, "a traceback or another exit code"
    if ended == "SystemExit(2)":
        prog, sep, _ = lines[-1].partition(": error: ") if lines else ("", "", "")
        progs = {"falkkit", *(f"falkkit {name}" for name in SUBCOMMANDS)}
        if out or not any(line.startswith("usage:") for line in lines):
            return ended, "output, or no usage line"
        if not (sep and prog in progs):
            return ended, f"last line {lines[-1]!r}"
    elif ended == "SystemExit(0)":
        if err or not out.startswith("usage: falkkit"):
            return ended, "no help on stdout"
    elif code == 2 and (out or not err.startswith("falkkit: error:")):
        return ended, "an input error without its message"
    elif code == 1 and (out or not err.startswith("falkkit: refused:")):
        return ended, "a refusal without its message"
    elif code == 0 and err:
        return ended, "output on stderr"
    return ended, None


def test_fuzzed_argument_lists_keep_the_exit_code_contract(capsys):
    rng = random.Random(f"{SEED}:argv")
    seen = Counter()
    failures = []
    for _ in range(ARGV_LISTS):
        argv = [rng.choice(ARGV_POOL) for _ in range(rng.randint(0, 5))]
        ended, violation = argv_violation(capsys, argv)
        seen[ended] += 1
        if violation:
            failures.append(f"{argv}: {ended}, {violation}")
    assert not failures, "\n".join(failures[:10])
    # the seed reaches usage errors, help, a missing file and a computation
    assert {"SystemExit(2)", "SystemExit(0)", "exit 2", "exit 0"} <= set(seen), seen
