import codecs
import json
import os
import random
import shlex
import subprocess
import sys
import time
from collections import Counter
from json.encoder import encode_basestring_ascii

import pytest

from falkkit import arrangement, cli, exterior, falk, patterns
from falkkit.arrangement import MAX_NORMAL_ENTRIES
from falkkit.cli import main
from falkkit.falk import Run
from falkkit.graphs import MAX_WITNESSES, GraphTooLargeError, serialize
from falkkit.patterns import Triangle, TriangleKind
from helpers import (
    DATA,
    braid,
    doubling_triangle,
    load_graph,
    scrambled,
    seeded_graphs,
    triangulated_grid,
    type_b,
    type_d,
)
from test_golden_report import FORMS, run_all

FINAL = str(DATA / "final_example.gg")
GCIRC = str(DATA / "gcirc.gg")
SEVEN = str(DATA / "seven_edge.gg")
EMPTY = str(DATA / "empty.gg")
B2 = str(DATA / "b2.gg")
BAD = str(DATA / "bad_zero_gain.gg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_phi3_both_methods(capsys):
    code, out, _ = run(capsys, "phi3", FINAL, "--method=both")
    assert code == 0
    assert out.splitlines() == ["combinatorial: 31", "rank: 31", "agree: true"]


def test_phi3_default_method_is_both(capsys):
    code, out, _ = run(capsys, "phi3", FINAL)
    assert code == 0
    assert "agree: true" in out


def test_phi3_json(capsys):
    code, out, _ = run(capsys, "phi3", FINAL, "--json")
    assert code == 0
    assert json.loads(out)["phi3"] == {"comb": 31, "rank": 31, "agree": True}


def test_phi3_empty_graph(capsys):
    code, out, _ = run(capsys, "phi3", EMPTY)
    assert code == 0
    assert out.splitlines() == ["combinatorial: 0", "rank: 0", "agree: true"]


def test_rank_f3(capsys):
    code, out, _ = run(capsys, "rank-f3", GCIRC)
    assert code == 0
    assert out.strip() == "|F3| = 12, rank = 10"


def test_rank_f3_json(capsys):
    code, out, _ = run(capsys, "rank-f3", GCIRC, "--json")
    assert json.loads(out)["f3"] == {"size": 12, "rank": 10}


def test_check_human_and_json(capsys):
    code, out, _ = run(capsys, "check", FINAL)
    assert code == 0
    assert "H1 no B2 subgraph: pass" in out
    assert "all hypotheses: pass" in out

    code, out, _ = run(capsys, "check", B2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["hypotheses"]) == ["H1", "H2", "H3", "H4", "H5"]
    assert payload["hypotheses"]["H1"]["passed"] is False
    assert payload["hypotheses"]["H1"]["witnesses"] == [[1, 2, 3, 4]]


def test_check_caps_the_witness_lists_of_a_fourth_power_input(capsys, tmp_path):
    # 30 links between two vertices with 30 loops at each end: 91 lines,
    # C(30,2)*30*30 = 391 500 H1 and C(30,3)*60 = 243 600 H2 witnesses
    lines = ["graph 2"]
    lines += [f"edge {i} 1 2 {i + 1}" for i in range(1, 31)]
    lines += [f"edge {i} 1 1 {i}" for i in range(31, 61)]
    lines += [f"edge {i} 2 2 {i}" for i in range(61, 91)]
    path = tmp_path / "bundle.gg"
    path.write_text("\n".join(lines) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "check", str(path), "--json")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    hypotheses = json.loads(out)["hypotheses"]
    assert hypotheses["H1"]["witness_count"] == 391_500
    assert hypotheses["H2"]["witness_count"] == 243_600
    for name in ("H1", "H2"):
        assert len(hypotheses[name]["witnesses"]) == MAX_WITNESSES
    # complete lists carry no count
    assert hypotheses["H5"] == {"passed": False, "witnesses": [list(range(31, 61)), list(range(61, 91))]}
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")
    assert f"({MAX_WITNESSES} of 391500 listed)" in out
    code, out, err = run(capsys, "report", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["withheld"]["phi3_rank"] == ["H5"]


def test_triangles_output(capsys):
    code, out, _ = run(capsys, "triangles", FINAL)
    assert code == 0
    lines = out.splitlines()
    assert "{1,2,3} contrabalanced_theta" in lines
    assert "{7,8,14} tight_handcuff" in lines
    assert lines[-1] == "total: 13"

    code, out, _ = run(capsys, "triangles", FINAL, "--json")
    payload = json.loads(out)
    assert payload["n"] == 14
    assert len(payload["triangles"]) == 13
    assert payload["triangles"][0] == {"edges": [1, 2, 3], "kind": "contrabalanced_theta"}


def test_counts_output(capsys):
    code, out, _ = run(capsys, "counts", FINAL, "--json")
    assert code == 0
    assert json.loads(out)["counts"] == {
        "k3": 9, "k4": 1, "d3": 0, "d21": 2, "k22": 0, "k33": 0,
        "gcirc": 1, "d31": 0, "g1": 1, "g2": 0, "theta": 2,
    }
    code, out, _ = run(capsys, "counts", FINAL)
    assert "k3 = 9" in out and "theta = 2" in out


def test_realize_output(capsys):
    code, out, _ = run(capsys, "realize", SEVEN)
    assert code == 0
    assert out.splitlines() == [
        "H 1: 1 -1 0",
        "H 2: 1 -2 0",
        "H 3: 1 -3 0",
        "H 4: 1 0 -1",
        "H 5: 0 1 -1",
        "H 6: 0 -2 1",
        "H 7: 1 0 0",
    ]


def test_realize_json_serializes_gains_as_fractions(capsys, tmp_path):
    path = tmp_path / "half.gg"
    path.write_text("graph 2\nedge 1 1 2 1/2\n")
    code, out, _ = run(capsys, "realize", str(path), "--json")
    assert code == 0
    assert json.loads(out)["hyperplanes"] == [{"edge": 1, "normal": ["1", "-1/2"]}]


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_realize_refuses_a_huge_vertex_count(capsys, tmp_path, flags):
    path = tmp_path / "huge.gg"
    path.write_text("graph 10000000000000000000\nedge 1 1 2 3\n", encoding="utf-8")
    code, out, err = run(capsys, "realize", str(path), *flags)
    assert (code, out) == (1, "")
    assert err == (
        "falkkit: refused: realization has 10000000000000000000 * 1 normal "
        f"coefficients, more than {MAX_NORMAL_ENTRIES}\n"
    )
    # only the realization writes V coefficients per edge
    code, out, err = run(capsys, "report", str(path))
    assert (code, err) == (0, "")
    assert "phi3 rank = 0" in out


def test_report_json_schema(capsys):
    code, out, _ = run(capsys, "report", FINAL, "--json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n", "num_vertices", "hypotheses", "triangles", "counts", "dims",
        "phi3", "withheld",
    ]
    assert payload["n"] == 14
    assert payload["phi3"] == {"comb": 31, "rank": 31, "agree": True}
    assert payload["dims"]["dim_A2"] == 78
    assert payload["dims"]["dim_I3_2"] == 151
    assert payload["withheld"] == {}


def test_report_human_matches_json_values(capsys):
    _, human, _ = run(capsys, "report", FINAL)
    _, raw, _ = run(capsys, "report", FINAL, "--json")
    payload = json.loads(raw)
    assert f"phi3 combinatorial = {payload['phi3']['comb']}" in human
    assert f"phi3 rank = {payload['phi3']['rank']}" in human
    assert f"dim A^2 = {payload['dims']['dim_A2']}" in human


def test_report_on_violating_graph_never_refuses(capsys):
    code, out, _ = run(capsys, "report", B2, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] is None
    assert payload["phi3"]["comb"] is None
    assert payload["phi3"]["rank"] == 8
    assert payload["withheld"]["counts"] == ["H1"]


def test_counts_refusal_exit_code(capsys):
    code, _, err = run(capsys, "counts", B2)
    assert code == 1
    assert "refused" in err and "H1" in err


def test_phi3_method_gates(capsys):
    code, _, err = run(capsys, "phi3", B2, "--method=comb")
    assert code == 1
    code, out, _ = run(capsys, "phi3", B2, "--method=rank")
    assert code == 0
    assert out.strip() == "rank: 8"


@pytest.mark.parametrize("form", FORMS, ids=" ".join)
def test_each_request_validates_and_walks_the_flats_once(capsys, monkeypatch, pattern_atlas, form):
    # pattern_atlas: the atlas has run its own census already, so it is not counted
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the graph is walked once, for the flats; the triangles are split from them
    for module in (arrangement, cli, falk, patterns):
        for name in ("validate", "flats", "triangles"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for flags in ((), ("--json",)):
        calls.clear()
        code, _, _ = run(capsys, form[0], FINAL, *form[1:], *flags)
        assert code == 0
        assert calls["validate"] == 1 and calls["flats"] <= 1 and "triangles" not in calls, calls


def test_phi3_rank_refuses_balanced_two_circle(capsys, tmp_path):
    path = tmp_path / "h4.gg"
    path.write_text(
        "graph 3\nedge 1 1 2 2\nedge 2 1 2 2\nedge 3 2 3 1\nedge 4 1 3 2\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "phi3", str(path), "--method=rank")
    assert (code, out, err) == (1, "", "falkkit: refused: hypotheses violated: H4\n")


def test_main_builds_the_parser_once(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("main() rebuilt the argument parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run(capsys, "phi3", FINAL)
    assert code == 0
    assert out.splitlines()[-1] == "agree: true"


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "phi3", BAD)
    assert code == 2
    assert "line 2" in err and "zero gain" in err


@pytest.mark.parametrize("token", ["1_0", "\uff13", "\u0663", "1e3"])
def test_malformed_integer_exit_code(capsys, tmp_path, token):
    path = tmp_path / "bad.gg"
    path.write_text(f"graph 3\nedge 1 1 2 {token}\n", encoding="utf-8")
    code, out, err = run(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert "line 2" in err and "must be an integer" in err


# 0 where the interpreter has no limit on int-string conversion
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(INT_DIGIT_LIMIT == 0, reason="no int-string digit limit")
@pytest.mark.parametrize(
    "template, line, what",
    [
        ("graph 3\nedge 1 1 2 {big}\n", 2, "gain numerator"),
        ("graph 3\nedge 1 1 2 1/{big}\n", 2, "gain denominator"),
        ("graph {big}\nedge 1 1 2 1\n", 1, "vertex count"),
    ],
)
def test_integer_over_the_digit_limit_is_an_input_error(capsys, tmp_path, template, line, what):
    digits = INT_DIGIT_LIMIT + 1
    path = tmp_path / "big.gg"
    path.write_text(template.format(big="1" + "0" * (digits - 1)), encoding="utf-8")
    code, out, err = run(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert err == f"falkkit: error: {path}: line {line}: {what} has too many digits ({digits})\n"


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "phi3", "no-such-file.gg")
    assert code == 2
    assert "error" in err


# argparse words its messages differently across Python versions; only the
# exit code, the usage line and the "<prog>: error:" prefix are pinned
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="no-arguments"),
        pytest.param(["report"], id="no-path"),
        pytest.param(["nope", FINAL], id="unknown-subcommand"),
        pytest.param(["phi3", FINAL, "--method", "nope"], id="unknown-method"),
        pytest.param(["counts", FINAL, "--method=comb"], id="method-flag-only-on-phi3"),
        pytest.param(["report", FINAL, FINAL], id="extra-positional"),
        pytest.param(["report", FINAL, "--bogus"], id="unknown-flag"),
        pytest.param(["phi3", FINAL, "--method"], id="method-without-value"),
        pytest.param(["report", "--json"], id="json-without-path"),
        pytest.param(["report", FINAL, "--method", "rank"], id="method-on-report"),
    ],
)
def test_usage_error_exits_2_with_usage_and_error_lines(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    lines = err.splitlines()
    assert any(line.startswith("usage:") for line in lines)
    # after a known subcommand, that subcommand's own parser reports the error
    known = argv and argv[0] in cli._COMMANDS
    prog, sep, _ = lines[-1].partition(": error: ")
    assert sep and prog == (f"falkkit {argv[0]}" if known else "falkkit")
    assert "Traceback" not in err


def argv_forms(name: str) -> list[list[str]]:
    """``name``'s requests on one path, with ``--json`` before and after the
    path, and for ``phi3`` each method as ``--method x`` and ``--method=x``."""
    methods = [[]]
    if name == "phi3":
        for method in ("comb", "rank", "both"):
            methods += [["--method", method], [f"--method={method}"]]
    forms = []
    for method in methods:
        for flags in (method, [*method, "--json"], ["--json", *method]):
            forms += [[name, FINAL, *flags], [name, *flags, FINAL]]
    return forms


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_the_subcommand_parser_reads_what_the_top_level_parser_reads(name):
    # main hands a request that starts with a subcommand's name straight to
    # that subcommand's parser; path, json, method and func, all main reads,
    # come out as the top-level parser gives them
    for argv in argv_forms(name):
        direct = vars(cli._parse_args(argv))
        assert vars(cli._PARSER.parse_args(argv)) == {"command": name, **direct}, argv


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_cr_line_ends_give_the_same_output(tmp_path, end):
    # the file is read as bytes and parse ends its lines at \r\n and \r
    for path in sorted(DATA.glob("*.gg")):
        (tmp_path / path.name).write_bytes(path.read_bytes().replace(b"\n", end.encode()))
    assert run_all(tmp_path) == run_all()


@pytest.mark.parametrize("argv", [["-h"], ["report", "-h"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith("usage: falkkit")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "falkkit.cli", "phi3", FINAL, "--method=both"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "agree: true" in proc.stdout


def test_invalid_utf8_is_an_input_error(tmp_path):
    path = tmp_path / "latin1.gg"
    path.write_bytes(b"# caf\xe9\ngraph 2\nedge 1 1 2 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "falkkit", "report", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"falkkit: error: {path}: ")
    assert "Traceback" not in proc.stderr


def test_a_leading_byte_order_mark_is_skipped(tmp_path):
    # a copy of each bundled graph as some Windows editors save it, under its
    # own name: every subcommand gives the original's stdout, stderr and exit
    for path in sorted(DATA.glob("*.gg")):
        (tmp_path / path.name).write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert run_all(tmp_path) == run_all()


@pytest.mark.parametrize(
    "text, line",
    [
        ("graph 2\n\ufeffedge 1 1 2 2\n", 2),
        ("# two vertices\ngraph 2\nedge 1 1 2 2\n\ufeffedge 2 1 1 2\n", 4),
        ("\ufeff\ufeffgraph 2\n", 1),  # only the first mark is skipped
    ],
)
def test_a_byte_order_mark_elsewhere_is_a_format_error(capsys, tmp_path, text, line):
    path = tmp_path / "bom.gg"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "report", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"falkkit: error: {path}: line {line}: ")


def test_closed_output_pipe_exits_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "falkkit", "report", FINAL],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_report_piped_into_head():
    proc = subprocess.run(
        f"{shlex.quote(sys.executable)} -m falkkit report {shlex.quote(FINAL)} | head -1",
        shell=True,
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "graph: 4 vertices, 14 edges\n"
    assert proc.stderr == ""


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_rank_route_refuses_above_the_kept_row_bound(capsys, monkeypatch, flags):
    # final_example.gg writes 53 rows, in three groups of one vertex set
    # each; under a bound of 52 every command that runs the rank route is
    # refused with one line, the others run
    monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", 52)
    refused = [("phi3",), ("phi3", "--method", "rank"), ("rank-f3",), ("report",)]
    for command in refused:
        code, out, err = run(capsys, command[0], FINAL, *command[1:], *flags)
        assert (code, out) == (1, ""), command
        assert err == "falkkit: refused: rank route has more than 52 rows to eliminate\n"
    for command in [("phi3", "--method", "comb"), ("counts",), ("triangles",), ("check",)]:
        code, _, err = run(capsys, command[0], FINAL, *command[1:], *flags)
        assert (code, err) == (0, ""), command
    monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", 53)
    code, out, _ = run(capsys, "phi3", FINAL, "--method", "rank")
    assert (code, out) == (0, "rank: 31\n")


def test_report_refuses_the_rank_route_before_splitting_the_flats(capsys, monkeypatch):
    # the triangles number sum_X C(|X|, 3), cubic in the bundle size when H3
    # fails, so a report the row bound refuses must not list them first
    def split(*args):
        raise AssertionError("the flats were split into triangles")

    monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", 52)
    monkeypatch.setattr(falk, "_triangles", split)
    with pytest.raises(GraphTooLargeError, match="^rank route has more than 52 rows to eliminate$"):
        falk.verify(load_graph("final_example.gg"))
    code, out, err = run(capsys, "report", FINAL, "--json")
    assert (code, out) == (1, "")
    assert err == "falkkit: refused: rank route has more than 52 rows to eliminate\n"


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_triangles_refuses_above_the_triangle_bound(capsys, tmp_path, flags):
    # 3*C(100, 3) = 485 100 triples of the bundles and 5 050 balanced
    # 3-circles (one per a + b < 100): counted before any is built
    path = tmp_path / "bundles.gg"
    path.write_text(serialize(doubling_triangle(100)))
    started = time.perf_counter()
    code, out, err = run(capsys, "triangles", str(path), *flags)
    assert (code, out) == (1, "")
    assert err == (
        f"falkkit: refused: triangle list has 490150 triangles, "
        f"more than {patterns.MAX_TRIANGLES}\n"
    )
    assert time.perf_counter() - started < 5


def test_the_triangle_bound_refuses_report_and_triangles_only(capsys, monkeypatch):
    # final_example.gg has 13 triangles
    monkeypatch.setattr(patterns, "MAX_TRIANGLES", 12)
    for command in [("triangles",), ("report",), ("triangles", "--json"), ("report", "--json")]:
        code, out, err = run(capsys, *command[:1], FINAL, *command[1:])
        assert (code, out) == (1, ""), command
        assert err == "falkkit: refused: triangle list has 13 triangles, more than 12\n"
    for command in [("phi3",), ("counts",), ("rank-f3",), ("check",), ("realize",)]:
        code, _, err = run(capsys, command[0], FINAL)
        assert (code, err) == (0, ""), command
    monkeypatch.setattr(patterns, "MAX_TRIANGLES", 13)
    code, out, _ = run(capsys, "triangles", FINAL)
    assert (code, out.splitlines()[-1]) == (0, "total: 13")


def test_the_census_builds_no_triangle(capsys, monkeypatch):
    # the census reads the flat index; the triangle list is an output view
    requests = [("counts",), ("phi3", "--method", "comb"), ("counts", "--json")]
    paths = sorted(str(p) for p in DATA.glob("*.gg"))
    expected = [run(capsys, r[0], path, *r[1:]) for path in paths for r in requests]

    def split(*args):
        raise AssertionError("a Triangle was built")

    for module in (patterns, falk):
        monkeypatch.setattr(module, "_triangles", split)
    monkeypatch.setattr(patterns.Triangle, "__init__", split)
    assert [run(capsys, r[0], path, *r[1:]) for path in paths for r in requests] == expected
    assert any(code == 0 and "gcirc = 1" in out for code, out, _ in expected)


# ---------------------------------------------------------------------------
# the JSON writer prints the text of json.dumps(..., indent=2)


@pytest.mark.parametrize("form", FORMS)
def test_json_output_is_the_indent_2_text_of_json_dumps(capsys, form):
    for path in sorted(DATA.glob("*.gg")):
        code, out, _ = run(capsys, form[0], str(path), *form[1:], "--json")
        if code == 0:
            assert out == json.dumps(json.loads(out), indent=2) + "\n", path.name


def triangle_object(t):
    """A triangle as the CLI writes it: the ``default=`` of the oracle's ``json.dumps``."""
    if type(t) is not Triangle:
        raise TypeError(f"Object of type {type(t).__name__} is not JSON serializable")
    return {"edges": list(t.edge_ids), "kind": t.kind.value}


def test_json_writer_matches_json_dumps_on_random_reports():
    for g in seeded_graphs(200, seed=25):
        fields, _ = cli.cmd_report(Run(g), None)
        value = {"n": g.n, **fields}
        assert cli._json_text(value) == json.dumps(value, indent=2, default=triangle_object)


TRIANGLE_HEAVY = [
    pytest.param(graph, id=f"{name}{m}{suffix}")
    for name, family in (("K", braid), ("D", type_d), ("B", type_b))
    for m in range(4, 8)
    for graph, suffix in ((family(m), ""), (scrambled(family(m), random.Random(m)), "-scrambled"))
] + [
    pytest.param(triangulated_grid(30), id="grid30"),
    pytest.param(load_graph("three_vertex_patterns.gg"), id="three_vertex_patterns"),
    pytest.param(load_graph("empty.gg"), id="empty"),
]


@pytest.mark.parametrize("g", TRIANGLE_HEAVY)
@pytest.mark.parametrize("view", [cli.cmd_report, cli.cmd_triangles])
def test_json_writer_matches_json_dumps_on_triangle_lists(view, g):
    fields, _ = view(Run(g), None)
    value = {"n": g.n, **fields}
    expected = json.dumps(value, indent=2, default=triangle_object)
    # equal line lists are equal texts; a failure shows its first differing
    # line, where a diff of two long texts would take minutes
    assert cli._json_text(value).split("\n") == expected.split("\n")


def test_the_triangle_lists_hold_every_kind_and_none():
    kinds = {t.kind for t in Run(load_graph("three_vertex_patterns.gg")).triangles}
    assert kinds == set(TriangleKind)
    assert Run(load_graph("empty.gg")).triangles == ()


@pytest.mark.parametrize("kind", TriangleKind)
def test_triangle_kinds_are_printable_ascii_written_unescaped(kind):
    # the writer's template puts the kind between quotes as it is
    assert kind.value.isascii() and kind.value.isprintable()
    assert encode_basestring_ascii(kind.value) == f'"{kind.value}"'


JSON_VALUES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [[], {}, ()]},
    [[1, [2, [3]]], {"d": {"e": (4, 5)}}],
    (1, (2, 3), ("x",)),
    [-1, 0, -(2**70), 2**64, 2**64 + 1],
    -7,
    2**100,
    True,
    False,
    None,
    [True, False, 1, 0],
    {"t": True, "f": False, "n": None},
    'a quote " and a backslash \\',
    "controls \x00\x1f\n\t\r\x7f",
    "non-ASCII \u00e9 \u00f1 \u4e2d",
    "astral \U0001f600",
    "",
    {'key " \\ \u00e9 \U0001f600 \x01': ["mixed", 1, None, True, -2]},
]


@pytest.mark.parametrize("value", JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_json_writer_prints_booleans_as_true_and_false():
    assert cli._json_text([True, False, 1, 0]) == "[\n  true,\n  false,\n  1,\n  0\n]"
    assert cli._json_text({"b": [False]}) == '{\n  "b": [\n    false\n  ]\n}'


TRIANGLE = Triangle((1, 2, 3), TriangleKind.THETA)


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        [0.0],
        {"a": [1, 2.0]},
        {1, 2},
        {"a": frozenset()},
        {1: "a"},
        {None: 1},
        b"x",
        # the template serves only a list made wholly of triangles
        [TRIANGLE, 1],
        [1, TRIANGLE],
    ],
)
def test_json_writer_refuses_values_the_cli_never_emits(value):
    with pytest.raises(TypeError):
        cli._json_text(value)
