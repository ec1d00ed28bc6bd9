"""Command line front end: ``falkkit <subcommand> <file> [--json] [...]``.

Exit codes: 0 success, 1 computation refused (hypothesis gate, a
realization or a triangle list too large to write out, or a rank route
with too many rows to eliminate), 2 input error (unreadable file, malformed graph, bad
arguments).  A reader that closes the output early, as
``| head`` does, is not an error.
"""

from __future__ import annotations

import argparse
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .arrangement import arrangement
from .falk import FalkReport, Run, Triangle, phi3_combinatorial, verify
from .graphs import (
    GraphFormatError,
    GraphTooLargeError,
    HYPOTHESIS_LABELS,
    HypothesisError,
    ValidationReport,
    parse,
)

EXIT_OK = 0
EXIT_REFUSED = 1
EXIT_INPUT = 2


def _hypotheses_json(report: ValidationReport) -> dict:
    out = {}
    for name, verdict in report.items():
        entry = {"passed": verdict.passed, "witnesses": [sorted(w) for w in verdict.witnesses]}
        if verdict.count > len(verdict.witnesses):
            entry["witness_count"] = verdict.count
        out[name] = entry
    return out


def _hypotheses_lines(report: ValidationReport) -> list[str]:
    lines = []
    for name, verdict in report.items():
        label = HYPOTHESIS_LABELS[name]
        if verdict.passed:
            lines.append(f"{name} {label}: pass")
        else:
            shown = "; ".join("{" + ",".join(map(str, sorted(w))) + "}" for w in verdict.witnesses)
            if verdict.count > len(verdict.witnesses):
                shown += f" ({len(verdict.witnesses)} of {verdict.count} listed)"
            lines.append(f"{name} {label}: FAIL  witnesses: {shown}")
    return lines


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for the values the CLI
    emits, nested at ``pad`` (a newline and the indent of its line).

    The standard library writes indented JSON with its pure-Python encoder
    before CPython 3.13.  Here a container's text joins the texts of its
    items, one indent deeper.  A non-empty list of
    :class:`~falkkit.patterns.Triangle` is written as the list of
    ``{"edges": [...], "kind": kind.value}`` objects, one ``%`` template
    per triangle built once for the list at its depth, with no dict per
    triangle; the kind values are plain ASCII that needs no escape.  Values
    the CLI never emits (floats, sets, subclasses of ``int`` other than
    ``bool``, keys that are not strings) raise ``TypeError``.
    """
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _JSON_CONSTANTS[value]
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _json_text(item, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if all(type(item) is Triangle for item in value):
            i2 = inner + "  "
            i3 = i2 + "  "
            template = (
                "{" + i2 + '"edges": [' + i3 + "%d," + i3 + "%d," + i3 + "%d" + i2 + "],"
                + i2 + '"kind": "%s"' + inner + "}"
            )
            items = [template % (*t.edge_ids, t.kind.value) for t in value]
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# Each view reads the stages of the request's run and returns its JSON
# fields and its text lines; main prints the one the request asked for.


def cmd_check(run: Run, args) -> tuple[dict, Iterable[str]]:
    report = run.hypotheses
    lines = _hypotheses_lines(report)
    lines.append(f"all hypotheses: {'pass' if report.all_pass else 'FAIL'}")
    return {"hypotheses": _hypotheses_json(report)}, lines


def cmd_triangles(run: Run, args) -> tuple[dict, Iterable[str]]:
    tris = run.triangles
    lines = [f"{{{','.join(map(str, t.edge_ids))}}} {t.kind.value}" for t in tris]
    lines.append(f"total: {len(tris)}")
    return {"triangles": tris}, lines


def cmd_counts(run: Run, args) -> tuple[dict, Iterable[str]]:
    counts = run.counts.as_dict()
    return {"counts": counts}, [f"{name} = {value}" for name, value in counts.items()]


def cmd_phi3(run: Run, args) -> tuple[dict, Iterable[str]]:
    # both gates name every failing hypothesis; the census goes first so that,
    # on a graph failing H1-H3, its refusal wins over the rank route's row bound
    comb = phi3_combinatorial(run.counts) if args.method in ("comb", "both") else None
    rank = run.rank.phi3_rank if args.method in ("rank", "both") else None
    agree = comb == rank if args.method == "both" else None
    shown = {"combinatorial": comb, "rank": rank, "agree": agree}
    lines = [f"{k}: {str(v).lower()}" for k, v in shown.items() if v is not None]
    return {"phi3": {"comb": comb, "rank": rank, "agree": agree}}, lines


def cmd_realize(run: Run, args) -> tuple[dict, Iterable[str]]:
    planes = [(h.edge_id, [str(c) for c in h.normal]) for h in arrangement(run.g)]
    return (
        {"hyperplanes": [{"edge": edge, "normal": normal} for edge, normal in planes]},
        [f"H {edge}: {' '.join(normal)}" for edge, normal in planes],
    )


def cmd_rank_f3(run: Run, args) -> tuple[dict, Iterable[str]]:
    size, rank = run.rank.span_F3_size, run.rank.span_F3_rank
    return {"f3": {"size": size, "rank": rank}}, [f"|F3| = {size}, rank = {rank}"]


def cmd_report(run: Run, args) -> tuple[dict, Iterable[str]]:
    report = verify(run)
    return _report_json(report), _report_lines(report)


def _report_json(rep: FalkReport) -> dict:
    dims = None
    if rep.num_triangles is not None:
        dims = {
            "num_triangles": rep.num_triangles,
            "dim_A2": rep.dim_A2,
            "dim_I3_2": rep.dim_I3_2,
            "span_F3_size": rep.span_F3_size,
            "span_F3_rank": rep.span_F3_rank,
        }
    return {
        "num_vertices": rep.num_vertices,
        "hypotheses": _hypotheses_json(rep.hypotheses),
        "triangles": rep.triangle_list,
        "counts": None if rep.counts is None else rep.counts.as_dict(),
        "dims": dims,
        "phi3": {
            "comb": rep.phi3_combinatorial,
            "rank": rep.phi3_rank,
            "agree": rep.agree,
        },
        "withheld": {name: list(reasons) for name, reasons in sorted(rep.withheld.items())},
    }


def _report_lines(rep: FalkReport) -> Iterator[str]:
    """Made only when the text is printed, since ``report --json`` is the hot request."""
    yield f"graph: {rep.num_vertices} vertices, {rep.n} edges"
    status = ", ".join(
        f"{name} {'pass' if verdict.passed else 'FAIL'}" for name, verdict in rep.hypotheses.items()
    )
    yield f"hypotheses: {status}"
    if rep.num_triangles is not None:
        yield f"triangles: {rep.num_triangles}"
        yield f"dim A^2 = {rep.dim_A2}"
        yield f"dim I^3_2 = {rep.dim_I3_2}"
        yield f"|F3| = {rep.span_F3_size}, rank F3 = {rep.span_F3_rank}"
    if rep.counts is not None:
        shown = " ".join(f"{k}={v}" for k, v in rep.counts.as_dict().items())
        yield f"counts: {shown}"
    if rep.phi3_combinatorial is not None:
        yield f"phi3 combinatorial = {rep.phi3_combinatorial}"
    if rep.phi3_rank is not None:
        yield f"phi3 rank = {rep.phi3_rank}"
    if rep.agree is not None:
        yield f"agree: {str(rep.agree).lower()}"
    for name, reasons in sorted(rep.withheld.items()):
        yield f"{name}: withheld ({', '.join(reasons)})"


_COMMANDS = {
    "check": cmd_check,
    "triangles": cmd_triangles,
    "counts": cmd_counts,
    "phi3": cmd_phi3,
    "realize": cmd_realize,
    "rank-f3": cmd_rank_f3,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="falkkit",
        description="Exact Falk invariant computations for rational gain graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("path", help="graph file")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        if name == "phi3":
            p.add_argument(
                "--method",
                choices=("comb", "rank", "both"),
                default="both",
                help="which pipeline(s) to run",
            )
        p.set_defaults(func=func)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.path, encoding="utf-8-sig") as handle:
            g = parse(handle.read())
    except OSError as exc:
        print(f"falkkit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphFormatError, UnicodeDecodeError) as exc:
        print(f"falkkit: error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        fields, lines = args.func(Run(g), args)
        if args.json:
            print(_json_text({"n": g.n, **fields}))
        else:
            text = "\n".join(lines)
            if text:  # an empty graph realizes to no line at all
                print(text)
        sys.stdout.flush()
    except (HypothesisError, GraphTooLargeError) as exc:
        print(f"falkkit: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the interpreter's
        # final flush does not fail again (recipe from the `signal` docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
