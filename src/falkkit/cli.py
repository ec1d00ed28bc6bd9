"""Command line front end: ``falkkit <subcommand> <file> [--json] [...]``.

Exit codes: 0 success, 1 computation refused (hypothesis gate, a
realization too large to write out, or a rank route with too many rows to
eliminate), 2 input error (unreadable file, malformed graph, bad
arguments).  A reader that closes the output early, as
``| head`` does, is not an error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arrangement import arrangement
from .exterior import rank_fields
from .falk import FalkReport, phi3_combinatorial, verify
from .graphs import (
    GainGraph,
    GraphFormatError,
    GraphTooLargeError,
    HYPOTHESES,
    HYPOTHESIS_LABELS,
    ValidationReport,
    parse,
    validate,
)
from .patterns import (
    COUNT_FIELDS,
    HypothesisError,
    _census,
    _triangles,
    count_patterns,
    flats,
    require_hypotheses,
    triangles,
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


def _triangles_json(tris) -> list[dict]:
    return [{"edges": list(t.edge_ids), "kind": t.kind.value} for t in tris]


def _bool(value: bool | None) -> str:
    if value is None:
        return "n/a"
    return "true" if value else "false"


def cmd_check(g: GainGraph, args) -> int:
    report = validate(g)
    if args.json:
        _dump({"n": g.n, "hypotheses": _hypotheses_json(report)})
    else:
        lines = _hypotheses_lines(report)
        lines.append(f"all hypotheses: {'pass' if report.all_pass else 'FAIL'}")
        print("\n".join(lines))
    return EXIT_OK


def cmd_triangles(g: GainGraph, args) -> int:
    require_hypotheses(g, ("H4", "H5"))
    tris = triangles(g)
    if args.json:
        _dump({"n": g.n, "triangles": _triangles_json(tris)})
    else:
        for t in tris:
            print(f"{{{','.join(map(str, t.edge_ids))}}} {t.kind.value}")
        print(f"total: {len(tris)}")
    return EXIT_OK


def cmd_counts(g: GainGraph, args) -> int:
    counts = count_patterns(g)
    if args.json:
        _dump({"n": g.n, "counts": counts.as_dict()})
    else:
        for name in COUNT_FIELDS:
            print(f"{name} = {getattr(counts, name)}")
    return EXIT_OK


def cmd_phi3(g: GainGraph, args) -> int:
    require_hypotheses(g, ("H4", "H5") if args.method == "rank" else HYPOTHESES)
    xs = flats(g)
    comb_value = rank_value = agree = None
    if args.method in ("comb", "both"):
        comb_value = phi3_combinatorial(_census(g, _triangles(g, xs)))
    if args.method in ("rank", "both"):
        rank_value = rank_fields(g.n, xs).phi3_rank
    if args.method == "both":
        agree = comb_value == rank_value
    if args.json:
        _dump({"n": g.n, "phi3": {"comb": comb_value, "rank": rank_value, "agree": agree}})
    else:
        if comb_value is not None:
            print(f"combinatorial: {comb_value}")
        if rank_value is not None:
            print(f"rank: {rank_value}")
        if agree is not None:
            print(f"agree: {_bool(agree)}")
    return EXIT_OK


def cmd_realize(g: GainGraph, args) -> int:
    planes = arrangement(g)
    if args.json:
        _dump(
            {
                "n": g.n,
                "hyperplanes": [
                    {"edge": h.edge_id, "normal": [str(c) for c in h.normal]}
                    for h in planes
                ],
            }
        )
    else:
        for h in planes:
            coeffs = " ".join(str(c) for c in h.normal)
            print(f"H {h.edge_id}: {coeffs}")
    return EXIT_OK


def cmd_rank_f3(g: GainGraph, args) -> int:
    require_hypotheses(g, ("H4", "H5"))
    fields = rank_fields(g.n, flats(g))
    size, rank = fields.span_F3_size, fields.span_F3_rank
    if args.json:
        _dump({"n": g.n, "f3": {"size": size, "rank": rank}})
    else:
        print(f"|F3| = {size}, rank = {rank}")
    return EXIT_OK


def cmd_report(g: GainGraph, args) -> int:
    report = verify(g)
    if args.json:
        _dump(_report_json(report))
    else:
        print("\n".join(_report_lines(report)))
    return EXIT_OK


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
        "n": rep.n,
        "num_vertices": rep.num_vertices,
        "hypotheses": _hypotheses_json(rep.hypotheses),
        "triangles": None if rep.triangle_list is None else _triangles_json(rep.triangle_list),
        "counts": None if rep.counts is None else rep.counts.as_dict(),
        "dims": dims,
        "phi3": {
            "comb": rep.phi3_combinatorial,
            "rank": rep.phi3_rank,
            "agree": rep.agree,
        },
        "withheld": {name: list(reasons) for name, reasons in sorted(rep.withheld.items())},
    }


def _report_lines(rep: FalkReport) -> list[str]:
    lines = [f"graph: {rep.num_vertices} vertices, {rep.n} edges"]
    status = ", ".join(
        f"{name} {'pass' if verdict.passed else 'FAIL'}" for name, verdict in rep.hypotheses.items()
    )
    lines.append(f"hypotheses: {status}")
    if rep.num_triangles is not None:
        lines.append(f"triangles: {rep.num_triangles}")
        lines.append(f"dim A^2 = {rep.dim_A2}")
        lines.append(f"dim I^3_2 = {rep.dim_I3_2}")
        lines.append(f"|F3| = {rep.span_F3_size}, rank F3 = {rep.span_F3_rank}")
    if rep.counts is not None:
        shown = " ".join(f"{k}={v}" for k, v in rep.counts.as_dict().items())
        lines.append(f"counts: {shown}")
    if rep.phi3_combinatorial is not None:
        lines.append(f"phi3 combinatorial = {rep.phi3_combinatorial}")
    if rep.phi3_rank is not None:
        lines.append(f"phi3 rank = {rep.phi3_rank}")
    if rep.agree is not None:
        lines.append(f"agree: {_bool(rep.agree)}")
    for name, reasons in sorted(rep.withheld.items()):
        lines.append(f"{name}: withheld ({', '.join(reasons)})")
    return lines


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2))


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
        with open(args.path, encoding="utf-8") as handle:
            g = parse(handle.read())
    except OSError as exc:
        print(f"falkkit: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GraphFormatError, UnicodeDecodeError) as exc:
        print(f"falkkit: error: {args.path}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        code = args.func(g, args)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
