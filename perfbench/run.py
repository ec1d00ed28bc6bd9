#!/usr/bin/env python3
"""falkkit benchmark: seeded workloads of ``falkkit report <file> --json`` requests.

One operation is one user request, run in-process through ``falkkit.cli.main``
with its output captured: read the file, parse, ``verify`` (both routes with
hypothesis gating), format the JSON.  A single client drives a closed loop
from this process, one request after the other, with no extra threads.  One
pass sends every graph of the workload once.  Every output is checked
against the benchmark's own references (see ``workloads.py``).

Usage, from the repository root:

    python3 perfbench/run.py --workload dense_dk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
``layertrace.py``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import layertrace
import refkernel
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_run"

#: fresh interpreters timed per run for setup_s; the median is reported
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import falkkit; "
    "[p.profile for p in falkkit.atlas().values()]"
)

#: a percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10

#: seconds of requests after which the reference kernel is timed again
KERNEL_GAP = 0.2

END_TO_END_UNITS = {"setup_s": "s", "pass_ref": "kernels", "peak_rss_mb": "MB"}


def load_package():
    """Import falkkit from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "falkkit" / "__init__.py").is_file():
        raise ImportError(f"no falkkit package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("falkkit")
    if Path(package.__file__).resolve().parent != SRC / "falkkit":
        raise ImportError(f"falkkit imported from {package.__file__}, not from {SRC}")
    return package


class SetupTimer:
    """Fresh interpreters that import falkkit and warm the atlas, timed from outside.

    The samples are spread over the run (see :meth:`catch_up`), so that their
    median sees the same mix of host speeds as the requests do.
    """

    def __init__(self):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
        self.times: list[float] = []
        subprocess.run(self.argv, cwd=ROOT, check=True)  # writes bytecode caches; not timed

    def catch_up(self, progress: float) -> None:
        """Take samples until their share of SETUP_REPEATS matches the run's progress."""
        while len(self.times) < math.ceil(SETUP_REPEATS * progress):
            start = time.perf_counter()
            subprocess.run(self.argv, cwd=ROOT, check=True)
            self.times.append(time.perf_counter() - start)


def time_kernel() -> float:
    start = time.perf_counter()
    refkernel.run()
    return time.perf_counter() - start


class Client:
    """Sends ``report --json`` requests and checks every reply."""

    def __init__(self, cli, cases: list, directory: Path):
        self.cli = cli
        self.cases = cases
        self.paths = []
        for i, case in enumerate(cases):
            path = directory / f"{i:03d}_{case.name}.gg"
            path.write_text(workloads.graph_text(case), encoding="utf-8")
            self.paths.append(str(path))
        self.attempted = 0
        self.failures: list[str] = []

    def request(self, path: str) -> tuple[float, int | None, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(["report", path, "--json"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed request, not a crashed benchmark
                code = None
                err.write(repr(exc))
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue() or err.getvalue()

    def run_pass(self, tracer: layertrace.Tracer | None = None) -> tuple[list[float], list[float]]:
        """Send every graph once; return each request's latency and its cost.

        The cost is the latency divided by the mean of the reference kernel's
        times just before and just after the request.  The kernel is timed at
        the start of the pass and after every KERNEL_GAP seconds of requests.
        """
        gc.collect()
        latencies, costs, replies, waiting = [], [], [], []
        before = time_kernel()
        for i, path in enumerate(self.paths):
            if tracer is not None:
                tracer.request = self.attempted + i
            latency, code, output = self.request(path)
            latencies.append(latency)
            replies.append((code, output))
            waiting.append(latency)
            if sum(waiting) >= KERNEL_GAP or i == len(self.paths) - 1:
                after = time_kernel()
                costs.extend(x * 2 / (before + after) for x in waiting)
                before, waiting = after, []
        for case, (code, output) in zip(self.cases, replies):
            self.check(case, code, output)
        return latencies, costs

    def check(self, case, code, output) -> None:
        self.attempted += 1
        problem = workloads.check_report(case, code, output)
        if problem is not None:
            self.failures.append(f"{case.name}: {problem}")

    def warm_up(self) -> None:
        """One checked request on the smallest graph, so first-call costs are not timed."""
        _, code, output = self.request(self.paths[0])
        self.check(self.cases[0], code, output)


def timed_passes(client: Client, seconds: float, tracer: layertrace.Tracer | None,
                 between=None):
    """Run passes for about ``seconds``; with a tracer, alternate plain and traced passes.

    ``between``, if given, is called after each pass with the share of the
    time used so far.

    Returns (latencies, costs) per plain pass, and (latencies, costs, layer
    metrics, spans) per traced pass.
    """
    plain, traced, rounds = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        began = time.perf_counter()
        plain.append(client.run_pass())
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                latencies, costs = client.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append((latencies, costs, tracer.layer_metrics(), list(tracer.spans)))
        if between is not None:
            between(min(1.0, (time.perf_counter() - start) / seconds))
        rounds.append(time.perf_counter() - began)
        if time.perf_counter() + statistics.median(rounds) > deadline:
            return plain, traced


def per_graph_median(passes, field: int) -> list[float]:
    """For each graph, the median of one per-request reading over the passes."""
    return [statistics.median(column) for column in zip(*(p[field] for p in passes))]


def percentile(values: list[float], q: int) -> float | None:
    """The q-th percentile, or None with fewer than TAIL_SAMPLES samples beyond it."""
    if len(values) * (100 - q) / 100 < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(client: Client, seconds: float) -> tuple[dict, list[str]]:
    setup = SetupTimer()
    passes, _ = timed_passes(client, seconds, None, setup.catch_up)
    setup.catch_up(1.0)
    metrics = {
        "setup_s": statistics.median(setup.times),
        "pass_ref": sum(per_graph_median(passes, 1)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # wall-clock readings, host speed swings included; printed, not gated
    pooled = [x * 1000 for p in passes for x in p[0]]
    p95 = percentile(pooled, 95)
    notes = [
        f"passes: {len(passes)}, requests timed: {len(pooled)}",
        f"pass_s: {sum(per_graph_median(passes, 0)):.4f} s (sum of per-graph median latencies)",
        f"op_p50_ms: {statistics.median(pooled):.4f} ms (n={len(pooled)})",
        f"op_p95_ms: {p95:.4f} ms (n={len(pooled)})" if p95 is not None else
        f"op_p95_ms: not reported, {len(pooled)} samples leave fewer than "
        f"{TAIL_SAMPLES} beyond p95",
    ]
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, notes


def per_layer(client: Client, seconds: float, spans_out: Path) -> tuple[dict, list[str]]:
    tracer = layertrace.Tracer()
    plain, traced = timed_passes(client, seconds, tracer)
    with spans_out.open("w", encoding="utf-8") as handle:
        handle.write('["pass", "request", "name", "start", "end", "parent"]\n')
        for k, (_, _, _, spans) in enumerate(traced):
            for s in spans:
                handle.write(json.dumps([k, s.request, s.name, s.start, s.end, s.parent]) + "\n")
    names = traced[0][2].keys()
    metrics = {name: statistics.median(t[2][name] for t in traced) for name in names}
    metrics["trace.pass_s"] = sum(per_graph_median(traced, 0))
    metrics["trace.overhead_ratio"] = (
        sum(per_graph_median(traced, 1)) / sum(per_graph_median(plain, 1))
    )
    metrics["trace.accounted_ratio"] = statistics.median(
        t[2]["cli.main_s"] / sum(t[0]) for t in traced
    )
    notes = [f"passes: {len(plain)} untraced, {len(traced)} traced; spans in {spans_out}"]
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_workload(args) -> int:
    try:
        package = load_package()
    except ImportError as exc:
        print(f"perfbench: cannot load falkkit: {exc}", file=sys.stderr)
        return 2
    # lazy pattern profiles are warmed before any timing
    for pattern in package.atlas().values():
        pattern.profile
    cli = importlib.import_module("falkkit.cli")
    cases = workloads.cases(args.workload, args.seed)
    directory = WORK / f"{args.workload}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(cli, cases, directory)
        client.warm_up()
        if args.trace:
            metrics, notes = per_layer(client, args.seconds, WORK / f"spans_{args.workload}.jsonl")
        else:
            metrics, notes = end_to_end(client, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    failed = len(client.failures)
    for problem in client.failures[:20]:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} graphs per pass")
    for note in notes:
        print(f"  {note}")
    for name, m in metrics.items():
        print(f"  {name}: {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio: {failed / client.attempted:.6g} ({failed}/{client.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print their lines, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
