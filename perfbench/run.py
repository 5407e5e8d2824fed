"""mvlab benchmark: seeded workloads through the public API, checked by oracles.

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports mvlab from its `src/`.
One process, one thread (threads=1, BLAS/OpenMP pinned to one thread).

--trace 0 prints the end-to-end metrics.  setup_s is the median, over
several fresh interpreters, of the time to import mvlab, build the
seeded op list and run one warm-up op.  Then the op list repeats for
--seconds (and at least FASTEST times).  Each op keeps its FASTEST
latencies: wall_s sums each op's median of them; op_ms_p50 and
op_ms_tail are the median and the highest percentile with ten kept
latencies beyond it; msamples_per_s is random points per list over
wall_s; peak_rss_mb is this process's peak resident memory.

--trace 1 alternates untraced runs of the list with runs under timing
wrappers on mvlab's public functions, and prints the per-layer metrics
plus the tracing overhead; its spans go to .perfbench_out/.

Every op is checked against an oracle in both modes.  The last stdout
line is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; inherited by set-up probes

import argparse
import functools
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mvlab"
OUT_DIR = ROOT / ".perfbench_out"

# Other tenants of a shared host slow whole stretches of a run, up to
# 1.7x.  Each op runs at least this many times, and its fastest runs are
# the ones the timings are taken from.
FASTEST = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def import_program():
    """Import mvlab from this checkout's src/, never from anywhere else."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no mvlab sources at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import mvlab

    if Path(mvlab.__file__).resolve().parent != PACKAGE:
        sys.exit(f"perfbench: imported mvlab from {mvlab.__file__}, not {PACKAGE}")
    return mvlab


class Ledger:
    """Ops attempted and failed; a failure is an exception or a missed oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, call) -> float:
        """Run `call` (op.call, maybe traced), check its output, return seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            self._fail(op, f"raised {exc!r}")
            return elapsed
        elapsed = time.perf_counter() - start
        try:
            reason = op.check(out)
        except Exception as exc:  # malformed output the oracle cannot read
            reason = f"oracle could not read the output: {exc!r}"
        if reason:
            self._fail(op, reason)
        return elapsed

    def _fail(self, op, reason: str) -> None:
        self.failures.append(f"{op.label}: {reason}")
        if len(self.failures) <= 5:
            print(f"perfbench: op failed: {op.label}: {reason}", file=sys.stderr)


def set_up(workload: str, seed: int, ledger: Ledger, run_op=None):
    """Generate and parse the op list from the seed, then run one warm-up op."""
    import workloads

    ops = workloads.WORKLOADS[workload](random.Random(seed))
    ledger.run(ops[0], (lambda: run_op(-1, ops[0].call)) if run_op else ops[0].call)
    return ops


def probe_setup(args) -> list[float]:
    """Seconds from a fresh interpreter to a set-up workload, several times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


def run_list(ops, ledger: Ledger, tracer=None, first_id: int = 0) -> list[float]:
    """Run the op list once; return each op's latency (oracle time excluded)."""
    latencies = []
    for i, op in enumerate(ops):
        call = functools.partial(tracer.run_op, first_id + i, op.call) if tracer else op.call
        latencies.append(ledger.run(op, call))
    return latencies


def measure(ops, seconds: float, ledger: Ledger) -> list[list[float]]:
    """Repeat the op list for `seconds`, and at least FASTEST times."""
    lists = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        lists.append(run_list(ops, ledger))
        now = time.perf_counter()
        if now - begin + (now - start) > seconds and len(lists) >= FASTEST:
            return lists


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # an exported checkout carries no history
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, mvlab, ops, lists: int, pooled: int) -> dict:
    import mpmath
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "threads": 1, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "mpmath": mpmath.__version__, "mvlab": mvlab.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_sha256(),
        "ops_per_list": len(ops), "lists_repeated": lists, "ops_timed": pooled,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def tail_percentile(count: int) -> int:
    """The highest whole percentile of `count` latencies with ten beyond it."""
    return math.floor(100 * (1 - 10 / count))


def end_to_end(args, ops, ledger: Ledger):
    setup = probe_setup(args)
    lists = measure(ops, args.seconds, ledger)
    fastest = [sorted(times)[:FASTEST] for times in zip(*lists)]
    latencies = [t for times in fastest for t in times]
    q = tail_percentile(len(latencies))
    wall = sum(statistics.median(times) for times in fastest)
    samples = sum(op.samples for op in ops)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_tail": (statistics.quantiles(latencies, n=100)[q - 1] * 1e3, "ms"),
        "msamples_per_s": (samples / wall / 1e6, "Msamples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {"setup_probes_s": setup, "tail_percentile": q, "tail_ops": len(latencies),
             "list_s": [round(sum(times), 4) for times in lists]}
    return metrics, ops, lists, extra


def per_layer(args, ops, ledger: Ledger):
    """Alternate untraced and traced runs of the op list for --seconds."""
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:  # the traced set-up contributes parse time to expr.parse.ms
        ops = set_up(args.workload, args.seed, ledger, tracer.run_op)
    finally:
        tracer.uninstall()
    untraced, traced = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        untraced.append(run_list(ops, ledger))
        tracer.install()
        try:
            traced.append(run_list(ops, ledger, tracer, len(traced) * len(ops)))
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now - begin + (now - start) > args.seconds:
            break

    by_id = {rec[tracing.ID]: rec for rec in tracer.spans}
    groups = [[] for _ in traced]
    for rec in tracer.spans:
        if rec[tracing.OP] >= 0:
            groups[rec[tracing.OP] // len(ops)].append(rec)
    values = tracing.per_list_medians(groups, by_id)
    setup_spans = [r for r in tracer.spans if r[tracing.OP] < 0]
    values["expr.parse.ms"] += tracing.layer_metrics(setup_spans, by_id)["expr.parse.ms"]
    metrics = {name: (values[name], unit) for name, unit in tracing.UNITS.items()}
    overhead = statistics.median(sum(t) - sum(u) for t, u in zip(traced, untraced))
    metrics["trace_overhead_s"] = (overhead, "s")

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_file, {"workload": args.workload, "seed": args.seed,
                              "ops_per_list": len(ops)})
    traced_ns = sum(sum(t) for t in traced) * 1e9
    extra = {
        "untraced_wall_s": statistics.median(sum(u) for u in untraced),
        "traced_wall_s": statistics.median(sum(t) for t in traced),
        "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT)),
        "self_time_share": tracing.self_time_shares(
            [r for g in groups for r in g], traced_ns),
    }
    return metrics, ops, untraced + traced, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("mc_large", "mc_checks", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    mvlab = import_program()
    ledger = Ledger()
    if args.setup_probe:  # the measuring process checks the same warm-up op
        set_up(args.workload, args.seed, ledger)
        print("ready", flush=True)
        return 0

    ops = set_up(args.workload, args.seed, ledger)
    measure_fn = per_layer if args.trace else end_to_end
    metrics, ops, lists, extra = measure_fn(args, ops, ledger)

    info = provenance(args, mvlab, ops, len(lists), sum(map(len, lists)))
    print(json.dumps({"provenance": {**info, **extra}}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:32s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
