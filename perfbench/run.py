"""The repository benchmark: one command, four workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload hard-anytime --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``hard-anytime``    — Fig. 7 hard queries at ε = 0.01 relative, cold
  sessions (d-tree, bounds, memo);
* ``tractable-exact`` — hierarchical + IQ queries at ε = 0 (SPROUT,
  lineage construction);
* ``serve-mixed``     — 32 in-flight async callers against a persisted
  circuit store served through the full JSON path (codec, micro-batching,
  response cache, kernels);
* ``mutate-mixed``    — one warm session under a 4:1 read/write mix
  (mutations, cone invalidation, recompute).

Every input is generated from ``--seed``.  The timed phase is a closed
loop that lasts ``--seconds``; each workload's correctness check runs
outside it.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` the run is split into an untraced
and a traced half (their throughput difference is the tracing
overhead), a fixed-size count pass runs twice to prove the work counts
repeat, and the last line carries the per-layer metrics.  The line
before it is a full JSON report (environment, settings, every metric
with its unit, sample counts, check results).  Raw spans are written to
``.perfbench-out/`` in the checkout when the run ends.

The benchmark drives the library only through public entry points and
needs ``src/`` next to this directory; without it the run fails with a
non-zero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, Optional, Sequence

from harness import ROOT, Phase, percentile

#: Set-up repeats per run: at least ``SETUP_REPEATS``, and more (up to
#: ``SETUP_MAX_REPEATS``) until ``SETUP_MIN_SECONDS`` have been spent, so
#: a set-up of a few milliseconds is not one noisy sample.  ``setup_s``
#: is their median.
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units.  A workload that
#: never enters a layer reports 0 for it.
PER_LAYER = {
    "lineage.self_s": "s",
    "lineage.clauses": "count",
    "lineage.answers": "count",
    "planner.rung.sprout": "count",
    "planner.rung.read-once": "count",
    "planner.rung.dtree": "count",
    "planner.rung.circuit": "count",
    "planner.rung.mc": "count",
    "planner.rung.other": "count",
    "sprout.self_s": "s",
    "dtree.self_s": "s",
    "dtree.steps": "count",
    "dtree.steps_per_s": "1/s",
    "dtree.unconverged": "count",
    "memo.hits": "count",
    "memo.misses": "count",
    "memo.hit_ratio": "ratio",
    "memo.entries": "count",
    "circuits.compile_s": "s",
    "circuits.nodes": "count",
    "circuits.eval_s": "s",
    "circuit_cache.hits": "count",
    "circuit_cache.misses": "count",
    "circuit_cache.hit_ratio": "ratio",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.bytes": "bytes",
    "kernels.self_s": "s",
    "kernels.rows": "count",
    "serving.engine.self_s": "s",
    "serving.batches": "count",
    "serving.batch_rows_mean": "count",
    "serving.response_hit_ratio": "ratio",
    "serving.shed": "count",
    "serving.max_inflight": "count",
    "serving.wire.self_s": "s",
    "serving.wire.request_bytes": "bytes",
    "serving.wire.response_bytes": "bytes",
    "mutations.self_s": "s",
    "mutations.parse_s": "s",
    "mutations.write_p50_ms": "ms",
    "invalidation.circuits_evicted": "count",
    "invalidation.memo_evicted": "count",
    "requery.recomputes": "count",
    "requery.dtree_steps": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Counts whose value depends on scheduling, not only on the seed.
TIMING_DEPENDENT = (
    "serving.batches",
    "serving.batch_rows_mean",
    "serving.response_hit_ratio",
    "serving.max_inflight",
    "serving.wire.response_bytes",
)

#: Modules the benchmark leaves unmeasured on purpose.
UNMEASURED = {
    "serving.fleet and the stdlib HTTP transport": (
        "worker processes would share the host's cores with the load "
        "generator"
    ),
    "engine_parallel": "every run uses EngineConfig(workers=1)",
    "mc rung": "no workload exhausts a d-tree budget",
    "db.topk refinement (circuit-refine)": "no workload ranks answers "
    "under a step budget",
    "Fig. 8/9 graph datasets": "the workloads are TPC-H only",
}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, traced: bool) -> Dict[str, object]:
    import repro
    from repro.circuits import kernel_backend

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "kernel_backend": kernel_backend(None),
        "cpu_count": os.cpu_count(),
        "repro_version": repro.__version__,
        "git_sha": git_sha(),
        "seed": seed,
        "traced": traced,
    }


def end_to_end_metrics(setup_s: float, phase: Phase) -> Dict[str, float]:
    reads = phase.reads()
    return {
        "setup_s": setup_s,
        "throughput_ops_s": phase.throughput(),
        "latency_p50_ms": percentile(reads, 0.5) * 1e3,
        "latency_p90_ms": percentile(reads, 0.9) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def report_only_metrics(phase: Phase) -> Dict[str, object]:
    """End-to-end numbers printed in the report but not gated: they do
    not apply to every workload, or are too sparse to be steady."""
    reads = phase.reads()
    writes = phase.writes()
    out: Dict[str, object] = {"read_ops": len(reads), "write_ops": len(writes)}
    if len(reads) >= 1000:
        out["latency_p99_ms"] = percentile(reads, 0.99) * 1e3
    if writes:
        out["write_p50_ms"] = percentile(writes, 0.5) * 1e3
        out["write_p90_ms"] = percentile(writes, 0.9) * 1e3
    return out


def timed_setup(workload, seed: int):
    """Set up repeatedly; keep the last state, report the median
    duration.  Each earlier state is torn down and released before the
    next set-up starts, so only one is alive at a time (``peak_rss_mb``
    counts one state).  The first, cold set-up is in the report as
    ``setup_first_s``."""
    durations = []
    while True:
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(seed)
        durations.append(time.perf_counter() - started)
        enough = len(durations) >= SETUP_REPEATS and (
            sum(durations) >= SETUP_MIN_SECONDS
            or len(durations) >= SETUP_MAX_REPEATS
        )
        if enough:
            return state, statistics.median(durations), durations
        workload.teardown(state)
        state = None


def run(args: argparse.Namespace, workload) -> Dict[str, object]:
    from tracing import Tracer

    traced = bool(args.trace)
    report: Dict[str, object] = {
        "workload": args.workload,
        "environment": environment(args.seed, traced),
        "settings": workload.settings(),
        "run_seconds": args.seconds,
    }
    state, setup_s, setup_all = timed_setup(workload, args.seed)
    report["setup_first_s"] = setup_all[0]
    report["setup_all_s"] = setup_all
    tracer = Tracer(enabled=traced)
    phases = []
    try:
        if traced:
            half = args.seconds / 2.0
            phases.append(workload.run(state, half, Tracer(enabled=False)))
            phases.append(workload.run(state, half, tracer))
        else:
            phases.append(workload.run(state, args.seconds, tracer))
        checked, mismatches, notes = workload.check(state)
    finally:
        workload.teardown(state)
    phase = phases[-1]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + mismatches
    report["check"] = {
        "checked": checked, "mismatches": mismatches, "notes": notes,
    }
    e2e = end_to_end_metrics(setup_s, phase)
    report["end_to_end"] = {k: [v, END_TO_END[k]] for k, v in e2e.items()}
    report["report_only"] = report_only_metrics(phase)
    report["report_only"]["failed_ratio"] = failed / attempted
    report["unmeasured"] = UNMEASURED
    correct = failed == 0
    metrics, units = e2e, END_TO_END
    if traced:
        counts = workload.count_pass(args.seed)
        repeat_identical = counts == workload.count_pass(args.seed)
        correct = correct and repeat_identical
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(workload.layer_metrics(phase, tracer))
        metrics.update(counts)
        metrics["trace.unattributed_share"] = max(
            0.0, 1.0 - sum_layer_self(tracer) / phase.wall_s
        )
        metrics["trace.overhead_share"] = (
            phases[0].throughput() / phase.throughput() - 1.0
        )
        not_applicable = getattr(workload, "NOT_APPLICABLE", {})
        metrics.update({name: 0.0 for name in not_applicable})
        report["not_applicable"] = not_applicable
        unknown = set(metrics) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
        units = PER_LAYER
        report["untraced_half"] = end_to_end_metrics(setup_s, phases[0])
        report["deterministic_counts"] = counts
        report["counts_repeat_identical"] = repeat_identical
        report["timing_dependent"] = list(TIMING_DEPENDENT)
        report["per_layer"] = {k: [metrics[k], units[k]] for k in units}
        write_spans(args, tracer, metrics)
    return {
        "report": report,
        "result": {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        },
    }


#: Span names the workloads record, one per layer (self time).
LAYER_SPANS = (
    "lineage", "sprout", "dtree", "circuits", "kernels",
    "serving.engine", "serving.wire", "mutations", "mutations.parse",
    "requery",
)


def sum_layer_self(tracer) -> float:
    times = tracer.self_times()
    return sum(times.get(name, 0.0) for name in LAYER_SPANS)


def write_spans(args, tracer, layers) -> None:
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"trace-{args.workload}-seed{args.seed}.json"
    )
    tracer.write(path, {"per_layer": layers})


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}"
        )
    outcome = run(args, WORKLOADS[args.workload])
    print(json.dumps({"report": outcome["report"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
