#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table_quick --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs the workload once untraced, then again with span wrappers
installed (:mod:`perfbench.trace`), and prints the per-layer metrics, a
per-layer table and ``trace.overhead_frac``.  Every metric is printed with
its unit and sample count, followed by a provenance line; the last line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Run
records and spans are written under ``perfbench/out/``.  The exit code is 1
when a correctness check fails, 2 when the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def blas_block() -> Dict[str, object]:
    """BLAS vendor, version and live thread count (read, never set)."""
    import numpy as np

    info: Dict[str, object] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas_vendor"] = blas.get("name")
        info["blas_version"] = blas.get("version")
    except (KeyError, TypeError, ValueError) as error:
        info["blas_vendor"] = f"unknown ({error})"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas*"))
    threads: object = "unavailable"
    if libs:
        try:
            getter = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            getter.argtypes = []
            getter.restype = ctypes.c_int
            threads = getter()
        except (OSError, AttributeError) as error:
            threads = f"unavailable ({error})"
    info["blas_threads"] = threads
    info["openblas_num_threads_env"] = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return info


def cpu_ticks() -> Optional[List[int]]:
    """The host's aggregate CPU tick counters (``/proc/stat``), if readable."""
    try:
        with open("/proc/stat") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests between two reads.

    Contention from other tenants is the largest source of run-to-run noise
    on a shared host, so every record carries it.
    """
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def provenance(args, workload) -> Dict[str, object]:
    from perfbench.workloads import LADDER
    from repro.obs.provenance import environment_block

    block = environment_block()
    block.update(blas_block())
    block["nproc"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    block["repro_env"] = {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")}
    block["seed"] = args.seed
    block["seconds"] = args.seconds
    block["trace"] = args.trace
    block["workload"] = dict(workload.__dict__)
    block["ladder"] = LADDER
    return block


def per_layer(result, untraced, tracer, overhead: float) -> Tuple[Dict[str, tuple], Dict]:
    """Per-layer metrics of a traced run (0 where a layer did no work), and its span table.

    Span metrics (``*_ms``, ``bsq.train_s``) are total inclusive time over
    the traced run, leaving out the calls made by the benchmark's own set-up
    and reference checks.  The ungated timings come from the untraced run before it.
    """
    from perfbench.stats import percentile
    from perfbench.trace import BATCH_BUCKETS, layer_table
    import numpy as np

    table = layer_table(tracer.spans)

    def total(name: str) -> float:
        return table.get(name, {}).get("total_ms", 0.0)

    def count(name: str) -> float:
        return table.get(name, {}).get("count", 0)

    light = result.serving.light.server
    rungs = result.serving.rungs
    counts = tracer.counts
    metrics = {
        "data.next_batch_ms": (total("data.next_batch"), "ms"),
        "nn.forward_ms": (total("nn.forward"), "ms"),
        "autograd.backward_ms": (total("autograd.backward"), "ms"),
        "optim.step_ms": (total("optim.step"), "ms"),
        "optim.zero_grad_ms": (total("optim.zero_grad"), "ms"),
        "csq.relaxed_weight_ms": (total("csq.relaxed_weight"), "ms"),
        "csq.regularizer_ms": (total("csq.regularizer"), "ms"),
        "csq.freeze_ms": (total("csq.freeze"), "ms"),
        "training.evaluate_ms": (total("training.evaluate"), "ms"),
        "bsq.train_s": (total("bsq.train") / 1e3, "s"),
        "runtime.gemm_calls": (count("runtime.gemm.train") + count("runtime.gemm.serve"), "count"),
        "runtime.gemm_ms.train": (total("runtime.gemm.train"), "ms"),
        "runtime.gemm_ms.serve": (total("runtime.gemm.serve"), "ms"),
        "runtime.arena_misses": (
            counts.get("runtime.arena_misses", 0) / max(counts.get("runtime.warm_steps", 0), 1),
            "count/step",
        ),
        "artifact.save_ms": (total("artifact.save"), "ms"),
        "artifact.bytes": (result.chain.artifact_bytes + result.extra_bytes, "bytes"),
        "artifact.load_ms": (total("artifact.load"), "ms"),
        "plan.compile_ms": (total("plan.compile"), "ms"),
        "session.first_run_ms": (total("session.first_run"), "ms"),
    }
    for _, label in BATCH_BUCKETS:
        metrics[f"session.run_ms.{label}"] = (total(f"session.run.{label}"), "ms")
    metrics.update({
        "session.batch_size": (
            counts.get("session.examples", 0) / max(counts.get("session.runs", 0), 1), "count"
        ),
        "server.queue_wait_p50_ms": (light.get("queue_wait_p50_ms", 0.0), "ms"),
        "server.queue_wait_p99_ms": (light.get("queue_wait_p99_ms", 0.0), "ms"),
        "server.service_p99_ms": (light.get("service_p99_ms", 0.0), "ms"),
        "server.mean_batch": (light.get("mean_batch_size", 0.0), "count"),
        "server.cache_hit_rate": (light.get("cache_hit_rate", 0.0), "fraction"),
        "server.rejected": (sum(r.server.get("rejected", 0.0) for r in rungs), "count"),
        "server.expired": (sum(r.server.get("expired", 0.0) for r in rungs), "count"),
        "loadgen.late_ms_p99": (percentile(np.concatenate([r.late_ms for r in rungs]), 99), "ms"),
        "loadgen.sent": (sum(r.sent for r in rungs), "count"),
        "loadgen.ok": (sum(r.ok for r in rungs), "count"),
        "loadgen.failed": (sum(r.failed for r in rungs), "count"),
        "trace.overhead_frac": (overhead, "fraction"),  # median over TIMINGS
    })
    metrics.update({name: (value, unit) for name, (value, unit, _) in untraced.ungated.items()})
    return metrics, table


#: Timings compared between the untraced and the traced run.
TIMINGS = {
    "table_wall_s": "lower", "csq_train_images_per_s": "higher",
    "training.float_images_per_s": "higher", "serve_p50_ms": "lower",
    "deploy.cold_start_ms": "lower", "deploy.cold_start_p90_ms": "lower",
    "offline.images_per_s": "higher",
}


def trace_overheads(untraced, traced) -> Dict[str, float]:
    """How much worse each timing got with tracing installed."""
    overheads = {}
    for name, better in TIMINGS.items():
        before = {**untraced.metrics, **untraced.ungated}[name][0]
        after = {**traced.metrics, **traced.ungated}[name][0]
        overheads[name] = after / before - 1.0 if better == "lower" else before / after - 1.0
    return overheads


def run_one(args, name: str, work_dir: str):
    """Returns (metrics name → (value, unit, note), checks) for one workload."""
    from perfbench.trace import Tracer, install, render
    from perfbench.workloads import HARNESS, WORKLOADS, run_workload

    workload = WORKLOADS[name]
    ticks = cpu_ticks()
    result = run_workload(workload, args.seed, args.seconds, work_dir)
    checks = [result.checks]
    record: Dict[str, object] = {"provenance": provenance(args, workload)}
    if args.trace:
        tracer = Tracer(muted=HARNESS)
        installation = install(tracer)
        try:
            traced = run_workload(workload, args.seed, args.seconds, work_dir, region=tracer.region)
        finally:
            installation.uninstall()
        checks.append(traced.checks)
        overheads = trace_overheads(result, traced)
        layer_metrics, table = per_layer(traced, result, tracer, statistics.median(overheads.values()))
        record["trace_overheads"] = overheads
        metrics = {
            key: (value, unit, "untraced pass" if key in result.ungated else "traced run")
            for key, (value, unit) in layer_metrics.items()
        }
        print(render(table, f"{name} seed {args.seed}"))
        tracer.write(os.path.join(OUT, f"{name}-seed{args.seed}.spans.ndjson"))
        record["layers"] = table
    else:
        metrics = result.metrics
        for key, (value, unit, note) in result.ungated.items():
            print(f"{name:<16} {key:<26} {value:>14.6g} {unit:<10} {note} (per-layer, not gated)")
    record["metrics"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()}
    record["ungated"] = {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in result.ungated.items()}
    record["ladder"] = [
        {"offered_rps": r.offered_rps, "achieved_rps": r.achieved_rps, "sent": r.sent, "ok": r.ok,
         "failed": r.failed, "p99_ms": r.rung().p99_ms, "server": r.server}
        for r in result.serving.rungs
    ]
    record["check_notes"] = [note for c in checks for note in c.notes]
    record["provenance"]["host_steal_share"] = steal_share(ticks, cpu_ticks())
    with open(os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(f"provenance {name}: {json.dumps(record['provenance'], default=str)}")
    return metrics, checks


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(
        os.path.join(ROOT, "benchmarks", "common.py")
    ):
        print(f"perfbench: no repro source tree (src/repro, benchmarks/) under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or 'all'")
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    try:
        for name in names:
            started = time.perf_counter()
            results, checks = run_one(args, name, work_dir)
            for key, (value, unit, note) in results.items():
                print(f"{name:<16} {key:<26} {value:>14.6g} {unit:<10} {note}")
                metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
            for check in checks:
                attempted += check.attempted
                failed += check.failed
                for note in check.notes:
                    print(f"{name}: CHECK FAILED {note}")
            print(f"{name}: {time.perf_counter() - started:.1f} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
