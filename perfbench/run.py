"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1-rows --seed 1 --seconds 22 --trace 0

``--workload all`` runs every workload of ``BENCHMARK.json`` in turn, each
in its own process.  ``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload untraced for half the time and traced for
the other half, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric with its unit, direction and sample count, and a results
file (spans too, when traced) is written under ``perfbench/results/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import benchlib  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_records(workload, records) -> int:
    """Run the output checks outside the timed region; returns the failures."""
    workload.begin_checks()
    failed = 0
    for record in records:
        if record.error is None:
            try:
                record.failure = workload.check(record)
            except Exception as exc:  # a check that cannot run is a failure
                record.failure = f"check raised {type(exc).__name__}: {exc}"
        if not record.ok:
            failed += 1
            print(f"FAILED op {record.op_id} ({record.kind}): {record.error or record.failure}")
    return failed


def latencies_ms(records):
    return [1000.0 * record.latency_s for record in records if record.error is None]


def print_metric(name, value, unit, better, samples, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<34} {shown:>12} {unit:<9} {better:<7} n={samples}{note}")


def untraced(workload_class, args, import_s):
    """The end-to-end metrics of one untraced run."""
    setups, workload = [], None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.teardown()
        began = time.perf_counter()
        workload = workload_class(args.seed)
        workload.setup()
        setups.append(time.perf_counter() - began)
    try:
        records, wall = workload.run_phase(args.seconds, tracing.Tracer())
    finally:
        workload.teardown()
    rss = benchlib.peak_rss_mb()
    failed = check_records(workload, records)
    latencies = latencies_ms(records)
    quality = workload.quality(records)
    metrics = {
        "setup_s": import_s + benchlib.median(setups),
        "ops_per_s": len(latencies) / wall,
        "op_latency_p50_ms": benchlib.median(latencies) if latencies else 0.0,
        "approx_ratio_mean": quality["approx_ratio_mean"],
        "function_calls_mean": quality["function_calls_mean"],
        "peak_rss_mb": rss,
    }
    samples = {name: len(latencies) for name in metrics}
    samples.update(setup_s=SETUP_REPEATS, peak_rss_mb=1)
    extra = {
        "op_latency_p95_ms": benchlib.supported_percentile(latencies, 95.0),
        "error_rate": benchlib.ratio(failed, len(records)),
        "setup_import_s": import_s,
        "setup_runs_s": setups,
        "timed_wall_s": wall,
        "ops_by_kind": dict(Counter(record.kind for record in records)),
        "latencies_ms_by_kind": {
            kind: [1000.0 * r.latency_s for r in records if r.kind == kind and r.error is None]
            for kind in sorted({record.kind for record in records})
        },
    }
    if "fc_reduction_pct" in quality:
        extra["fc_reduction_pct"] = quality["fc_reduction_pct"]
    if hasattr(workload, "max_invariant_drift"):
        extra["anneal_invariant_drift_max"] = workload.max_invariant_drift
    return metrics, samples, extra, records, failed


def traced(workload_class, args):
    """The per-layer metrics: half the time untraced, then half traced."""
    tracer = tracing.Tracer()
    half = args.seconds / 2.0
    workload = workload_class(args.seed)
    workload.setup()
    try:
        plain, plain_wall = workload.run_phase(half, tracer)
    finally:
        workload.teardown()
    tracer.install()
    tracer.enabled = True
    try:
        workload = workload_class(args.seed)
        workload.setup()
        mark = len(tracer.spans)  # spans from here on belong to the traced phase
        before = Counter(tracer.counters)
        try:
            records, wall = workload.run_phase(half, tracer)
        finally:
            tracer.enabled = False
            workload.teardown()
    finally:
        tracer.unpatch()
    failed = check_records(workload, plain + records)
    rows = tracer.export()
    table = tracing.layer_table(rows, mark)
    setup_table = tracing.layer_table(rows[:mark])
    completed = len(latencies_ms(records))
    metrics = tracing.layer_metrics(
        table, tracer.counters - before, completed, setup_table
    )
    metrics.update(tracing.service_metrics(getattr(workload, "metrics_snapshot", None)))
    plain_rate = len(latencies_ms(plain)) / plain_wall
    traced_rate = completed / wall
    metrics["trace.overhead_pct"] = 100.0 * (benchlib.ratio(plain_rate, traced_rate) - 1.0)
    metrics["trace.unattributed_pct"] = tracing.unattributed_pct(rows, mark)
    samples = {name: completed for name in metrics}
    op_wall = benchlib.covered_length(
        [(row[1], row[2]) for row in rows[mark:] if row[0] == tracing.OP_SPAN]
    )
    extra = {
        "layers": table,
        "op_wall_s": op_wall,
        "untraced_ops": len(plain),
        "spans": rows,
        "mark": mark,
    }
    return metrics, samples, extra, plain + records, failed


def report_layers(table, op_wall):
    """Print self time per layer span; returns the largest one's name.

    Shares are of the time at least one op was in flight; with service
    workers running in parallel they can add up to more than 100%.
    """
    print(f"self time by span over the traced phase (share of {op_wall:.3f} s op wall-clock):")
    ranked = sorted(
        (item for item in table.items() if item[0] != tracing.OP_SPAN),
        key=lambda item: item[1]["self_s"],
        reverse=True,
    )
    for name, entry in ranked:
        share = 100.0 * benchlib.ratio(entry["self_s"], op_wall)
        print(
            f"  {name:<34} calls={entry['count']:<8} total={entry['total_s']:.4f}s "
            f"self={entry['self_s']:.4f}s ({share:.1f}%)"
        )
    return ranked[0][0] if ranked else None


def run_all(args, names) -> int:
    """Run every workload in its own process, one after another."""
    import subprocess

    status = 0
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
                   "--trace", str(args.trace)]
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload_names = [workload["name"] for workload in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, workload_names)
    if args.workload not in workload_names:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    import_s = time.perf_counter() - _STARTED
    workload_class = workloads.WORKLOADS[args.workload]
    env = benchlib.environment(ROOT, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, samples, extra, records, failed = traced(workload_class, args)
        spans = {"env": env, "mark": extra.pop("mark"), "spans": extra.pop("spans")}
        benchlib.dump_json(RESULTS / f"{stem}-spans.json", spans)
        extra["largest_self_time"] = report_layers(extra["layers"], extra["op_wall_s"])
        print(f"largest self time: {extra['largest_self_time']}")
        declared = spec["per_layer"]
    else:
        metrics, samples, extra, records, failed = untraced(workload_class, args, import_s)
        declared = spec["end_to_end"]
    print("metrics:")
    for entry in declared:
        name = entry["name"]
        print_metric(name, metrics[name], entry["unit"], entry["better"], samples[name])
    if not args.trace:
        ops = samples["ops_per_s"]
        print("not gated (printed for reference):")
        p95 = extra["op_latency_p95_ms"]
        note = "" if p95 is not None else " (needs >=10 samples beyond p95)"
        print_metric("op_latency_p95_ms", p95, "ms", "lower", ops, note)
        if "fc_reduction_pct" in extra:
            print_metric("fc_reduction_pct", extra["fc_reduction_pct"], "%", "higher", ops)
        print_metric("error_rate", extra["error_rate"], "fraction", "lower", len(records))
        if "anneal_invariant_drift_max" in extra:
            drift = extra["anneal_invariant_drift_max"]
            print_metric("anneal_invariant_drift_max", drift, "trace", "lower", ops)
    benchlib.dump_json(
        RESULTS / f"{stem}.json",
        {"env": env, "metrics": metrics, "samples": samples, "extra": extra, "failed": failed},
    )
    summary = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            entry["name"]: {"value": float(metrics[entry["name"]]), "unit": entry["unit"]}
            for entry in declared
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
