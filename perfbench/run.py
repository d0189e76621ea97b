"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload engine-lendb --seed 1 --seconds 30 --trace 0

Run from the repository root. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Every answer is checked against a float64 brute-force
oracle; a wrong or missing answer makes the run exit with code 1. The
full record (host facts, detail, errors) and, when traced, the spans
are written under ``.perfbench_work/out/``. See perfbench/README.md.
"""
import argparse
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("engine-lendb", "spark-warm", "spark-cold")

#: metrics reported with --trace 0 on every workload, and their units
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sofa.query_rel.p50": "ratio",
}

_INDEX = {"build_s": "s", "n_leaves": "count", "root_fanout": "count",
          "mean_leaf_fill": "ratio", "mean_depth": "count",
          "leaves_visited": "count", "series_lbd_checked": "count",
          "series_ed_computed": "count", "pruning_ratio": "ratio",
          "ed_useful_ratio": "ratio", "query_ms": "ms"}
_TRACED_LAYERS = ("bench", "summaries", "core", "index", "baselines", "distrib")

#: metrics reported with --trace 1 on every workload, and their units
PER_LAYER = {
    "summaries.sfa.fit_s": "s",
    "summaries.sfa.words_us_per_series": "us",
    "summaries.sax.words_us_per_series": "us",
    "summaries.sfa.query_transform_us": "us",
    "summaries.simd.series_lbd_ns": "ns",
    "summaries.simd.leaf_lbd_us": "us",
    "summaries.sfa.tlb_mean": "ratio",
    "summaries.sax.tlb_mean": "ratio",
    "summaries.lbd_violations": "count",
    "core.distance.ed2_batch_ns_per_pair": "ns",
    **{f"index.{m}.{key}": unit for m in ("sofa", "messi")
       for key, unit in _INDEX.items()},
    "baselines.ucr.query_ms": "ms",
    "baselines.flat.query_ms": "ms",
    "distrib.dataset.ingest_s": "s",
    "distrib.mcb.fit_s": "s",
    "distrib.empty_action_s": "s",
    "distrib.ship_s": "s",
    "distrib.exact_knn.cold_s": "s",
    "distrib.exact_knn.warm_s": "s",
    "distrib.warm_over_cold": "ratio",
    "distrib.result_rows": "count",
    "spark.session_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
    **{f"trace.self_s.{layer}": "s" for layer in _TRACED_LAYERS},
}


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-wrong-answer", action="store_true",
                   help="corrupt the first answer checked; the run must fail")
    return p.parse_args(argv)


def measure(args, run, cores: int) -> None:
    """Run the workload; with tracing, also the layers it does not use."""
    import engine_workload
    import spark_workload
    import sparkenv

    traced = bool(args.trace)
    spark = None
    try:
        if args.workload == "engine-lendb":
            X, Q = engine_workload.run_engine(run)
        if args.workload != "engine-lendb" or traced:
            t0 = time.perf_counter()
            with run.tracer.span("spark.session"):
                spark = sparkenv.start()
            run.detail["spark.session_s"] = time.perf_counter() - t0
            run.detail["host"]["spark"] = sparkenv.facts(spark, cores)
        if args.workload == "engine-lendb":
            if traced:
                run.detail["layers"].update(spark_workload.probe_dataset(
                    run, spark, cores, X, Q, engine_workload.K))
        else:
            spark_workload.run_spark(run, spark, cores,
                                     spark_workload.WORKLOADS[args.workload])
    finally:
        if spark is not None:
            sparkenv.stop(spark)


def main(argv=None) -> int:
    args = parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no library source at {SRC}", file=sys.stderr)
        return 2
    cores = len(os.sched_getaffinity(0))
    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    sys.path.insert(0, SRC)
    import repro  # noqa: F401 - pins BLAS threads before numpy loads
    import sparkenv

    sparkenv.configure(WORK, SRC, cores)

    from host import host_facts
    from measure import Run, peak_rss_mb
    from tracing import Tracer

    run = Run(args.seed, args.seconds, Tracer(bool(args.trace)),
              args.inject_wrong_answer)
    run.detail["host"] = host_facts(args.seed)
    try:
        measure(args, run, cores)
    except Exception:  # noqa: BLE001 - the run cannot report; say why
        traceback.print_exc()
        return 1
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")

    if args.trace:
        per = run.detail["layers"]
        per["spark.session_s"] = run.detail["spark.session_s"]
        per["failed_frac"] = run.failed / max(1, run.attempted)
        per["trace.spans"] = len(run.tracer.spans)
        self_s = run.tracer.self_times()
        for layer in _TRACED_LAYERS:
            per[f"trace.self_s.{layer}"] = self_s.get(layer, 0.0)
        wanted = PER_LAYER
        values = {name: per.get(name) for name in wanted}
    else:
        wanted = END_TO_END
        values = {name: run.metrics.get(name, (None,))[0] for name in wanted}
    missing = [n for n, v in values.items() if v is None]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "attempted": run.attempted,
              "failed": run.failed, "errors": run.errors,
              "metrics": values, "detail": run.detail}
    with open(os.path.join(WORK, "out", f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, default=float)
    if args.trace:
        run.tracer.write(os.path.join(WORK, "out", f"{tag}-spans.json"))

    for err in run.errors:
        print(f"perfbench: wrong answer: {err}", file=sys.stderr)
    print(json.dumps({"host": run.detail["host"],
                      "latency": run.detail.get("latency")}, default=float))
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {n: {"value": float(v), "unit": wanted[n]}
                    for n, v in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
