"""``spark-warm`` and ``spark-cold``: ``exact_knn(method="sofa")`` on Spark.

Set-up (SETUP_REPS times; the median is ``setup_s``) ingests the series
(``series_df`` + cache + count), learns the SFA summary with
``fit_sfa_spark`` at 1 % and runs the first ``exact_knn`` action. One
client then issues actions of BATCH fresh held-out queries, each
collected with ``toPandas``, until the run's seconds are spent.
``spark-warm`` passes a ``cache_token``; ``spark-cold`` passes none, so
every action ships, transforms and builds before it answers. Each action
runs between two reference jobs (``measure.Reference``), which give its
time relative to the host's current speed.
"""
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.distrib import exact_knn, fit_sfa_spark, series_df, to_matrix
from repro.index import build_messi, build_sofa

import layers
from inputs import COLLECTION_SEED, collection_and_queries
from measure import Reference, median_time, percentile
from oracle import Oracle

BATCH = 20
QUERY_POOL = 2000
SETUP_REPS = 3
SAMPLE_FRACTION = 0.01
#: actions per probe of a single distrib cost (traced run only)
PROBE_REPS = 7
#: fixed batches the cold and warm paths both answer (traced run only)
PROBE_BATCHES = 5


@dataclass(frozen=True)
class SparkWorkload:
    dataset: str
    scale: float
    k: int
    warm: bool


WORKLOADS = {
    "spark-warm": SparkWorkload("LenDB", 1.0, 10, warm=True),
    "spark-cold": SparkWorkload("SIFT1b", 2.0, 1, warm=False),
}


def rows_to_answers(pdf: pd.DataFrame, nq: int) -> list[list[tuple[float, int]]]:
    out: list[list[tuple[float, int]]] = [[] for _ in range(nq)]
    for qid, sid, d in pdf.sort_values(["query_id", "rank"])[
            ["query_id", "series_id", "dist"]].itertuples(index=False):
        out[int(qid)].append((float(d), int(sid)))
    return out


class Session:
    """An ingested dataset on Spark and everything one action needs."""

    def __init__(self, run, spark, X, partitions: int, k: int, token_base):
        self.run, self.spark, self.X, self.k = run, spark, X, k
        self.partitions = partitions
        self.leaf = len(X) // 80
        self.token_base = token_base
        self.df = self.summary = None

    def ingest(self, rep: int) -> tuple[float, float]:
        tr = self.run.tracer
        if self.df is not None:
            self.df.unpersist()
        t0 = time.perf_counter()
        with tr.span("distrib.series_df", rep):
            df = series_df(self.spark, self.X,
                           num_partitions=self.partitions).cache()
            df.count()
        t1 = time.perf_counter()
        with tr.span("distrib.fit_sfa_spark", rep):
            self.summary = fit_sfa_spark(df, fraction=SAMPLE_FRACTION,
                                         seed=COLLECTION_SEED)
        t2 = time.perf_counter()
        self.df = df
        self.token = (f"perfbench:{self.token_base}:{rep}"
                      if self.token_base is not None else None)
        return t1 - t0, t2 - t1

    def action(self, Qb: np.ndarray, req: int, token) -> pd.DataFrame:
        with self.run.tracer.span("distrib.exact_knn", req):
            return exact_knn(self.df, Qb, k=self.k, method="sofa",
                             summary=self.summary, leaf_size=self.leaf,
                             cache_token=token).toPandas()


def checked_action(run, sess, oracle, Qb, req, token):
    """One action; its answers are checked against the oracle. Returns
    (seconds, result rows) or None when it raised."""
    t0 = time.perf_counter()
    try:
        pdf = sess.action(Qb, req, token)
    except Exception:  # noqa: BLE001 - counted as failed answers
        run.raised(f"action {req}", len(Qb))
        return None
    dt = time.perf_counter() - t0
    with run.tracer.span("bench.oracle", req):
        run.verify(f"action {req}", oracle, Qb, sess.k,
                   rows_to_answers(pdf, len(Qb)))
    return dt, len(pdf)


def setup(run, sess, oracle, Q, reps: int) -> dict[str, list[float]]:
    """``reps`` set-ups; seconds of each ingest, fit and whole set-up."""
    ingest, fit, total = [], [], []
    for rep in range(reps):
        with run.tracer.span("bench.setup", rep):
            t0 = time.perf_counter()
            a, b = sess.ingest(rep)
            first = checked_action(run, sess, oracle, Q[:BATCH], -1 - rep,
                                   sess.token)
            total.append(time.perf_counter() - t0)
        ingest.append(a)
        fit.append(b)
        if first is None:
            raise RuntimeError("the first exact_knn action of set-up failed")
    return {"ingest_s": ingest, "fit_s": fit, "total_s": total}


def setup_layers(times: dict[str, list[float]]) -> dict[str, float]:
    return {"distrib.dataset.ingest_s": float(np.median(times["ingest_s"])),
            "distrib.mcb.fit_s": float(np.median(times["fit_s"]))}


def probe_dataset(run, spark, P: int, X, Q, k: int) -> dict[str, float]:
    """The distrib layer metrics for a workload that does not use Spark:
    one ingest of its collection, then the probe."""
    sess = Session(run, spark, X, P, k, token_base=None)
    per = setup_layers(setup(run, sess, Oracle(X), Q, reps=1))
    per.update(distrib_probe(run, sess, Oracle(X), Q))
    sess.df.unpersist()
    return per


def closed_loop(run, sess, oracle, Q, alternate_trace: bool):
    """Actions of fresh batches until the run's seconds are spent, each
    between two reference jobs. With ``alternate_trace`` actions are
    traced in the pattern T U U T, which balances any period-two pattern
    of the actions themselves. Returns the seconds of traced and
    untraced actions, each action's seconds per query over the reference
    seconds, and the reference."""
    tr = run.tracer
    traced = tr.enabled
    secs = {True: [], False: []}
    ref, rel = Reference(), []
    b = 1  # batch 0 answered during set-up
    t_end = time.perf_counter() + run.seconds
    while time.perf_counter() < t_end and (b + 1) * BATCH <= len(Q):
        tr.enabled = traced and (not alternate_trace or b % 4 in (1, 2))
        before = ref.seconds()
        res = checked_action(run, sess, oracle, Q[b * BATCH:(b + 1) * BATCH],
                             b, sess.token)
        after = ref.seconds()
        if res is not None:
            secs[tr.enabled].append(res[0])
            rel.append(ref.per_unit(res[0] / BATCH, before, after))
        b += 1
    tr.enabled = traced
    return secs, rel, ref


def distrib_probe(run, sess, oracle, Q) -> dict[str, float]:
    """Fixed costs of the Spark layer on an ingested dataset."""
    tr, spark, P = run.tracer, sess.spark, sess.partitions
    out = {}

    def drain(batches):
        for _ in batches:
            pass
        yield pd.DataFrame({"id": [0]})

    def ship(batches):
        chunks = [b for b in batches if len(b)]
        n = len(to_matrix(pd.concat(chunks, ignore_index=True))[0]) if chunks else 0
        yield pd.DataFrame({"id": [n]})

    tiny = spark.range(0, P, 1, P)
    with tr.span("distrib.empty_action"):
        out["distrib.empty_action_s"] = median_time(
            lambda: tiny.mapInPandas(drain, schema="id long").toPandas(), PROBE_REPS)
    with tr.span("distrib.ship"):
        out["distrib.ship_s"] = median_time(
            lambda: sess.df.mapInPandas(ship, schema="id long").toPandas(), PROBE_REPS)
    # the same batches through the cold path, then (after one action that
    # fills the executor cache) through the warm path
    token = f"perfbench-probe:{run.seed}:{sess.token_base}"
    Qp = Q[-PROBE_BATCHES * BATCH:]
    cold, warm, rows = [], [], []
    for tok, acc in ((None, cold), (token, warm)):
        if tok is not None:
            checked_action(run, sess, oracle, Qp[:BATCH], -100, tok)
        for i in range(PROBE_BATCHES):
            res = checked_action(run, sess, oracle,
                                 Qp[i * BATCH:(i + 1) * BATCH], -200 - i, tok)
            if res is not None:
                acc.append(res[0])
                rows.append(res[1])
    out["distrib.exact_knn.cold_s"] = float(np.median(cold))
    out["distrib.exact_knn.warm_s"] = float(np.median(warm))
    out["distrib.warm_over_cold"] = out["distrib.exact_knn.warm_s"] \
        / out["distrib.exact_knn.cold_s"]
    out["distrib.result_rows"] = float(min(rows))
    return out


def partition_engine(run, sess):
    """Partition 0's rows, as ``exact_knn``'s executors index them."""
    from pyspark.sql import functions as F

    pids = sess.df.select(F.spark_partition_id().alias("pid"), "id").toPandas()
    ids = np.sort(pids.loc[pids["pid"] == 0, "id"].to_numpy(dtype=np.int64))
    Xp = np.ascontiguousarray(sess.X[ids], dtype=np.float32)
    tr = run.tracer
    t0 = time.perf_counter()
    with tr.span("index.build_sofa"):
        sofa = build_sofa(Xp, ids=ids, summary=sess.summary, leaf_size=sess.leaf)
    t1 = time.perf_counter()
    with tr.span("index.build_messi"):
        messi = build_messi(Xp, ids=ids, leaf_size=sess.leaf)
    t2 = time.perf_counter()
    return Xp, sofa, messi, {"sofa": t1 - t0, "messi": t2 - t1}


def run_spark(run, spark, P: int, spec: SparkWorkload):
    X, Q = collection_and_queries(spec.dataset, spec.scale, QUERY_POOL, run.seed)
    oracle = Oracle(X)
    sess = Session(run, spark, X, P, spec.k,
                   token_base=spec.dataset if spec.warm else None)
    times = setup(run, sess, oracle, Q, SETUP_REPS)
    run.metric("setup_s", np.median(times["total_s"]), "s")
    run.detail["setup"] = times
    secs, rel, ref = closed_loop(run, sess, oracle, Q,
                            alternate_trace=run.tracer.enabled)
    allsecs = secs[True] + secs[False]
    if not allsecs:
        raise RuntimeError("no exact_knn action completed")
    run.metric("sofa.query_rel.p50", percentile(rel, 50), "ratio")
    run.detail["latency"] = {"actions": len(allsecs), "queries_per_action": BATCH,
                             "sofa.query_ms.p50": percentile(allsecs, 50) / BATCH * 1e3,
                             "sofa.batch_s.p50": percentile(allsecs, 50),
                             "reference_ms.p50": percentile(ref.times, 50) * 1e3,
                             "sofa.batch_s.all": allsecs}
    if run.tracer.enabled:
        per = setup_layers(times)
        per.update(distrib_probe(run, sess, oracle, Q))
        Xp, sofa, messi, build_s = partition_engine(run, sess)
        per.update(layers.engine_layers(run.tracer, Xp, Q[BATCH:2 * BATCH],
                                        sofa, messi, build_s, spec.k, run.seed))
        if secs[True] and secs[False]:
            per["trace.overhead_ms"] = (percentile(secs[True], 50)
                                        - percentile(secs[False], 50)) * 1e3
        run.detail["layers"] = per
    sess.df.unpersist()
