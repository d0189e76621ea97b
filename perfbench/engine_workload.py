"""``engine-lendb``: the in-process engines on a LenDB analog, no Spark.

Set-up builds ``build_sofa`` and ``build_messi`` (SETUP_REPS times; the
median is ``setup_s``). One client then answers held-out queries one at
a time, k=1, each through SOFA, MESSI and the UCR scan, until the run's
seconds are spent; ``flat_knn`` then answers FLAT_QUERIES at once.
Each SOFA query runs between two reference jobs (``measure.Reference``),
which give its latency relative to the host's current speed.
"""
import time

import numpy as np

from repro.baselines import flat_knn, ucr_knn
from repro.index import build_messi, build_sofa

import layers
from inputs import COLLECTION_SEED, collection_and_queries
from measure import Reference, percentile, supported
from oracle import Oracle

DATASET, SCALE, K = "LenDB", 2.0, 1
QUERY_POOL = 1000
SETUP_REPS = 5
FLAT_REPS = 11
FLAT_QUERIES = 100
#: fixed queries of the traced pass; its counters repeat exactly
COUNTER_QUERIES = 20


def setup(run, X, leaf):
    tr = run.tracer
    totals, builds = [], {"sofa": [], "messi": []}
    for rep in range(SETUP_REPS):
        with tr.span("bench.setup", rep):
            t0 = time.perf_counter()
            with tr.span("index.build_sofa", rep):
                sofa = build_sofa(X, leaf_size=leaf, seed=COLLECTION_SEED)
            t1 = time.perf_counter()
            with tr.span("index.build_messi", rep):
                messi = build_messi(X, leaf_size=leaf)
            t2 = time.perf_counter()
        builds["sofa"].append(t1 - t0)
        builds["messi"].append(t2 - t1)
        totals.append(t2 - t0)
    run.metric("setup_s", np.median(totals), "s")
    return sofa, messi, {m: float(np.median(v)) for m, v in builds.items()}


def closed_loop(run, X, Q, sofa, messi, alternate_trace: bool):
    """Answer queries until the run's seconds are spent, each through
    SOFA, MESSI and the UCR scan in turn, so all three methods see the
    same machine conditions; each SOFA query also runs between two
    reference jobs. With ``alternate_trace`` queries are traced in the
    pattern T U U T, so traced and untraced queries of one run give the
    tracing overhead."""
    tr = run.tracer
    traced = tr.enabled
    calls = {"sofa": ("index.sofa.knn", lambda q: sofa.knn(q, k=K)),
             "messi": ("index.messi.knn", lambda q: messi.knn(q, k=K)),
             "ucr": ("baselines.ucr_knn", lambda q: ucr_knn(X, q[None, :], k=K)[0])}
    ms = {m: [] for m in calls}
    ref, sofa_rel = Reference(), []
    answers = {m: [] for m in calls}
    sofa_traced = {True: [], False: []}
    qi = 0
    t_end = time.perf_counter() + run.seconds
    while time.perf_counter() < t_end and qi < len(Q):
        tr.enabled = traced and (not alternate_trace or qi % 4 in (0, 3))
        for m, (span, fn) in calls.items():
            if m == "sofa":
                before = ref.seconds()
            t0 = time.perf_counter()
            try:
                with tr.span(span, qi):
                    res = fn(Q[qi])
            except Exception:  # noqa: BLE001 - counted as a failed answer
                run.raised(f"{m} query {qi}", 1)
                res = None
            dt = time.perf_counter() - t0
            if m == "sofa":
                sofa_rel.append(ref.per_unit(dt, before, ref.seconds()))
            ms[m].append(dt * 1e3)
            answers[m].append(res)
        sofa_traced[tr.enabled].append(ms["sofa"][-1])
        qi += 1
    tr.enabled = traced
    return ms, sofa_rel, ref, answers, sofa_traced


def run_engine(run):
    tr = run.tracer
    X, Q = collection_and_queries(DATASET, SCALE, QUERY_POOL, run.seed)
    sofa, messi, build_s = setup(run, X, len(X) // 80)

    ms, sofa_rel, ref, answers, sofa_traced = closed_loop(
        run, X, Q, sofa, messi, alternate_trace=tr.enabled)
    Qf = Q[:FLAT_QUERIES]
    flat_s, flat_ans = [], None
    for rep in range(FLAT_REPS):
        t0 = time.perf_counter()
        try:
            with tr.span("baselines.flat_knn", rep):
                flat_ans = flat_knn(X, Qf, k=K)
        except Exception:  # noqa: BLE001 - counted as failed answers
            run.raised("flat batch", len(Qf))
            flat_ans = None
            break
        flat_s.append(time.perf_counter() - t0)

    oracle = Oracle(X)
    with tr.span("bench.oracle"):
        for m, got in answers.items():
            ok = [i for i, a in enumerate(got) if a is not None]
            run.verify(m, oracle, Q[ok], K, [got[i] for i in ok])
        if flat_ans is not None:
            run.verify("flat", oracle, Qf, K, flat_ans)

    run.metric("sofa.query_rel.p50", percentile(sofa_rel, 50), "ratio")
    lat = {}
    for m, v in ms.items():
        lat[f"{m}.queries"] = len(v)
        lat[f"{m}.query_ms.p50"] = percentile(v, 50)
        if supported(len(v), 90):
            lat[f"{m}.query_ms.p90"] = percentile(v, 90)
    if flat_s:
        lat["flat.query_ms.p50"] = float(np.median(flat_s)) / len(Qf) * 1e3
    lat["reference_ms.p50"] = percentile(ref.times, 50) * 1e3
    run.detail["latency"] = lat

    if tr.enabled:
        per = layers.engine_layers(tr, X, Q[:COUNTER_QUERIES], sofa, messi,
                                   build_s, K, run.seed)
        if sofa_traced[True] and sofa_traced[False]:
            per["trace.overhead_ms"] = (percentile(sofa_traced[True], 50)
                                        - percentile(sofa_traced[False], 50))
        run.detail["layers"] = per
    return X, Q
