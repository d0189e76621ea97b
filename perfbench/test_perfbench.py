"""The benchmark's own tests: the answer check catches wrong answers,
count metrics repeat exactly, and the reported metrics match
BENCHMARK.json.

    python -m pytest perfbench -q
"""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]
# Spark's Python workers import repro too
os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")

from repro.baselines import flat_knn  # noqa: E402
from repro.datasets import make_dataset, make_queries  # noqa: E402
from repro.index import build_messi, build_sofa  # noqa: E402

import layers  # noqa: E402
import run as bench  # noqa: E402
from measure import Reference, Run, supported  # noqa: E402
from oracle import Oracle, check_batch  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def small():
    X = make_dataset("LenDB", scale=0.05, seed=3)
    Q = make_queries("LenDB", 8, scale=0.05, seed=3)
    return X, Q


def test_oracle_accepts_library_answers(small):
    X, Q = small
    assert check_batch(Oracle(X), Q, 5, flat_knn(X, Q, k=5)) == []


@pytest.mark.parametrize("corrupt", ["id", "dist", "drop", "duplicate", "order"])
def test_corrupted_answer_is_caught(small, corrupt):
    X, Q = small
    answers = flat_knn(X, Q, k=3)
    d, sid = answers[2][0]
    if corrupt == "id":
        answers[2][0] = (d, (sid + 1) % len(X))
    elif corrupt == "dist":
        answers[2][0] = (d * 1.01, sid)
    elif corrupt == "drop":
        answers[2] = answers[2][:2]
    elif corrupt == "duplicate":
        answers[2][1] = answers[2][0]
    else:
        answers[2] = answers[2][::-1]
    bad = check_batch(Oracle(X), Q, 3, answers)
    assert len(bad) == 1 and bad[0].startswith("query 2")


def test_tie_within_tolerance_accepts_either_id():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 16)).astype(np.float32)
    X[7] = X[3]  # exact duplicate: ids 3 and 7 tie
    q = X[3] + np.float32(0.01)
    oracle = Oracle(X)
    (d3, _), = oracle.knn(q[None, :], 1)[0]
    assert oracle.knn(q[None, :], 1)[0][0][1] == 3  # oracle breaks ties by id
    assert check_batch(oracle, q[None, :], 1, [[(d3, 7)]]) == []


def test_injected_wrong_answer_counts_as_failed(small):
    X, Q = small
    run = Run(0, 1.0, Tracer(False), inject_wrong_answer=True)
    oracle = Oracle(X)
    run.verify("flat", oracle, Q, 1, flat_knn(X, Q, k=1))
    run.verify("flat", oracle, Q, 1, flat_knn(X, Q, k=1))
    assert (run.attempted, run.failed) == (2 * len(Q), 1)


def test_count_metrics_repeat_exactly(small):
    X, Q = small
    counted = ("n_leaves", "root_fanout", "mean_leaf_fill", "mean_depth",
               "leaves_visited", "series_lbd_checked", "series_ed_computed",
               "pruning_ratio", "ed_useful_ratio")

    def counts():
        leaf = len(X) // 80
        sofa = build_sofa(X, leaf_size=leaf, seed=3)
        messi = build_messi(X, leaf_size=leaf)
        tr = Tracer(False)
        out = {k: v for k, v in layers.summaries_layer(tr, X, Q, sofa, messi, 3).items()
               if k.endswith(("tlb_mean", "lbd_violations"))}
        for name, idx in (("sofa", sofa), ("messi", messi)):
            per = layers.index_layer(tr, name, idx, Q, 3, 0.0)
            out.update({k: v for k, v in per.items() if k.endswith(counted)})
        return out

    first, second = counts(), counts()
    assert len(first) == 2 * len(counted) + 3
    assert first == second
    assert first["summaries.lbd_violations"] == 0


def test_result_rows_repeat_exactly(spark, small):
    import spark_workload as sw

    X, Q = small
    rows = []
    for _ in range(2):
        run = Run(3, 1.0, Tracer(False))
        sess = sw.Session(run, spark, X, 2, 3, token_base=None)
        sess.ingest(0)
        res = sw.checked_action(run, sess, Oracle(X), Q, 0, None)
        rows.append(res[1])
        assert (run.attempted, run.failed) == (len(Q), 0)
        sess.df.unpersist()
    assert rows == [len(Q) * 3] * 2


def test_self_time_subtracts_children():
    tr = Tracer(True)
    with tr.span("bench.query", 0):
        with tr.span("index.sofa.knn", 0):
            pass
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"] and inner["req"] == 0
    st = tr.self_times()
    total = outer["end"] - outer["start"]
    assert st["bench"] + st["index"] == pytest.approx(total)


def test_percentile_rule():
    assert supported(100, 90) and not supported(99, 90)
    assert supported(20, 50) and not supported(19, 50)


def test_reference_job_is_fixed():
    a, b = Reference(), Reference()
    assert a.job() == b.job() == a.job()
    assert a.per_unit(3.0, 1.0, 2.0) == 2.0
    assert len(a.times) == 0


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == bench.END_TO_END
    assert per == bench.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)


def _cli(*extra):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         "engine-lendb", "--seed", "5", "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_cli_reports_every_end_to_end_metric():
    p = _cli()
    assert p.returncode == 0, p.stderr
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == set(bench.END_TO_END)


def test_cli_fails_on_injected_wrong_answer():
    p = _cli("--inject-wrong-answer")
    assert p.returncode == 1
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert not last["correct"] and last["failed"] == 1
