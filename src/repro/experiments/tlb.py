"""Distributed TLB (tightness of lower bound) evaluation — Tables V/VI.

TLB = mean over (query, series) pairs of ``LBD / true distance``
(Section V-E). The series side is partitioned in Spark; each partition
computes, for every candidate summarization, the vectorized LBD of all
queries against its series and emits partial (sum, count); a Spark
aggregation finishes the mean. One Spark action evaluates *all*
(method, alphabet) variants of one dataset. Ratios are not clipped: a
pair whose LBD exceeds the true distance by more than ``LBD_TOL`` is a
soundness bug in the summary or the kernel, and ``tlb_spark`` raises.
"""
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.distance import ed2_batch
from repro.distrib.dataset import series_df
from repro.summaries.common import SymbolicSummary
from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_mindist2

#: paper ablation variants (Table V/VI rows)
TLB_METHODS = ("SFA ED +VAR", "SFA EW +VAR", "iSAX")
#: an LBD counts as a violation when it exceeds the true distance by more
#: than this (absolute, on distances of z-normalized series)
LBD_TOL = 1e-6


def fit_variants(train: np.ndarray, alphabets, l: int = 16) -> dict[str, SymbolicSummary]:
    """Fit every (method, alphabet) summary on the training split.

    Keys are ``f"{method}|{alphabet}"``.
    """
    n = train.shape[1]
    out: dict[str, SymbolicSummary] = {}
    for a in alphabets:
        out[f"SFA ED +VAR|{a}"] = SFASummary.fit(train, l=l, alphabet=a,
                                                 binning="equi_depth")
        out[f"SFA EW +VAR|{a}"] = SFASummary.fit(train, l=l, alphabet=a,
                                                 binning="equi_width")
        out[f"iSAX|{a}"] = SAXSummary(n, l=l, alphabet=a)
    return out


def tlb_spark(spark: SparkSession, eval_x: np.ndarray, queries: np.ndarray,
              summaries: dict[str, SymbolicSummary],
              partitions: int = 8) -> dict[str, float]:
    """Mean TLB of each summary over all (query, series) pairs — one action.

    Raises ``ValueError`` if any summary's LBD exceeds the true distance
    by more than ``LBD_TOL`` on any pair.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    df = series_df(spark, eval_x, num_partitions=partitions)

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        for pdf in batches:
            if not len(pdf):
                continue
            X = np.stack(pdf["series"].to_numpy())
            true = np.sqrt(ed2_batch(queries, X))  # (Q, N)
            mask = true > 1e-12
            labels, sums, cnts, bad = [], [], [], []
            for label, s in summaries.items():
                words = s.words(X)
                qv = s.approx(queries)
                lbd = np.sqrt(np.stack([
                    batch_mindist2(qv[i], words, s.edges, s.weights)
                    for i in range(len(queries))]))
                labels.append(label)
                sums.append(float((lbd[mask] / true[mask]).sum()))
                cnts.append(int(mask.sum()))
                bad.append(int((lbd > true + LBD_TOL).sum()))
            yield pd.DataFrame({"label": labels, "s": sums, "c": cnts,
                                "v": bad})

    agg = (df.mapInPandas(run, schema="label string, s double, c long, v long")
           .groupBy("label").agg(F.sum("s").alias("s"), F.sum("c").alias("c"),
                                 F.sum("v").alias("v"))
           .collect())
    violations = {r["label"]: r["v"] for r in agg if r["v"]}
    if violations:
        raise ValueError(f"LBD > ED + {LBD_TOL} on (query, series) pairs, "
                         f"per summary: {violations}")
    return {r["label"]: (r["s"] / r["c"] if r["c"] else 1.0) for r in agg}
