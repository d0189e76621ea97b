"""Per-layer measurements of the in-process engine layers.

Every function times public calls of one ``repro`` layer from outside on
a fixed query set, so counts repeat exactly for a given seed. The
collection is the one an engine indexes: the whole dataset in-process,
or one partition's rows on the Spark workloads (what an executor builds).
"""
import numpy as np

from repro.baselines import flat_knn, ucr_knn
from repro.core.distance import ed2_batch
from repro.index.tree import SearchStats, TreeIndex
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import batch_interval_mindist2, batch_mindist2

from measure import median_time

#: an LBD counts as a violation when it exceeds the true distance by more
#: than this (absolute, on distances of z-normalized series)
LBD_TOL = 1e-6
#: series of the collection the TLB is averaged over (the first rows)
TLB_SAMPLE = 2000


def summaries_layer(tr, X: np.ndarray, Qf: np.ndarray, sofa: TreeIndex,
                    messi: TreeIndex, seed: int) -> dict[str, float]:
    sfa, sax = sofa.summary, messi.summary
    out = {}
    rng = np.random.default_rng(seed)
    sample = X[rng.choice(len(X), size=min(len(X), max(64, len(X) // 100)),
                          replace=False)].astype(np.float64)
    with tr.span("summaries.sfa.fit"):
        out["summaries.sfa.fit_s"] = median_time(
            lambda: SFASummary.fit(sample, l=sfa.l, alphabet=sfa.alphabet), 3)
    for name, s in (("sfa", sfa), ("sax", sax)):
        with tr.span(f"summaries.{name}.words"):
            out[f"summaries.{name}.words_us_per_series"] = \
                median_time(lambda: s.words(X), 3) / len(X) * 1e6
    with tr.span("summaries.sfa.query_transform"):
        out["summaries.sfa.query_transform_us"] = 1e6 * float(np.median([
            median_time(lambda: sfa.words_from_approx(sfa.approx(q[None, :])), 5)
            for q in Qf]))
    qv = sfa.approx(Qf.astype(np.float64))
    with tr.span("summaries.simd.batch_mindist2"):
        out["summaries.simd.series_lbd_ns"] = 1e9 / len(sofa.words_perm) * float(
            np.median([median_time(lambda: batch_mindist2(
                v, sofa.words_perm, sfa.edges, sfa.weights), 3) for v in qv]))
    with tr.span("summaries.simd.batch_interval_mindist2"):
        out["summaries.simd.leaf_lbd_us"] = 1e6 * float(np.median([
            median_time(lambda: batch_interval_mindist2(
                v, sofa.leaf_lo, sofa.leaf_hi, sfa.weights), 5) for v in qv]))
    # tightness of the lower bound over query x sample pairs, unclipped
    S = X[:TLB_SAMPLE]
    Q64, S64 = Qf.astype(np.float64), S.astype(np.float64)
    ed = np.sqrt(((Q64[:, None, :] - S64[None, :, :]) ** 2).sum(axis=2))
    violations = 0
    for name, s in (("sfa", sfa), ("sax", sax)):
        with tr.span(f"summaries.{name}.tlb"):
            words = s.words(S)
            lbd = np.sqrt(np.stack([batch_mindist2(v, words, s.edges, s.weights)
                                    for v in s.approx(Q64)]))
        mask = ed > 1e-12
        out[f"summaries.{name}.tlb_mean"] = float(np.mean(lbd[mask] / ed[mask]))
        violations += int((lbd > ed + LBD_TOL).sum())
    out["summaries.lbd_violations"] = violations
    return out


def distance_layer(tr, X: np.ndarray, Qf: np.ndarray) -> dict[str, float]:
    with tr.span("core.distance.ed2_batch"):
        t = median_time(lambda: ed2_batch(Qf, X), 5)
    return {"core.distance.ed2_batch_ns_per_pair": t / (len(Qf) * len(X)) * 1e9}


def index_layer(tr, name: str, index: TreeIndex, Qf: np.ndarray, k: int,
                build_s: float) -> dict[str, float]:
    """Shape and mean per-query GEMINI work counters of one tree."""
    out = {f"index.{name}.build_s": build_s}
    for key, v in index.structure_stats().items():
        out[f"index.{name}.{key}"] = v
    tot = SearchStats()
    ms = []
    for qi, q in enumerate(Qf):
        st = SearchStats()
        with tr.span(f"index.{name}.knn", qi):
            ms.append(median_time(lambda: index.knn(q, k=k, stats=st), 1) * 1e3)
        for f in ("leaves_visited", "series_lbd_checked", "series_ed_computed"):
            setattr(tot, f, getattr(tot, f) + getattr(st, f))
    nq = len(Qf)
    out[f"index.{name}.leaves_visited"] = tot.leaves_visited / nq
    out[f"index.{name}.series_lbd_checked"] = tot.series_lbd_checked / nq
    out[f"index.{name}.series_ed_computed"] = tot.series_ed_computed / nq
    out[f"index.{name}.pruning_ratio"] = \
        1.0 - tot.series_ed_computed / (nq * max(1, len(index.X)))
    out[f"index.{name}.ed_useful_ratio"] = \
        nq * min(k, len(index.X)) / max(1, tot.series_ed_computed)
    out[f"index.{name}.query_ms"] = float(np.median(ms))
    return out


def baselines_layer(tr, X: np.ndarray, Qf: np.ndarray, k: int) -> dict[str, float]:
    ms = []
    for qi, q in enumerate(Qf):
        with tr.span("baselines.ucr_knn", qi):
            ms.append(median_time(lambda: ucr_knn(X, q[None, :], k=k), 1) * 1e3)
    with tr.span("baselines.flat_knn"):
        flat = median_time(lambda: flat_knn(X, Qf, k=k), 5)
    return {"baselines.ucr.query_ms": float(np.median(ms)),
            "baselines.flat.query_ms": flat / len(Qf) * 1e3}


def engine_layers(tr, X, Qf, sofa, messi, build_s: dict, k: int,
                  seed: int) -> dict[str, float]:
    """Every in-process layer metric for one collection and its two trees."""
    out = summaries_layer(tr, X, Qf, sofa, messi, seed)
    out.update(distance_layer(tr, X, Qf))
    for name, idx in (("sofa", sofa), ("messi", messi)):
        out.update(index_layer(tr, name, idx, Qf, k, build_s[name]))
    out.update(baselines_layer(tr, X, Qf, k))
    return out
