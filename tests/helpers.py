"""Shared test utilities: data factories, a brute-force oracle, and the
scalar early-abandoning kernels of the paper (UCR-style ED, Algorithm 3)."""
import numpy as np

from repro.core.distance import ed2_batch
from repro.core.znorm import znormalize


def znormed(n_series: int, length: int, seed: int = 0) -> np.ndarray:
    """Random z-normalized float32 series batch."""
    g = np.random.default_rng(seed)
    return znormalize(g.standard_normal((n_series, length)).astype(np.float32))


def brute_knn(X: np.ndarray, q: np.ndarray, k: int) -> list[tuple[float, int]]:
    """Ground-truth k-NN: (distance, id) ascending, ties broken by id."""
    d2 = ed2_batch(q[None, :], X)[0]
    order = np.lexsort((np.arange(len(X)), d2))[:k]
    return [(float(np.sqrt(d2[i])), int(i)) for i in order]


def ed2_early_abandon(a: np.ndarray, b: np.ndarray, bsf2: float, chunk: int = 32) -> float:
    """Squared ED with early abandoning against a squared BSF.

    Accumulates in ``chunk``-sized blocks (the SIMD-register-width analog
    of Algorithm 3's chunking) and returns the partial sum as soon as it
    exceeds ``bsf2``. A returned value ``> bsf2`` therefore only certifies
    "worse than BSF", not the exact distance.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    total = 0.0
    for i in range(0, len(a), chunk):
        d = a[i : i + chunk] - b[i : i + chunk]
        total += float(np.dot(d, d))
        if total > bsf2:
            return total
    return total


def mindist2_early_abandon(qvals, word, edges, weights, bsf2: float,
                           chunk: int = 8) -> float:
    """Per-series squared LBD with chunked early abandoning (Algorithm 3).

    Processes positions in ``chunk``-wide blocks (the 256-bit register
    analog); positions are assumed ordered by decreasing variance, so
    high-contribution components come first. A return value ``> bsf2``
    certifies only "prunable", like the SIMD routine in the paper.
    """
    word = np.asarray(word)
    q = np.asarray(qvals, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    total = 0.0
    for i in range(0, len(word), chunk):
        sl = slice(i, i + chunk)
        ww = word[sl].astype(np.int64)
        rows = np.arange(i, min(i + chunk, len(word)))
        lo = edges[rows, ww]
        hi = edges[rows, ww + 1]
        qq = q[sl]
        d = np.where(qq < lo, lo - qq, 0.0) + np.where(qq > hi, qq - hi, 0.0)
        total += float(np.dot(w[sl] * d, d))
        if total > bsf2:
            return total
    return total
