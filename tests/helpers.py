"""Shared test utilities: data factories, a brute-force oracle, the
scalar early-abandoning kernels of the paper (UCR-style ED, Algorithm 3)
and a scalar node-level mindist."""
import numpy as np

from repro.core.distance import ed2_batch
from repro.core.znorm import znormalize
from repro.summaries.common import WORD_BITS


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


def node_mindist2(qvals, symbols, bits, edges, weights,
                  word_bits: int = WORD_BITS) -> float:
    """Squared LBD between a query and a *tree node* at reduced cardinality.

    ``symbols[j]`` is the node's symbol at position ``j`` expressed with
    ``bits[j]`` bits (cardinality ``2^bits[j]``); its interval at the full
    alphabet is ``[edges[j, s << shift], edges[j, (s+1) << shift])``.
    ``bits[j] == 0`` means "any symbol" — the whole real line, distance 0.
    Hierarchical edges make this a lower bound on every leaf mindist in
    the subtree, which makes GEMINI's subtree pruning sound.
    """
    symbols = np.asarray(symbols, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    shift = word_bits - bits
    lo = edges[np.arange(len(symbols)), symbols << shift]
    hi = edges[np.arange(len(symbols)), (symbols + 1) << shift]
    q = np.asarray(qvals, dtype=np.float64)
    d = np.where(q < lo, lo - q, 0.0) + np.where(q > hi, q - hi, 0.0)
    return float(np.dot(np.asarray(weights, dtype=np.float64) * d, d))
