"""Batched lower-bound distance kernels (paper Section IV-H).

The paper's Algorithm 3 vectorizes Eq. 2 with SIMD: gather each symbol's
[LOWER, UPPER) interval, build UPPER/LOWER/ZERO condition masks, AND
each branch's distance with its mask, combine, and early-abandon after
each 8-wide chunk.

The per-series kernel here takes the product-quantization route instead
(asymmetric distance computation, Jégou et al., TPAMI 2011): a query has
only ``l x alphabet`` possible (position, symbol) terms of Eq. 2, so
``mindist2_table`` evaluates all of them once per query, and the LBD of
a word is ``l`` table gathers and a sum. The branch masks of Algorithm 3
collapse into two ``np.maximum`` calls over the table. No early
abandoning: one pass over a whole batch of words costs less in NumPy
than stopping series by series.

All functions take the *query side* as numeric approx values (PAA means
for iSAX / scaled DFT components for SFA) and the *candidate side* as
symbols or interval boxes, plus the summary's ``edges``/``weights``.
They return squared lower bounds; callers compare against squared BSF.
"""
import numpy as np


def mindist2_ref(qvals, word, edges, weights) -> float:
    """Scalar reference of Eq. 2 with explicit branches — the ground truth
    the batched kernels are tested against."""
    total = 0.0
    for j in range(len(word)):
        lo = edges[j, word[j]]
        hi = edges[j, word[j] + 1]
        v = qvals[j]
        if v < lo:
            d = lo - v
        elif v > hi:
            d = v - hi
        else:
            d = 0.0
        total += weights[j] * d * d
    return float(total)


def mindist2_table(qvals, edges, weights) -> np.ndarray:
    """Every Eq. 2 term of one query: ``(l, alphabet)`` float64.

    ``T[j, a] = weights[j] * d**2`` with ``d`` the distance from
    ``qvals[j]`` to symbol ``a``'s interval ``[edges[j, a], edges[j, a+1])``.
    The +-inf outer edges are safe: ``inf - q`` only ever meets
    ``np.maximum(., 0)``, never a zero factor.
    """
    q = np.asarray(qvals, dtype=np.float64)[:, None]
    d = np.maximum(edges[:, :-1] - q, 0.0) + np.maximum(q - edges[:, 1:], 0.0)
    return d * d * np.asarray(weights, dtype=np.float64)[:, None]


def batch_mindist2(qvals, words, edges, weights) -> np.ndarray:
    """Squared LBD between one query and ``N`` words.

    ``qvals``: (l,) float; ``words``: (N, l) uint8; returns (N,) float64:
    the query's table, then one gather per (word, position) and a sum.
    """
    words = np.atleast_2d(words)
    table = mindist2_table(qvals, edges, weights)
    cols = np.arange(words.shape[1]) * table.shape[1]
    return table.ravel()[words.astype(np.intp) + cols].sum(axis=1)


def batch_interval_mindist2(qvals, lo, hi, weights) -> np.ndarray:
    """Squared LBD between one query and ``R`` interval boxes at once.

    ``lo``/``hi``: (R, l) lower/upper breakpoints (+-inf allowed). Used by
    the tree to prune ALL root subtrees in one vectorized pass instead of
    R scalar calls — the SIMD analog at the node level.
    """
    q = np.asarray(qvals, dtype=np.float64)[None, :]
    d = np.where(q < lo, lo - q, 0.0) + np.where(q > hi, q - hi, 0.0)
    return np.einsum("ij,j->i", d * d, np.asarray(weights, dtype=np.float64))
