"""Batched lower-bound distance kernels (paper Section IV-H).

The paper's Algorithm 3 vectorizes Eq. 2 with SIMD: gather each symbol's
[LOWER, UPPER) interval, build UPPER/LOWER/ZERO condition masks, AND
each branch's distance with its mask, combine, and early-abandon after
each 8-wide chunk.

The kernels here take the product-quantization route instead
(asymmetric distance computation, Jégou et al., TPAMI 2011): a query has
only ``l x alphabet`` possible (position, symbol) terms of Eq. 2, so
``mindist2_table`` evaluates all of them once per query, and the LBD of
a word is ``l`` table gathers and a row sum (a BLAS matrix-vector
product with a vector of ones). The branch masks of Algorithm 3
collapse into two ``np.maximum`` calls over the table. No early
abandoning: one pass over a whole batch of words costs less in NumPy
than stopping series by series.

The tree's node-level bound uses the same route. A node word holds each
position at its own cardinality ``2^b``, and its interval there is the
union of ``2^(wb - b)`` adjacent symbol intervals, so
``cardinality_pyramid`` lays out the intervals of every cardinality once
per summary, ``interval_table`` turns them into one per-query table, and
``pyramid_offsets`` maps node words to flat indices into it. Leaf and
series LBDs are then both a gather and a row sum over one table.

All functions take the *query side* as numeric approx values (PAA means
for iSAX / scaled DFT components for SFA) and the *candidate side* as
symbols or interval bounds, plus the summary's ``edges``/``weights``.
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


def interval_table(qvals, lo, hi, weights) -> np.ndarray:
    """Eq. 2 term of one query for every interval ``[lo, hi)``.

    ``lo``/``hi``: ``(..., l, m)`` bounds, ``m`` intervals per position
    (+-inf allowed); returns ``weights[j] * d**2`` of the same shape, with
    ``d`` the distance from ``qvals[j]`` to the interval. The +-inf bounds
    are safe: ``inf - q`` only ever meets ``np.maximum(., 0)``, never a
    zero factor.
    """
    q = np.asarray(qvals, dtype=np.float64)[:, None]
    d = np.maximum(lo - q, 0.0) + np.maximum(q - hi, 0.0)
    return d * d * np.asarray(weights, dtype=np.float64)[:, None]


def mindist2_table(qvals, edges, weights) -> np.ndarray:
    """Every Eq. 2 term of one query: ``(l, alphabet)`` float64.

    ``T[j, a]`` is the term of symbol ``a``'s interval
    ``[edges[j, a], edges[j, a+1])`` at position ``j``.
    """
    return interval_table(qvals, edges[:, :-1], edges[:, 1:], weights)


def batch_mindist2(qvals, words, edges, weights) -> np.ndarray:
    """Squared LBD between one query and ``N`` words.

    ``qvals``: (l,) float; ``words``: (N, l) uint8; returns (N,) float64:
    the query's table, then one gather per (word, position) and a row sum.
    """
    words = np.atleast_2d(words)
    table = mindist2_table(qvals, edges, weights)
    cols = np.arange(words.shape[1]) * table.shape[1]
    return table.ravel()[words.astype(np.intp) + cols] @ np.ones(words.shape[1])


def cardinality_pyramid(edges) -> tuple[np.ndarray, np.ndarray]:
    """Interval bounds of every symbol at every cardinality of ``edges``.

    Returns ``(lo, hi)``, each ``(2, l, alphabet)`` float64. Block 0 is
    the word cardinality, laid out as ``mindist2_table``. Block 1 holds
    cardinality ``2^b`` for ``b < log2(alphabet)`` in a binary-heap
    layout: symbol ``s`` sits at column ``2^b - 1 + s``, and its bounds
    are ``edges[:, ::2^(wb - b)]``, the word edges every ``2^(wb - b)``
    symbols (coarser bins merge adjacent finer ones). The last column is
    unused and spans ``(-inf, inf)``.
    """
    l, alphabet = edges.shape[0], edges.shape[1] - 1
    wb = alphabet.bit_length() - 1
    lo = np.full((2, l, alphabet), -np.inf)
    hi = np.full((2, l, alphabet), np.inf)
    lo[0], hi[0] = edges[:, :-1], edges[:, 1:]
    for b in range(wb):
        coarse = edges[:, ::1 << (wb - b)]
        lo[1, :, (1 << b) - 1:(2 << b) - 1] = coarse[:, :-1]
        hi[1, :, (1 << b) - 1:(2 << b) - 1] = coarse[:, 1:]
    return lo, hi


def pyramid_offsets(symbols, bits, word_bits: int) -> np.ndarray:
    """Flat index of each (position, symbol at ``bits``) of node words
    into the ravelled ``interval_table`` of a ``cardinality_pyramid``.

    ``symbols``/``bits``: ``(R, l)`` ints, ``1 <= bits <= word_bits``;
    returns ``(R, l)`` intp. A word at full cardinality indexes block 0
    exactly as ``mindist2_table``'s gather does.
    """
    l = symbols.shape[1]
    alphabet = 1 << word_bits
    # start of each cardinality's columns, by bits: block 1 below the
    # word cardinality, block 0 at it
    base = np.append(l * alphabet + (1 << np.arange(word_bits)) - 1,
                     0).astype(np.intp)
    off = base[bits]
    off += symbols
    off += np.arange(l, dtype=np.intp) << word_bits
    return off


def batch_interval_mindist2(qvals, lo, hi, weights) -> np.ndarray:
    """Squared LBD between one query and ``R`` interval boxes at once.

    ``lo``/``hi``: (R, l) lower/upper breakpoints (+-inf allowed). The
    reference for the tree's node-level bound, which gathers the same
    terms from a ``cardinality_pyramid`` table instead.
    """
    q = np.asarray(qvals, dtype=np.float64)[None, :]
    d = np.where(q < lo, lo - q, 0.0) + np.where(q > hi, q - hi, 0.0)
    return np.einsum("ij,j->i", d * d, np.asarray(weights, dtype=np.float64))
