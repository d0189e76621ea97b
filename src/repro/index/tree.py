"""Generic MESSI-style tree index over a symbolic summary (Section IV-A/B/C).

Structure (paper Section IV-B):

- **Root**: fans out on the 1-bit-per-position prefix word (up to 2^l
  children; only the non-empty ones exist).
- **Inner nodes**: exactly two children, produced by promoting one
  position's cardinality by one bit (iSAX2.0-style balanced split).
- **Leaves**: a variable-cardinality word (``leaf_symbols`` at
  ``leaf_bits``) covering a contiguous run of row ids in ``perm``.

Only the leaves are stored: search never walks the tree, and the inner
nodes are implicit in the leaves' (symbols, bits) words.

Exact search (Section IV-C, GEMINI): each query builds one lookup
table, ``lbd_table``, of every Eq. 2 term it can need: one per
(position, symbol) at every cardinality of the summary's
``cardinality_pyramid`` (the product-quantization analog of Algorithm
3). Both lower bounds are a gather from it and a BLAS row sum:
``leaf_offsets`` indexes the leaves' variable-cardinality words and
``table_offsets`` the leaf-ordered series words. The node-level bounds
of *all* leaves order the priority queue. The leaf with the smallest
lower bound is drained first and seeds the best-so-far (BSF), replacing
MESSI's approximate descent. The queue is then drained until its head's
LBD reaches the BSF: each drained leaf is LBD-filtered per series and
survivors are verified with real Euclidean distances (explicit float64
differences, free of the GEMM identity's cancellation), tightening the
BSF as they go.

The queue is drained in *chunks* (batch ``DeleteMin``): the first chunk
is one leaf, then the row budget doubles up to ``CHUNK_ROWS``, so the
BSF updates between chunks rather than between single leaves. A leaf is
only skipped when its LBD (a true lower bound for every series in it) is
>= the current BSF, so any chunk size gives the same exact answer; wide
NumPy kernels replace per-leaf Python work, the role SIMD plays in the
paper (DESIGN.md §5).

The paper's multi-threaded index workers map to Spark partitions in
this repo (each partition owns an independent TreeIndex; see
``repro.distrib``). ``SearchStats`` exposes hardware-independent work
counters used by the experiment harnesses to explain *why* one method
beats another, independent of Python/C constant factors.
"""
import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.validate import all_finite
from repro.summaries.common import SymbolicSummary
from repro.summaries.simd import (cardinality_pyramid, interval_table,
                                  pyramid_offsets)

#: row budget of one batch-DeleteMin chunk once the ramp has grown
CHUNK_ROWS = 2048


@dataclass
class SearchStats:
    """Work counters for one query (reset per ``knn`` call)."""

    n_series: int = 0
    n_leaves: int = 0
    leaves_visited: int = 0
    series_lbd_checked: int = 0
    series_ed_computed: int = 0

    @property
    def pruning_ratio(self) -> float:
        """Fraction of series whose real ED was never computed."""
        return 1.0 - self.series_ed_computed / max(1, self.n_series)


class TreeIndex:
    """In-memory exact-search index over z-normalized series ``X``.

    ``ids`` are the external identifiers returned from queries (defaults
    to 0..N-1); the MESSI/SOFA leaf-capacity parameter is ``leaf_size``.
    Leaf ``i`` holds the rows ``perm[leaf_start[i]:leaf_start[i + 1]]``.
    Raises ``ValueError`` if ``X`` is not 2-D or holds a NaN or an
    infinity, or if the word length exceeds 63 (the packed root key).
    """

    def __init__(self, summary: SymbolicSummary, X: np.ndarray,
                 ids: np.ndarray | None = None, leaf_size: int = 128):
        self.summary = summary
        if np.ndim(X) != 2:
            raise ValueError(f"X must be 2-D (N, n), got {np.ndim(X)}-D")
        self.X = np.ascontiguousarray(X, dtype=np.float32)
        if not all_finite(self.X):
            raise ValueError("series must be finite (NaN or inf found)")
        if summary.l > 63:
            raise ValueError(f"word length {summary.l} > 63 does not fit "
                             "the packed root key")
        n_rows = self.X.shape[0]
        self.ids = np.arange(n_rows, dtype=np.int64) if ids is None \
            else np.asarray(ids, dtype=np.int64)
        if len(self.ids) != n_rows:
            raise ValueError("ids length != number of series")
        if leaf_size < 1:
            raise ValueError("leaf_size must be >= 1")
        self.leaf_size = leaf_size
        # word_bits = log2(alphabet): symbols are words at THIS cardinality,
        # so every shift in the tree is relative to it, not to a fixed 8.
        self.word_bits = summary.bits
        self._build(summary.words(self.X))

    # ---------------------------------------------------------------- build
    def _build(self, words: np.ndarray) -> None:
        """Split the root groups into leaves and lay the leaves out as
        flat arrays: (symbols, bits) words, their flat indices into the
        per-query table (the node-level LBD operands), and row ids
        grouped by leaf."""
        l = words.shape[1]
        wb = self.word_bits
        # group rows by root key (the 1-bit prefix word), like MESSI's
        # initial chunk pass; packed first position most significant, so
        # integer order is the rows' lexicographic order (built a column
        # at a time: an (N, l) int64 temporary raised the build's peak RSS)
        packed = np.zeros(len(words), dtype=np.int64)
        for j in range(l):
            packed <<= 1
            packed |= words[:, j] >> (wb - 1)
        keys, inverse, counts = np.unique(packed, return_inverse=True,
                                          return_counts=True)
        groups = np.split(np.argsort(inverse, kind="stable"),
                          np.cumsum(counts)[:-1])
        place = np.arange(l - 1, -1, -1)
        stack = [(rows, (key >> place) & 1, np.ones(l, dtype=np.int64))
                 for rows, key in zip(groups, keys)]
        leaves = []
        while stack:
            rows, symbols, bits = stack.pop()
            pos = (self._choose_split_pos(words[rows], bits)
                   if len(rows) > self.leaf_size else None)
            if pos is None:  # fits, or every position at max cardinality
                leaves.append((rows, symbols, bits))
                continue
            bit = (words[rows, pos].astype(np.int64) >> (wb - bits[pos] - 1)) & 1
            for b in (0, 1):
                child = rows[bit == b]
                if len(child):
                    sym, cb = symbols.copy(), bits.copy()
                    sym[pos] = (sym[pos] << 1) | b
                    cb[pos] += 1
                    stack.append((child, sym, cb))

        sizes = np.array([len(lf[0]) for lf in leaves], dtype=np.int64)
        self.leaf_start = np.concatenate(([0], np.cumsum(sizes)))
        self.perm = (np.concatenate([lf[0] for lf in leaves]) if leaves
                     else np.zeros(0, dtype=np.int64))
        self.leaf_symbols = np.array([lf[1] for lf in leaves],
                                     dtype=np.int64).reshape(-1, l)
        self.leaf_bits = np.array([lf[2] for lf in leaves],
                                  dtype=np.int64).reshape(-1, l)
        self.words_perm = words[self.perm]
        # flat index of (position j, symbol) into the table's first
        # (l, alphabet) block, the word cardinality
        self.table_offsets = (self.words_perm.astype(np.intp)
                              + (np.arange(l, dtype=np.intp) << wb))
        self.pyramid_lo, self.pyramid_hi = cardinality_pyramid(
            self.summary.edges)
        self.leaf_offsets = pyramid_offsets(self.leaf_symbols,
                                            self.leaf_bits, wb)

    @cached_property
    def leaf_lo(self) -> np.ndarray:
        """Lower interval bound ``(L, l)`` of every leaf, from the edges.
        Search reads ``leaf_offsets`` instead; kept for measuring
        ``batch_interval_mindist2``, the node-level reference kernel."""
        shift = self.word_bits - self.leaf_bits
        return self.summary.edges[np.arange(self.summary.l),
                                  self.leaf_symbols << shift]

    @cached_property
    def leaf_hi(self) -> np.ndarray:
        """Upper interval bound ``(L, l)`` of every leaf (see ``leaf_lo``)."""
        shift = self.word_bits - self.leaf_bits
        return self.summary.edges[np.arange(self.summary.l),
                                  (self.leaf_symbols + 1) << shift]

    def _choose_split_pos(self, words: np.ndarray,
                          bits: np.ndarray) -> int | None:
        """Pick the position whose next bit splits the node most evenly
        (iSAX2.0-style balanced split; paper Section IV-B)."""
        candidates = np.nonzero(bits < self.word_bits)[0]
        if len(candidates) == 0:
            return None
        shifts = self.word_bits - (bits[candidates] + 1)
        nxt = (words[:, candidates].astype(np.int64) >> shifts[None, :]) & 1
        imbalance = np.abs(2 * nxt.sum(axis=0) - len(words))
        return int(candidates[int(np.argmin(imbalance))])

    # ---------------------------------------------------------------- stats
    def structure_stats(self) -> dict:
        """Tree-shape statistics (paper Figure 8): depth, leaf fill, fanout.

        Every split below the root adds one bit to one position, so a
        leaf's depth is 1 + its extra bits, and its root key is the
        first bit of every symbol."""
        if len(self.leaf_bits) == 0:
            return {"root_fanout": 0, "n_leaves": 0, "mean_depth": 0.0,
                    "mean_leaf_fill": 0.0}
        root_keys = self.leaf_symbols >> (self.leaf_bits - 1)
        return {
            "root_fanout": len(np.unique(root_keys, axis=0)),
            "n_leaves": len(self.leaf_bits),
            "mean_depth": float(np.mean(1 + (self.leaf_bits - 1).sum(axis=1))),
            "mean_leaf_fill": float(np.mean(np.diff(self.leaf_start)
                                            / self.leaf_size)),
        }

    # --------------------------------------------------------------- search
    def lbd_table(self, qvals: np.ndarray) -> np.ndarray:
        """The query's flat lookup table: ``table[leaf_offsets]`` and
        ``table[table_offsets]`` hold the Eq. 2 terms of the leaf and
        series words."""
        return interval_table(qvals, self.pyramid_lo, self.pyramid_hi,
                              self.summary.weights).ravel()

    def knn(self, q: np.ndarray, k: int = 1,
            stats: SearchStats | None = None) -> list[tuple[float, int]]:
        """Exact k nearest neighbors of z-normalized query ``q``.

        Returns ``[(distance, id), ...]`` ascending, ties broken by id.
        Raises ``ValueError`` if ``q`` holds a NaN or an infinity.
        """
        q = np.ascontiguousarray(q, dtype=np.float64).ravel()
        if not np.isfinite(q).all():
            raise ValueError("query must be finite (NaN or inf found)")
        if self.X.shape[0] == 0:
            return []
        k = min(k, self.X.shape[0])
        st = stats if stats is not None else SearchStats()
        st.n_series = self.X.shape[0]
        st.n_leaves = len(self.leaf_bits)
        table = self.lbd_table(self.summary.approx(q[None, :])[0])
        ones = np.ones(self.summary.l)  # row sums as BLAS matrix-vector products

        # heap of (-d2, -id) so the worst of the current k is on top
        best: list[tuple[float, int]] = []

        def bsf2() -> float:
            return -best[0][0] if len(best) == k else np.inf

        def offer(d2: float, sid: int) -> None:
            item = (-d2, -sid)
            if len(best) < k:
                heapq.heappush(best, item)
            elif item > best[0]:
                heapq.heapreplace(best, item)

        def process(sel: np.ndarray) -> None:
            """LBD-filter + exact-verify the permuted row positions ``sel``."""
            st.series_lbd_checked += len(sel)
            lbd2 = table[self.table_offsets[sel]] @ ones
            surv = sel[lbd2 < bsf2()]
            if len(surv) == 0:
                return
            st.series_ed_computed += len(surv)
            diff = self.X[self.perm[surv]] - q
            d2s = np.einsum("ij,ij->i", diff, diff)
            b = bsf2()
            for j in np.argsort(d2s, kind="stable"):
                if d2s[j] > b and len(best) == k:
                    break
                offer(float(d2s[j]), int(self.ids[self.perm[surv[j]]]))
                b = bsf2()

        # node-level LBD of every leaf in one gather — the priority-queue
        # ordering of MESSI, materialized at once
        leaf_d2 = table[self.leaf_offsets] @ ones
        order = np.argsort(leaf_d2, kind="stable")
        queue_d2 = leaf_d2[order]
        starts = self.leaf_start[order]
        sizes = self.leaf_start[order + 1] - starts
        ends = np.cumsum(sizes)  # rows drained once queue[:i + 1] is done

        # drain the queue in chunks of whole leaves: leaves up to the first
        # whose rows fill the budget, cut at the first LBD >= BSF
        i, budget = 0, 1
        while True:
            stop = min(int(np.searchsorted(ends, (ends[i - 1] if i else 0)
                                           + budget)) + 1,
                       int(np.searchsorted(queue_d2, bsf2())))
            if stop <= i:
                break
            lens = sizes[i:stop]
            offsets = np.cumsum(lens) - lens
            sel = np.arange(int(lens.sum())) + np.repeat(starts[i:stop] - offsets,
                                                        lens)
            st.leaves_visited += stop - i
            process(sel)
            i, budget = stop, min(2 * len(sel), CHUNK_ROWS)

        return sorted((float(np.sqrt(max(0.0, -nd2))), -nid) for nd2, nid in best)
