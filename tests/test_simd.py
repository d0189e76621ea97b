"""Unit tests for the batched mindist kernels (Algorithm 3): the per-query
table and its per-series gather, and the node-level interval kernel."""
import numpy as np
import pytest

from repro.summaries.sax import SAXSummary
from repro.summaries.sfa import SFASummary
from repro.summaries.simd import (batch_interval_mindist2, batch_mindist2,
                                  cardinality_pyramid, interval_table,
                                  mindist2_ref, mindist2_table,
                                  pyramid_offsets)
from tests.helpers import mindist2_early_abandon, node_mindist2, znormed


def _summary(kind, seed=0, alphabet=64, l=8, n=64):
    if kind == "sax":
        return SAXSummary(n, l=l, alphabet=alphabet)
    return SFASummary.fit(znormed(200, n, seed=seed), l=l, alphabet=alphabet)


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("seed", range(5))
def test_batch_equals_scalar_reference(kind, seed):
    s = _summary(kind, seed)
    X = znormed(40, 64, seed=seed + 1)
    q = znormed(1, 64, seed=seed + 2)[0]
    qv = s.approx(q[None, :])[0]
    W = s.words(X)
    got = batch_mindist2(qv, W, s.edges, s.weights)
    ref = [mindist2_ref(qv, W[i], s.edges, s.weights) for i in range(40)]
    np.testing.assert_allclose(got, ref, atol=1e-12)


def _edge_case_queries(s):
    """Query approx rows: exactly on an interior edge at every position,
    below the first and above the last interior edge, and both
    alternating by position."""
    mid = s.edges[:, s.alphabet // 2]
    below = s.edges[:, 1] - 10.0
    above = s.edges[:, -2] + 10.0
    alt = np.where(np.arange(s.l) % 2 == 0, below, above)
    return np.stack([mid, below, above, alt])


def _edge_case_words(s, seed=0):
    """Random words plus the all-0 and all-(alphabet-1) words (the +-inf
    bins) and a word mixing both per position."""
    g = np.random.default_rng(seed)
    W = g.integers(0, s.alphabet, (30, s.l))
    ends = np.stack([np.zeros(s.l), np.full(s.l, s.alphabet - 1),
                     np.where(np.arange(s.l) % 2 == 0, 0, s.alphabet - 1)])
    return np.concatenate([W, ends]).astype(np.uint8)


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("alphabet", [4, 16, 256])
def test_table_and_gather_match_scalar_reference(kind, alphabet):
    s = _summary(kind, seed=alphabet, alphabet=alphabet)
    q = znormed(1, 64, seed=alphabet + 1)
    queries = np.concatenate([s.approx(q), _edge_case_queries(s)])
    W = _edge_case_words(s, seed=alphabet)
    for qv in queries:
        table = mindist2_table(qv, s.edges, s.weights)
        assert table.shape == (s.l, alphabet)
        ref_terms = [[mindist2_ref(qv[j:j + 1], [a], s.edges[j:j + 1],
                                   s.weights[j:j + 1])
                      for a in range(alphabet)] for j in range(s.l)]
        np.testing.assert_allclose(table, ref_terms, rtol=1e-12, atol=1e-12)
        got = batch_mindist2(qv, W, s.edges, s.weights)
        ref = [mindist2_ref(qv, w, s.edges, s.weights) for w in W]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("chunk", [1, 3, 8, 100])
def test_early_abandon_exact_without_bsf(kind, chunk):
    s = _summary(kind)
    X = znormed(10, 64, seed=3)
    q = znormed(1, 64, seed=4)[0]
    qv = s.approx(q[None, :])[0]
    W = s.words(X)
    for i in range(10):
        full = mindist2_ref(qv, W[i], s.edges, s.weights)
        assert mindist2_early_abandon(qv, W[i], s.edges, s.weights, np.inf,
                                      chunk=chunk) == pytest.approx(full)


def test_early_abandon_certifies_prunable():
    s = _summary("sfa", seed=7)
    X = znormed(10, 64, seed=8)
    q = znormed(1, 64, seed=9)[0] * 3  # far query -> large mindist
    qv = s.approx(q[None, :])[0]
    W = s.words(X)
    for i in range(10):
        full = mindist2_ref(qv, W[i], s.edges, s.weights)
        if full == 0:
            continue
        got = mindist2_early_abandon(qv, W[i], s.edges, s.weights, full / 8,
                                     chunk=2)
        assert got > full / 8
        assert got <= full + 1e-12  # partial sums never overshoot


def test_boundary_symbols_no_nan():
    """Symbols 0 and alphabet-1 have +-inf edges; the table must not
    produce NaN from inf*0."""
    s = _summary("sax", alphabet=8)
    W = np.array([[0] * 8, [7] * 8], dtype=np.uint8)
    qv = np.zeros(8)
    got = batch_mindist2(qv, W, s.edges, s.weights)
    assert np.isfinite(got).all()


def test_interval_batch_matches_node_mindist():
    s = _summary("sfa", seed=11, alphabet=256)
    g = np.random.default_rng(12)
    q = znormed(1, 64, seed=13)[0]
    qv = s.approx(q[None, :])[0]
    rows = []
    los, his = [], []
    for _ in range(30):
        bits = g.integers(0, 9, 8)
        syms = np.array([g.integers(0, 2 ** b) if b else 0 for b in bits])
        rows.append(node_mindist2(qv, syms, bits, s.edges, s.weights,
                                  word_bits=8))
        cols = np.arange(8)
        shift = 8 - bits
        los.append(s.edges[cols, syms << shift])
        his.append(s.edges[cols, (syms + 1) << shift])
    got = batch_interval_mindist2(qv, np.array(los), np.array(his), s.weights)
    np.testing.assert_allclose(got, rows, atol=1e-12)


@pytest.mark.parametrize("kind", ["sax", "sfa"])
@pytest.mark.parametrize("alphabet", [4, 16, 256])
def test_pyramid_gather_matches_node_mindist(kind, alphabet):
    """Node words at every cardinality, the +-inf bins included, gather
    their exact node-level bound from the pyramid table."""
    s = _summary(kind, seed=alphabet, alphabet=alphabet)
    g = np.random.default_rng(alphabet)
    wb = s.bits
    bits = np.concatenate([g.integers(1, wb + 1, (30, s.l)),
                           np.ones((2, s.l), int), np.full((2, s.l), wb)])
    syms = g.integers(0, 1 << 30, bits.shape) % (1 << bits)
    syms[-4:] = [[0] * s.l, [1] * s.l, [0] * s.l, [alphabet - 1] * s.l]
    lo, hi = cardinality_pyramid(s.edges)
    off = pyramid_offsets(syms, bits, wb)
    assert off.max() < lo.size
    q = znormed(1, 64, seed=alphabet + 1)
    for qv in np.concatenate([s.approx(q), _edge_case_queries(s)]):
        got = interval_table(qv, lo, hi, s.weights).ravel()[off].sum(axis=1)
        ref = [node_mindist2(qv, syms[i], bits[i], s.edges, s.weights,
                             word_bits=wb) for i in range(len(bits))]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_node_mindist_zero_bits_is_zero():
    s = _summary("sax")
    q = znormed(1, 64, seed=14)[0]
    qv = s.approx(q[None, :])[0]
    d = node_mindist2(qv, np.zeros(8, np.int64), np.zeros(8, np.int64),
                      s.edges, s.weights, word_bits=6)
    assert d == 0.0


@pytest.mark.parametrize("kind", ["sax", "sfa"])
def test_node_mindist_decreases_with_coarser_bits(kind):
    """A node's mindist at fewer bits is <= at more bits (wider interval):
    subtree pruning soundness."""
    s = _summary(kind, alphabet=256)
    X = znormed(20, 64, seed=15)
    q = znormed(1, 64, seed=16)[0]
    qv = s.approx(q[None, :])[0]
    W = s.words(X).astype(np.int64)
    for i in range(20):
        prev = None
        for bits in range(8, 0, -1):
            syms = W[i] >> (8 - bits)
            d = node_mindist2(qv, syms, np.full(8, bits), s.edges, s.weights,
                              word_bits=8)
            if prev is not None:
                assert d <= prev + 1e-12
            prev = d


def test_empty_batch():
    s = _summary("sax")
    got = batch_mindist2(np.zeros(8), np.zeros((0, 8), np.uint8), s.edges,
                         s.weights)
    assert got.shape == (0,)
