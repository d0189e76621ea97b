"""Tests for the MESSI-style tree: build invariants and exact search."""
import numpy as np
import pytest

from repro.core.znorm import znormalize
from repro.datasets.generators import seismic, sine_mix, vector_gaussian
from repro.datasets.registry import make_dataset, make_queries
from repro.index import build_messi, build_sofa, tree
from repro.index.tree import SearchStats, TreeIndex
from repro.summaries.sax import SAXSummary
from repro.summaries.simd import batch_interval_mindist2
from tests.helpers import brute_knn, znormed

BUILDERS = [("sofa", build_sofa), ("messi", build_messi)]


def _gen(kind, n_series, length, seed):
    if kind == "noise":
        return znormed(n_series, length, seed=seed)
    if kind == "seismic":
        return znormalize(seismic(n_series, length, seed=seed))
    if kind == "sine":
        return znormalize(sine_mix(n_series, length, seed=seed))
    return znormalize(vector_gaussian(n_series, length, seed=seed))


# ------------------------------------------------------------------ build
@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("leaf_size", [1, 4, 32, 1000])
def test_all_series_in_exactly_one_leaf(name, builder, leaf_size):
    X = znormed(200, 64, seed=1)
    idx = builder(X, leaf_size=leaf_size)
    assert sorted(idx.perm.tolist()) == list(range(200))
    assert idx.leaf_start[-1] == 200


def _leaf_of_row(idx):
    """Leaf number of every position of ``perm``."""
    return np.repeat(np.arange(len(idx.leaf_bits)), np.diff(idx.leaf_start))


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_leaf_capacity_respected(name, builder):
    X = znormed(500, 64, seed=2)
    idx = builder(X, leaf_size=16)
    sizes = np.diff(idx.leaf_start)
    # leaves may only exceed capacity when every position is at max bits
    assert (idx.leaf_bits[sizes > 16] == idx.word_bits).all()


def test_leaf_words_match_leaf_symbols():
    """Every series in a leaf agrees with the leaf's variable-cardinality
    word on all positions (prefix property)."""
    X = znormed(300, 64, seed=3)
    idx = build_messi(X, leaf_size=8)
    leaf = _leaf_of_row(idx)
    prefix = idx.words_perm.astype(np.int64) >> \
        (idx.word_bits - idx.leaf_bits[leaf])
    assert (prefix == idx.leaf_symbols[leaf]).all()


def test_root_keys_are_first_bits():
    X = znormed(100, 64, seed=4)
    idx = build_sofa(X, leaf_size=32)
    root_keys = idx.leaf_symbols >> (idx.leaf_bits - 1)
    assert (root_keys < 2).all()
    # every series sits under the root child of its own 1-bit prefix word
    first_bits = idx.words_perm.astype(np.int64) >> (idx.word_bits - 1)
    assert (first_bits == root_keys[_leaf_of_row(idx)]).all()
    assert idx.structure_stats()["root_fanout"] == \
        len(np.unique(first_bits, axis=0))


def test_structure_stats_consistent():
    X = znormed(400, 64, seed=5)
    idx = build_messi(X, leaf_size=16)
    st = idx.structure_stats()
    assert st["n_leaves"] == len(idx.leaf_start) - 1 == len(idx.leaf_bits)
    assert st["root_fanout"] <= st["n_leaves"]
    assert st["mean_depth"] >= 1.0
    assert st["mean_leaf_fill"] == pytest.approx(
        400 / st["n_leaves"] / 16)


@pytest.mark.parametrize("name,builder,expected", [
    ("sofa", build_sofa, {"root_fanout": 1143, "n_leaves": 1677,
                          "mean_depth": 2.1562313655336913}),
    ("messi", build_messi, {"root_fanout": 484, "n_leaves": 1415,
                            "mean_depth": 4.288339222614841}),
])
def test_tree_shape_pinned(name, builder, expected):
    """The split rule builds exactly the tree it always built."""
    X = make_dataset("Astro", scale=0.3, seed=7)
    st = builder(X, leaf_size=8).structure_stats()
    assert {key: st[key] for key in expected} == expected


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_series_raises(bad):
    X = znormed(50, 32, seed=43)
    X[9, 4] = bad
    with pytest.raises(ValueError, match="finite"):
        TreeIndex(SAXSummary(32, l=8, alphabet=16), X)


@pytest.mark.parametrize("shape", [(32,), (2, 5, 32)])
def test_non_2d_series_raises(shape):
    with pytest.raises(ValueError, match="2-D"):
        TreeIndex(SAXSummary(32, l=8, alphabet=16), np.zeros(shape))


def test_word_longer_than_packed_root_key_raises():
    with pytest.raises(ValueError, match="63"):
        TreeIndex(SAXSummary(64, l=64, alphabet=4), znormed(10, 64, seed=44))


def test_empty_index():
    s = SAXSummary(32, l=8, alphabet=16)
    idx = TreeIndex(s, np.zeros((0, 32), np.float32))
    assert idx.knn(np.zeros(32)) == []


def test_single_series_index():
    X = znormed(1, 32, seed=6)
    idx = build_messi(X, leaf_size=4)
    res = idx.knn(X[0], k=1)
    assert res[0][1] == 0 and res[0][0] == pytest.approx(0.0, abs=1e-3)


def test_custom_ids_returned():
    X = znormed(50, 32, seed=7)
    ids = np.arange(50) * 10 + 3
    idx = build_messi(X, ids=ids, leaf_size=8)
    res = idx.knn(X[5], k=1)
    assert res[0][1] == 53


def test_ids_length_mismatch_raises():
    with pytest.raises(ValueError):
        build_messi(znormed(5, 32), ids=np.arange(4))


def test_bad_leaf_size_raises():
    with pytest.raises(ValueError):
        build_messi(znormed(5, 32), leaf_size=0)


# ----------------------------------------------------------------- search
@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("kind", ["noise", "seismic", "sine", "vector"])
@pytest.mark.parametrize("k", [1, 5])
def test_exact_vs_brute_force(name, builder, kind, k):
    X = _gen(kind, 400, 96, seed=11).astype(np.float32)
    Q = _gen(kind, 6, 96, seed=99).astype(np.float32)
    idx = builder(X, leaf_size=32)
    for q in Q:
        got = idx.knn(q, k=k)
        exp = brute_knn(X, q, k)
        assert [i for _, i in got] == [i for _, i in exp]
        np.testing.assert_allclose([d for d, _ in got], [d for d, _ in exp],
                                   atol=1e-5)


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("leaf_size", [1, 7, 64, 10_000])
def test_exact_for_any_leaf_size(name, builder, leaf_size):
    X = znormed(250, 64, seed=21)
    Q = znormed(4, 64, seed=22)
    idx = builder(X, leaf_size=leaf_size)
    for q in Q:
        assert [i for _, i in idx.knn(q, k=3)] == \
            [i for _, i in brute_knn(X, q, 3)]


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("alphabet", [4, 256])
def test_exact_for_any_alphabet(name, builder, alphabet):
    """The per-query table has ``alphabet`` columns and the gather offsets
    shift by ``log2(alphabet)``: both ends of the range stay exact."""
    X = _gen("seismic", 300, 64, seed=40).astype(np.float32)
    Q = _gen("seismic", 5, 64, seed=41).astype(np.float32)
    idx = builder(X, l=8, alphabet=alphabet, leaf_size=16)
    assert idx.table_offsets.max() < 8 * alphabet
    for q in Q:
        assert [i for _, i in idx.knn(q, k=3)] == \
            [i for _, i in brute_knn(X, q, 3)]


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("alphabet", [4, 16, 256])
def test_table_leaf_lbd_matches_interval_reference(name, builder, alphabet):
    """Leaf words at every cardinality gather the same bound from the
    per-query table as the interval kernel computes from their boxes."""
    X = make_dataset("Astro", scale=0.3, seed=7)
    idx = builder(X, alphabet=alphabet, leaf_size=8)
    assert len(np.unique(idx.leaf_bits)) > 1  # split below the root
    for q in make_queries("Astro", 4, scale=0.3):
        qv = idx.summary.approx(q[None, :])[0]
        got = idx.lbd_table(qv)[idx.leaf_offsets].sum(axis=1)
        ref = batch_interval_mindist2(qv, idx.leaf_lo, idx.leaf_hi,
                                      idx.summary.weights)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name,builder,expected", [
    ("sofa", build_sofa, [(543, 1854, 21), (653, 2173, 17),
                          (697, 2379, 57), (757, 2788, 142)]),
    ("messi", build_messi, [(314, 1397, 27), (142, 583, 17),
                            (120, 480, 72), (369, 1721, 162)]),
])
def test_work_counters_pinned(name, builder, expected):
    """(leaves visited, series LBDs checked, EDs computed) per query: a
    kernel-only change must do exactly the same GEMINI work."""
    idx = builder(make_dataset("Astro", scale=0.3, seed=7), leaf_size=8)
    got = []
    for q in make_queries("Astro", 4, scale=0.3):
        st = SearchStats()
        idx.knn(q, k=3, stats=st)
        got.append((st.leaves_visited, st.series_lbd_checked,
                    st.series_ed_computed))
    assert got == expected


@pytest.mark.parametrize("name,builder", BUILDERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_raises(name, builder, bad):
    X = znormed(50, 32, seed=42)
    q = X[3].copy()
    q[7] = bad
    with pytest.raises(ValueError, match="finite"):
        builder(X, leaf_size=8).knn(q, k=3)


@pytest.mark.parametrize("chunk_rows", [1, 64, 100_000])
def test_exact_for_any_chunk_granularity(chunk_rows, monkeypatch):
    monkeypatch.setattr(tree, "CHUNK_ROWS", chunk_rows)
    X = znormed(300, 64, seed=23)
    idx = build_sofa(X, leaf_size=16)
    q = znormed(1, 64, seed=24)[0]
    got = idx.knn(q, k=4)
    assert [i for _, i in got] == [i for _, i in brute_knn(X, q, 4)]


def test_leaf_skipped_only_when_its_bound_reaches_bsf():
    """The seed leaf (lower bound 0) holds only the second-nearest series;
    the nearest sits in a leaf whose bound 0.25 is below the seed's BSF
    0.3, so that leaf must still be drained."""
    q = np.full(4, 0.5)
    X = np.array([[0.5, 0.5, 0.5, 1.048], [-0.01, 0.5, 0.5, 0.5]])
    idx = TreeIndex(SAXSummary(4, l=4, alphabet=4), X, leaf_size=1)
    assert [i for _, i in idx.knn(q, k=1)] == [1]


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_query_identical_to_stored_series(name, builder):
    X = znormed(100, 64, seed=25)
    idx = builder(X, leaf_size=8)
    res = idx.knn(X[42], k=1)
    assert res[0][1] == 42
    assert res[0][0] == pytest.approx(0.0, abs=1e-3)


def test_k_larger_than_collection():
    X = znormed(5, 32, seed=26)
    idx = build_messi(X, leaf_size=2)
    assert len(idx.knn(X[0], k=50)) == 5


@pytest.mark.parametrize("name,builder", BUILDERS)
def test_knn_ordering_and_monotone_in_k(name, builder):
    X = znormed(300, 64, seed=27)
    idx = builder(X, leaf_size=16)
    q = znormed(1, 64, seed=28)[0]
    r5 = idx.knn(q, k=5)
    r10 = idx.knn(q, k=10)
    assert r10[:5] == r5
    d = [x[0] for x in r10]
    assert d == sorted(d)


def test_stats_populated_and_pruning_on_clustered_data():
    X = make_dataset("SCEDC", scale=0.2)
    idx = build_sofa(X.astype(np.float32), leaf_size=64)
    q = make_queries("SCEDC", 1, scale=0.2)[0]
    st = SearchStats()
    idx.knn(q.astype(np.float32), k=1, stats=st)
    assert st.n_series == len(X)
    assert st.series_ed_computed >= 1
    assert st.pruning_ratio > 0.5  # SFA prunes hard on clustered seismic


def test_sofa_prunes_better_than_messi_on_high_freq():
    """The paper's headline mechanism (Section V-D / Figure 12)."""
    X = make_dataset("LenDB", scale=0.3).astype(np.float32)
    Q = make_queries("LenDB", 5, scale=0.3).astype(np.float32)
    sofa = build_sofa(X, leaf_size=64)
    messi = build_messi(X, leaf_size=64)
    pr_s, pr_m = [], []
    for q in Q:
        ss, sm = SearchStats(), SearchStats()
        sofa.knn(q, stats=ss)
        messi.knn(q, stats=sm)
        pr_s.append(ss.pruning_ratio)
        pr_m.append(sm.pruning_ratio)
    assert np.mean(pr_s) > np.mean(pr_m) + 0.3


def test_pre_fit_summary_reused():
    from repro.summaries.sfa import SFASummary
    X = znormed(200, 64, seed=30)
    s = SFASummary.fit(X[:50], l=8, alphabet=32)
    idx = build_sofa(X, summary=s, leaf_size=16)
    assert idx.summary is s
    q = znormed(1, 64, seed=31)[0]
    assert [i for _, i in idx.knn(q, k=2)] == \
        [i for _, i in brute_knn(X, q, 2)]
