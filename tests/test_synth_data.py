"""Smoke tests for the data-series DataFrame entry points."""
import numpy as np

from repro import synth_data


def test_data_series_extension(spark):
    df = synth_data.data_series(spark, name="Iquique", scale=0.02,
                                num_partitions=2)
    pdf = df.toPandas()
    assert {"id", "series"} <= set(pdf.columns)
    X = np.stack(pdf.series.to_numpy())
    np.testing.assert_allclose(X.mean(axis=1), 0, atol=1e-5)  # z-normalized


def test_data_series_queries_shape():
    q = synth_data.data_series_queries(name="Iquique", n_queries=5, scale=0.02)
    assert q.shape == (5, 256)


def test_data_series_deterministic(spark):
    a = synth_data.data_series(spark, name="SALD", scale=0.01).toPandas()
    b = synth_data.data_series(spark, name="SALD", scale=0.01).toPandas()
    a = a.sort_values("id").reset_index(drop=True)
    b = b.sort_values("id").reset_index(drop=True)
    np.testing.assert_allclose(np.stack(a.series), np.stack(b.series))
