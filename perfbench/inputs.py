"""The arrays a run hands to the library, made from the run's seed.

The collection is the same for every seed (generated with
``COLLECTION_SEED``), so the index, its summary and its partitions stay
fixed; the seed chooses the order of the held-out queries drawn from a
pool of the same generator. Runs with different seeds then differ in the
queries they answer, not in the collection they index.
"""
import numpy as np

from repro.datasets import make_dataset, make_queries

COLLECTION_SEED = 7


def collection_and_queries(dataset: str, scale: float, pool: int, seed: int):
    X = make_dataset(dataset, scale=scale, seed=COLLECTION_SEED)
    Q = make_queries(dataset, pool, scale=scale, seed=COLLECTION_SEED)
    return X, Q[np.random.default_rng(seed).permutation(pool)]
