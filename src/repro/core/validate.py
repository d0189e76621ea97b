"""Input checks shared by the ingest entry points."""
import numpy as np


def all_finite(a: np.ndarray) -> bool:
    """True when ``a`` holds no NaN and no infinity.

    NaN propagates through ``min`` and ``max`` and an infinity becomes
    one of them, so two reductions decide it without the ``a``-sized
    boolean mask of ``np.isfinite(a).all()``, which raised the peak
    memory of building an index.
    """
    return a.size == 0 or bool(np.isfinite(a.min()) and np.isfinite(a.max()))
