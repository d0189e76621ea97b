"""Scaled Discrete Fourier components and the DFT lower bound.

Coefficients are ``rfft(x) / sqrt(n)`` so that Parseval's theorem reads

    ed2(x, y) = sum_{k=0}^{n-1} |C_k(x) - C_k(y)|^2

For real series the spectrum is conjugate-symmetric, so restricting to
k in [0, n/2] and unrolling real/imag parts gives per-scalar-component
weights: 1 for DC (k=0, real) and the Nyquist real part (k=n/2, n even),
2 for every other real/imag part — the Rafiei-Mendelzon bound. Dropping
any subset of components only shrinks the sum, hence any component
subset with these weights lower-bounds the squared ED (paper Eq. 1).
"""
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ComponentSpace:
    """The scalar Fourier component layout for series length ``n``.

    ``labels[i] = (k, 0|1)`` — complex coefficient index and real(0)/imag(1)
    part of scalar component ``i``; ``ks``/``parts`` hold the same two
    columns as arrays; ``weights[i]`` is its multiplier in the squared-ED
    decomposition.
    """

    n: int
    labels: tuple  # tuple[(k, part), ...]
    weights: np.ndarray  # (m,) float64
    ks: np.ndarray  # (m,) int64
    parts: np.ndarray  # (m,) int64

    @property
    def m(self) -> int:
        return len(self.labels)


def component_space(n: int) -> ComponentSpace:
    """Enumerate scalar components for length-``n`` real series.

    Order: (k=0, real), (k=1, real), (k=1, imag), (k=2, real), ... —
    i.e. by increasing frequency, real before imag. The imaginary parts
    at k=0 and (for even n) k=n/2 are identically zero and excluded.
    """
    labels, weights = [], []
    for k in range(n // 2 + 1):
        dc_or_nyq = k == 0 or (n % 2 == 0 and k == n // 2)
        labels.append((k, 0))
        weights.append(1.0 if dc_or_nyq else 2.0)
        if not dc_or_nyq:
            labels.append((k, 1))
            weights.append(2.0)
    ks, parts = np.array(labels, dtype=np.int64).reshape(-1, 2).T
    return ComponentSpace(n=n, labels=tuple(labels), weights=np.asarray(weights),
                          ks=ks, parts=parts)


def dft_components(x: np.ndarray, space: ComponentSpace) -> np.ndarray:
    """Scaled scalar Fourier components of a batch ``(N, n)`` -> ``(N, m)``."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != space.n:
        raise ValueError(f"series length {x.shape[1]} != space.n {space.n}")
    spec = np.fft.rfft(x, axis=1) / np.sqrt(space.n)
    c = spec[:, space.ks]
    return np.where(space.parts == 0, c.real, c.imag)


def dft_lb2(ca: np.ndarray, cb: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Squared DFT lower bound from (subset) component rows and their weights."""
    ca = np.atleast_2d(ca)
    cb = np.atleast_2d(cb)
    return np.einsum("ij,j->i", (ca - cb) ** 2, np.asarray(weights, dtype=np.float64))
