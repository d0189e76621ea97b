"""Float64 brute-force k-NN oracle and the answer check.

The oracle is independent of ``repro``: candidates are preselected with a
float64 inner-product pass whose rounding error is bounded, and every
candidate's distance is then recomputed from explicit differences.

An answer ``[(dist, id), ...]`` for one query is correct when it has
``min(k, N)`` distinct ids, each reported distance equals that series'
true distance within ``TOL``, and at every rank the returned id is the
oracle's id or a tie with it: its true distance is within ``TOL`` of the
oracle's distance at that rank. The oracle orders by (distance, id).
"""
import numpy as np

#: absolute + relative distance tolerance (distances of z-normalized
#: series of length n lie in [0, 2*sqrt(n)])
ABS_TOL = 1e-4
REL_TOL = 1e-5


def within(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def exact_d2(X: np.ndarray, q: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Squared distances of ``q`` to ``X[rows]`` from explicit differences."""
    d = np.asarray(X[rows], dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.einsum("ij,ij->i", d, d)


class Oracle:
    """Exact k-NN over a fixed float64 copy of the collection ``X``."""

    def __init__(self, X: np.ndarray, ids: np.ndarray | None = None):
        self.X = np.ascontiguousarray(X, dtype=np.float64)
        self.ids = (np.arange(len(X), dtype=np.int64) if ids is None
                    else np.asarray(ids, dtype=np.int64))
        self.xx = np.einsum("ij,ij->i", self.X, self.X)
        self.pos = {int(i): p for p, i in enumerate(self.ids)}

    def knn(self, Q: np.ndarray, k: int) -> list[list[tuple[float, int]]]:
        """Per query, the ``min(k, N)`` nearest ``(dist, id)``, ordered by
        (distance, id)."""
        Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
        return [ans for lo in range(0, len(Q), 128)
                for ans in self._knn(Q[lo:lo + 128], min(k, len(self.X)))]

    def _knn(self, Q: np.ndarray, kk: int) -> list[list[tuple[float, int]]]:
        approx = self.xx[None, :] + np.einsum("ij,ij->i", Q, Q)[:, None] \
            - 2.0 * (Q @ self.X.T)
        out = []
        for qi, q in enumerate(Q):
            a = approx[qi]
            kth = np.partition(a, kk - 1)[kk - 1]
            # rounding error of the inner-product form is far below this
            # margin, so the candidate set holds every true k-NN
            margin = 1e-6 * (self.xx.max() + float(q @ q)) + 1e-6
            rows = np.nonzero(a <= kth + margin)[0]
            d = np.sqrt(exact_d2(self.X, q, rows))
            order = np.lexsort((self.ids[rows], d))[:kk]
            out.append([(float(d[j]), int(self.ids[rows[j]])) for j in order])
        return out

    def true_dist(self, q: np.ndarray, sid: int) -> float:
        p = self.pos.get(int(sid))
        if p is None:
            return float("nan")
        return float(np.sqrt(exact_d2(self.X, q, np.array([p]))[0]))


def check_answer(oracle: Oracle, q: np.ndarray, expected, got) -> str | None:
    """None when ``got`` is a correct k-NN answer, else the reason."""
    got = [(float(d), int(i)) for d, i in got]
    if len(got) != len(expected):
        return f"{len(got)} results, expected {len(expected)}"
    if len({i for _, i in got}) != len(got):
        return "duplicate ids"
    for r, ((d, sid), (ed, eid)) in enumerate(zip(got, expected)):
        td = oracle.true_dist(q, sid)
        if not within(d, td):
            return f"rank {r}: id {sid} reported {d:.6f}, true {td:.6f}"
        if sid != eid and not within(td, ed):
            return f"rank {r}: id {sid} at {td:.6f}, oracle id {eid} at {ed:.6f}"
    return None


def check_batch(oracle: Oracle, Q: np.ndarray, k: int, answers) -> list[str]:
    """Reasons for every wrong answer in a batch (empty when all correct)."""
    expected = oracle.knn(Q, k)
    bad = []
    for qi, (q, exp, got) in enumerate(zip(np.atleast_2d(Q), expected, answers)):
        why = check_answer(oracle, np.asarray(q, dtype=np.float64), exp, got)
        if why is not None:
            bad.append(f"query {qi}: {why}")
    return bad
