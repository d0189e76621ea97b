"""Timing helpers and the run record shared by the workloads."""
import heapq
import resource
import time
import traceback

import numpy as np

from oracle import Oracle, check_batch


def percentile(values, p: float) -> float:
    """Percentile ``p`` (0-100) by linear interpolation."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def supported(n: int, p: float) -> bool:
    """At least ten of ``n`` samples lie beyond percentile ``p``."""
    return n * (100 - p) >= 10 * 100


def median_time(fn, reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return float(np.median(ts))


class Reference:
    """A fixed job that uses no library code: gather 300 rows of a
    seeded 8000 x 256 matrix, take their squared distances to a vector,
    and keep the 10 smallest in a Python heap, twice. Like a tree query
    it mixes small numpy calls, scattered memory reads and interpreter
    work, so it slows down with the host as a query does.

    The shared host runs the same code at speeds that differ by up to
    1.5x for seconds at a time. A latency timed just after and just
    before one run of this job each, and divided by their mean, is the
    latency in units of the host's current speed (``per_unit``); the
    program's own changes move it in full, since this job never
    changes."""

    ROWS, COLS, PICK, KEEP, REPS = 8000, 256, 300, 10, 2

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((self.ROWS, self.COLS))
        self.v = rng.standard_normal(self.COLS)
        self.idx = np.sort(rng.choice(self.ROWS, self.PICK, replace=False))
        self.times: list[float] = []

    def job(self) -> float:
        worst = 0.0
        for _ in range(self.REPS):
            d = ((self.A[self.idx] - self.v) ** 2).sum(1)
            heap: list[tuple[float, int]] = []
            for j in np.argsort(d):
                heapq.heappush(heap, (-float(d[j]), int(j)))
                if len(heap) > self.KEEP:
                    heapq.heappop(heap)
            worst += -heap[0][0]
        return worst

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self.job()
        dt = time.perf_counter() - t0
        self.times.append(dt)
        return dt

    def per_unit(self, dt: float, before: float, after: float) -> float:
        """``dt`` seconds over the mean of the reference seconds timed
        just before and just after it."""
        return dt / ((before + after) / 2)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """What one benchmark run measured: answers attempted and failed,
    the reasons for failures, metrics and detail for the output file."""

    def __init__(self, seed: int, seconds: float, tracer,
                 inject_wrong_answer: bool = False):
        self.inject = inject_wrong_answer
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 50:
            self.errors.append(f"{what}: {reason}")

    def verify(self, what: str, oracle: Oracle, Q, k: int, answers) -> None:
        """Check a batch of answers against the oracle and count them.

        With ``inject_wrong_answer`` the first answer checked in the run
        gets a wrong id, which the check must catch."""
        if self.inject and answers and answers[0]:
            answers = [list(a) for a in answers]
            d, sid = answers[0][0]
            wrong = oracle.ids[(oracle.pos[sid] + 1) % len(oracle.ids)]
            answers[0][0] = (d, int(wrong))
            self.inject = False
        self.attempted += len(answers)
        for r in check_batch(oracle, Q, k, answers):
            self.fail(what, r)

    def raised(self, what: str, n: int) -> None:
        """Count ``n`` answers lost to the exception being handled."""
        self.attempted += n
        self.failed += n
        if len(self.errors) < 50:
            self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")
