"""In-memory spans recorded around calls into the library's layers.

A span has a name, start and end (``perf_counter`` seconds), the id of
the span that encloses it and the query or action id it serves. The
layer is the name's first component (``index.sofa.knn`` -> ``index``).
Spans stay in a list until ``write`` dumps them at the end of a run.
A disabled tracer records nothing and costs one attribute test per call.
"""
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, req: int | None = None):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "req": req, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans, minus the part of each
        span's interval that its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            layer = s["name"].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (s["end"] - s["start"]) - c
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)
