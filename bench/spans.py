"""In-memory spans around the benchmark's calls into the package.

A ``Caller`` is what every request uses to call a public function of a
layer.  Untraced, it calls straight through.  Traced, it records one span per
call: layer, function, start, end, the request it belongs to, and attributes
(static ones from the request, plus ``note``-d ones from the result).  Spans
stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time

class Caller:
    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list = []
        self.request_id = -1

    def __call__(self, layer: str, name: str, fn, *args, attrs=None):
        if not self.traced:
            return fn(*args)
        span = {"layer": layer, "fn": name, "request": self.request_id,
                "attrs": dict(attrs or {})}
        span["start"] = time.perf_counter()
        try:
            return fn(*args)
        finally:
            span["end"] = time.perf_counter()
            self.spans.append(span)

    def note(self, **attrs) -> None:
        """Attach result-derived attributes to the span just closed."""
        if self.traced:
            self.spans[-1]["attrs"].update(attrs)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of recording one span, net of the untraced call."""
    def noop():
        return None

    def loop(caller):
        start = time.perf_counter()
        for _ in range(n):
            caller("cli", "noop", noop)
        return time.perf_counter() - start

    plain, traced = Caller(False), Caller(True)
    costs = sorted(loop(traced) - loop(plain) for _ in range(5))
    return max(costs[2], 0.0) / n


def covered_s(spans) -> float:
    """Length of the union of the span intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted((s["start"], s["end"]) for s in spans):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
