"""In-memory span recorder that wraps library functions from outside.

The benchmark does not edit the package. Instead it replaces the names
one module imported from another (``experiments.greedy_fragment``,
``generators.Graph``, ...) with wrappers that record a span per call,
and puts the originals back afterwards. Spans nest through a stack, so
a ``fragmenters.certify`` span opened inside ``fragmenters.greedy`` has
it as parent. Every span carries the id of the operation it belongs to.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Optional


class Tracer:
    """Records spans for the wrapped names while :meth:`recording` is active."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable, Callable]] = []
        self._run = -1

    def wrap(self, module: Any, attr: str, name: str,
             count: Optional[Callable[[Any, tuple], dict]] = None) -> None:
        """Register a wrapper for ``module.attr`` that records spans called ``name``.

        ``count(result, args)`` returns the counters stored on the span.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span["counts"] = count(result, args)
            return result

        self._patches.append((module, attr, original, wrapper))

    def _open(self, name: str) -> dict[str, Any]:
        span = {
            "name": name,
            "run": self._run,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def recording(self, run: int, root: Optional[str] = None):
        """Install every wrapper for the duration of the block.

        With ``root`` set, the block itself is recorded as a span of that
        name, which becomes the parent of the top-level library spans.
        """
        self._run = run
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        span = self._open(root) if root else None
        try:
            yield
        finally:
            if span is not None:
                self._close(span)
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._run = -1


def summarize(spans: list[dict[str, Any]],
              scale: dict[int, float]) -> dict[str, dict[str, float]]:
    """Per span name, over the spans of the runs in ``scale``: total and
    self seconds, call count and summed counters.

    Durations are multiplied by their run's factor in ``scale``. Self
    time is a span's duration minus the durations of its direct
    children; children never overlap because calls are synchronous.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        factor = scale.get(span["run"])
        if factor is None:
            continue
        agg = out.setdefault(span["name"], {"seconds": 0.0, "self_seconds": 0.0, "calls": 0})
        duration = span["end"] - span["start"]
        agg["seconds"] += duration * factor
        agg["self_seconds"] += (duration - child_time[i]) * factor
        agg["calls"] += 1
        for key, value in span.get("counts", {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
