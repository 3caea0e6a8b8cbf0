"""In-memory spans for the traced benchmark run.

A span records one call the benchmark makes into a layer of the package:
its name (``<layer>.<what>``), start and end on the ``perf_counter`` clock,
and the index of the span that was open when it began.  Spans stay in
memory while the run measures and are written out once, when it ends, so
that tracing adds no I/O to the timed region.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float | None = None
    parent: int | None = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans; the parent of a span is the innermost open one."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, perf_counter(), parent=parent)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover.

        Children run one after another on the caller's thread, so they
        never overlap and their durations can simply be summed.
        """
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def layer_self_seconds(self, root_prefix: str) -> dict[str, float]:
        """Self time per layer, summed over the subtrees of the named roots."""
        inside: set[int] = set()
        for i, s in enumerate(self.spans):
            if (s.parent is None and s.name.startswith(root_prefix)) or s.parent in inside:
                inside.add(i)
        totals: dict[str, float] = {}
        for i, own in enumerate(self.self_times()):
            if i in inside:
                layer = self.spans[i].layer
                totals[layer] = totals.get(layer, 0.0) + own
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [dict(asdict(s), id=i, self=own)
                 for i, (s, own) in enumerate(zip(self.spans, self.self_times()))],
                fh,
                indent=1,
            )
            fh.write("\n")
