"""In-memory span recorder used by the traced benchmark runs.

A span is one call into a layer's public function: its name, start and
end (``time.perf_counter`` seconds), the span that was open when it
began (its parent) and, where the call has one, the cell key it worked
on.  Spans stay in memory and are written out once, when the recording
process ends; a traced run merges the files of every process it
started.

Span ids are ``"<pid>:<n>"`` so ids from forked workers never collide
with their parent's.  A forked child must call :meth:`Recorder.reset`
first: it inherits its parent's list and open stack.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    """One recorded call."""

    id: str
    parent: str | None
    name: str
    start: float
    end: float = 0.0
    key: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if e > start and s < end)
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    return {span.id: span.duration
            - covered(span.start, span.end, children.get(span.id, ()))
            for span in spans}


class Recorder:
    """Collects spans for one process; nesting follows the call stack."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget every span (the first step in a forked child)."""
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._pid = os.getpid()
        self._next = 0

    def begin(self, name: str, key: str | None = None, **attrs) -> Span:
        self._next += 1
        span = Span(f"{self._pid}:{self._next}",
                    self._open[-1].id if self._open else None, name,
                    time.perf_counter(), key=key, attrs=attrs)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()        # wrappers nest: ``span`` is innermost
        self.spans.append(span)

    def dump(self, path: str | Path) -> None:
        """Write this process's spans as JSON (one file per process)."""
        rows = [[s.id, s.parent, s.name, s.start, s.end, s.key, s.attrs]
                for s in self.spans]
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(rows), encoding="utf-8")
        os.replace(tmp, path)


def load(directory: str | Path, prefix: str = "") -> list[Span]:
    """Merge the span files every process wrote into ``directory``.

    ``prefix`` keeps ids unique across runs whose process ids repeat.
    """
    spans = []
    for path in sorted(Path(directory).glob("spans-*.json")):
        for sid, parent, *rest in json.loads(
                path.read_text(encoding="utf-8")):
            spans.append(Span(prefix + sid,
                              None if parent is None else prefix + parent,
                              *rest))
    return spans
