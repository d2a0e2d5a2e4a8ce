"""In-memory span recorder for the traced benchmark run.

The library carries no instrumentation of its own, so the recorder wraps
library functions at the module attribute their callers look up (for
example ``lglg.descriptor.decompose``, which ``descriptor`` imported from
``gabor``). Spans are kept in memory and written out once, at the end.

Only this process is traced. A forked pool worker inherits the wrappers,
but the spans it records stay in the worker's memory and are lost.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: ``note(arguments, result) -> attrs`` adds attributes to a finished span.
Note = Callable[[dict[str, Any], Any], dict[str, Any]]


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Callable, Callable]] = []

    def wrap(self, module: Any, attr: str, name: str, note: Note | None = None) -> None:
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                        time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    span.attrs = note(signature.bind(*args, **kwargs).arguments, result)
                return result
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()

        self._patches.append((module, attr, original, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._patches:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span duration minus the part of it that its child spans cover (ns)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0, s.start_ns
        for c in sorted(children.get(s.sid, []), key=lambda c: c.start_ns):
            lo, hi = max(c.start_ns, reach), min(c.end_ns, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.dur_ns - covered
    return out


def write_jsonl(path: str, spans: list[Span], header: dict[str, Any]) -> None:
    """One header line, then one line per span in start order."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "name": s.name, "parent": s.parent,
                "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": selfs[s.sid],
                **({"attrs": s.attrs} if s.attrs else {}),
            }) + "\n")
