"""In-memory span recording for the traced run.

A span has a name, start and end times, the id of the span open when it
began (its parent) and an operation id shared by every span of one
operation.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = ""
        self._open: list[dict] = []
        self._ops = 0

    @contextmanager
    def span(self, name: str, new_op: bool = False, **attrs):
        """Record the enclosed block; attrs the block adds to the yielded
        dict (counts, byte sizes) are kept with the span."""
        parent = self._open[-1] if self._open else None
        if new_op or parent is None:
            self._ops += 1
            op = self._ops
        else:
            op = parent["op"]
        record = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "op": op,
            "phase": self.phase,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"header": header, "spans": self.spans}, fh)


class NullTracer:
    """Stands in for a Tracer on untraced passes; records nothing."""

    def span(self, name: str, new_op: bool = False, **attrs):
        return nullcontext(attrs)


NULL = NullTracer()


def duration(record: dict) -> float:
    return record["end"] - record["start"]
