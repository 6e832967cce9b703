"""Outside-in tracing of the fusionring modules, for the traced run.

``Tracer`` replaces each module's public functions, under every name they
are bound to, with a wrapper that records a span: name, start, end, parent
span and op id.  Spans stay in memory until the run writes them out.  A
layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

PACKAGE = "fusionring"
MODULES = ("ring", "specfmt", "oracles", "chartable", "cyclotomic", "axioms", "subrings", "ladder", "search", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    extra: dict = field(default_factory=dict)


def _report_extra(report) -> dict:
    instances = sum(e.passed + e.failed + e.skipped for e in report.entries)
    return {"instances": instances, "skipped": sum(e.skipped for e in report.entries)}


# What each span records from its arguments and result, beyond its times.
PROBES: dict[str, Callable] = {
    "specfmt.parse_spec": lambda args, result: {"bytes": len(args[0].encode())},
    "axioms.check_axioms": lambda args, result: _report_extra(result),
    "subrings.enumerate_standard_subrings": lambda args, result: {"returned": len(result)},
    "ladder.ladder_build": lambda args, result: {"depth": result.depth_reached},
    "search.enumerate_rings": lambda args, result: {"rings": len(result)},
}


class Tracer:
    """Records spans while installed; ``with tracer:`` installs and restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.op: Optional[int] = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        probe = PROBES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe is not None:
                span.extra = probe(args, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
        # Rebind every name a wrapped function is known by, the package's too.
        for mod in [sys.modules[PACKAGE], *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        table = modules["chartable"].CharacterTable
        self._set(table, "validate", self.wrap("chartable.validate", table.validate))
        cyclo = modules["cyclotomic"].Cyclotomic
        self._set(cyclo, "__init__", self._counting("cyclotomic.reductions", cyclo.__init__))
        return self

    def _counting(self, name: str, fn: Callable) -> Callable:
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(s.end - s.start - covered)
    return out
