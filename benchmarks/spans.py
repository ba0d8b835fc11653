"""Timing shims around diftsim's public entry points, for the traced run.

``Tracer.installed()`` replaces each traced function, in every diftsim
module that refers to it, with a shim that records a span (name, start,
end, parent, request, info) in memory, and puts the originals back on
exit. Nothing in the package is edited. Functions called once per node
(``eval_binop``, ``propagate``, ``apply_binop``) are not wrapped; the
benchmark times them by direct replay instead.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

# Shared, never mutated: a checkpoint span costs no dict of its own.
_NO_INFO: dict = {}
_DENY: dict = {"deny": True}
_ALLOW: dict = {"deny": False}

TRACED = (
    ("kernel_ir", "parse_kernel"),
    ("kernel_ir", "validate"),
    ("kernel_ir", "const_fold"),
    ("kernel_ir", "dead_code_elim"),
    ("kernel_ir", "instrument"),
    ("kernel_ir", "emit_dot"),
    ("simulator", "sample_inputs"),
    ("simulator", "run_baseline"),
    ("simulator", "run_dift"),
    ("simulator", "check_consistency"),
    ("simulator", "fuzz_properties"),
    ("policy_monitor", "checkpoint"),
)


class Span:
    """One call into a traced function; info holds the counts it handled."""

    __slots__ = ("name", "start", "parent", "request", "end", "child_time", "info", "ok")

    def __init__(self, name: str, start: float, parent: int, request: object):
        self.name = name
        self.start = start
        self.parent = parent
        self.request = request
        self.end = 0.0
        self.child_time = 0.0
        self.info = _NO_INFO
        self.ok = True  # False when the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _info(name: str, args: tuple, result, error: Exception | None) -> dict:
    """The counts a span carries: nodes run, run mode, samples, verdict."""
    if name == "parse_kernel":
        return {"nodes": len(result[0].nodes) if result[0] is not None else 0}
    if name == "dead_code_elim":
        return {"nodes": len(result.nodes)}
    if name in ("run_baseline", "run_dift"):
        if error is not None:
            nodes = (getattr(error, "step", None) or 1) - 1
        else:
            nodes = result.steps_executed if name == "run_dift" else len(args[0].nodes)
        info = {"nodes": nodes}
        if name == "run_dift":
            cfg = args[2]
            if cfg.on_exception == "halt":
                info["mode"] = "halt"
            else:
                info["mode"] = cfg.rule.value if cfg.rule is not None else "coarse"
        return info
    if name == "check_consistency":
        return {"samples": args[2]}
    if name == "fuzz_properties":
        return {"samples": args[1]}
    if name == "checkpoint":
        return _DENY if result is not None else _ALLOW
    return _NO_INFO


class Tracer:
    """Collects spans while installed; one tracer per benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: object = None
        self._stack: list[int] = []

    def _shim(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def close(span: Span) -> None:
            span.end = clock()
            stack.pop()
            if span.parent >= 0:
                spans[span.parent].child_time += span.end - span.start

        def shim(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                close(span)
                span.info = _info(name, args, None, e)
                span.ok = False
                raise
            close(span)
            span.info = _info(name, args, result, None)
            return result

        return shim

    @contextmanager
    def installed(self, request: object):
        """Wrap every traced function for the duration of the block."""
        self.request = request
        modules = [m for n, m in sys.modules.items() if n.startswith("diftsim") and m]
        saved = []
        for home, name in TRACED:
            fn = getattr(sys.modules[f"diftsim.{home}"], name)
            shim = self._shim(name, fn)
            for mod in modules:
                if getattr(mod, name, None) is fn:
                    saved.append((mod, name, fn))
                    setattr(mod, name, shim)
        try:
            yield self
        finally:
            for mod, name, fn in saved:
                setattr(mod, name, fn)
            self.request = None

    # -- derived per-layer figures -------------------------------------------

    def select(self, name: str, **info) -> list[Span]:
        return [
            s
            for s in self.spans
            if s.name == name and all(s.info.get(k) == v for k, v in info.items())
        ]

    def median_self(self, name: str, **info) -> float:
        spans = self.select(name, **info)
        return statistics.median(s.self_time for s in spans) if spans else 0.0

    def under(self, ancestor: str) -> list[Span]:
        """Spans whose nearest ancestor named ancestor returned normally."""
        found = []
        for s in self.spans:
            p = s.parent
            while p >= 0 and self.spans[p].name != ancestor:
                p = self.spans[p].parent
            if p >= 0 and self.spans[p].ok:
                found.append(s)
        return found
