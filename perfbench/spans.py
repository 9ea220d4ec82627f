"""Spans recorded from outside the program.

The traced run replaces module attributes of ``tvbound`` with wrappers that
record a span around each call.  The attributes wrapped are the ones the
nested calls look up at call time, so the spans nest: ``solve_hierarchy``
calls ``moments`` and ``solve_level`` through the ``relaxation`` module's
globals, ``solve_level`` calls ``assemble`` the same way and ``conic.solve``
as a module attribute, and it imports ``recover_certificate`` when it runs.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

from tvbound.conic import SolverSettings


def _solve_attrs(args, kwargs, result) -> dict:
    program = args[0]
    settings = (args[1] if len(args) > 1 else kwargs.get("settings")) or SolverSettings()
    residual = max(result.primal_residual, result.dual_residual, result.gap)
    return {
        "iterations": int(result.iterations),
        "status": result.status.value,
        "residual": float(residual),
        "tol": float(settings.tol),
        "block_order_sum": sum(blk.size for blk in program.blocks),
    }


def _assemble_attrs(args, kwargs, result) -> dict:
    return {"reduced": bool(result.reduced)}


def _verify_attrs(args, kwargs, result) -> dict:
    return {"value": float(result)}


# (module, attribute, span name, attributes recorded from the call)
WRAPPED = (
    ("tvbound.relaxation", "solve_hierarchy", "relaxation.solve_hierarchy", None),
    ("tvbound.relaxation", "moments", "measures.moments", None),
    ("tvbound.relaxation", "solve_level", "relaxation.solve_level", None),
    ("tvbound.relaxation", "assemble", "relaxation.assemble", _assemble_attrs),
    ("tvbound.conic", "solve", "conic.solve", _solve_attrs),
    ("tvbound.certificates", "recover_certificate", "certificates.recover", None),
    ("tvbound.certificates", "verify_certificate", "certificates.verify", _verify_attrs),
    ("tvbound.extraction", "recover_hahn_jordan", "extraction.hahn_jordan", None),
)


class Recorder:
    """In-memory span log: name, start, end, parent span, op id, attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, attrs: dict | None = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        if attrs:
            span[5].update(attrs)
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, fn, name, attrs_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end(index, {"error": type(exc).__name__})
                raise
            self.end(index, attrs_of(args, kwargs, result) if attrs_of else None)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every attribute in ``WRAPPED`` for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, attrs_of in WRAPPED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(saved[-1][2], name, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "attrs": attrs,
                }) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part its direct children cover, in ns."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
