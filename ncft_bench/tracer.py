"""Span tracing of ncft's public functions, installed from outside the package.

Each listed function is replaced, in every loaded ``ncft`` module namespace
that binds it, by a wrapper that records one span (name, start, end, parent)
per call. Spans live in flat arrays (24 bytes each) until the run ends; the
self time of a span is its duration minus the durations of its children.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
import time
from array import array

import numpy as np

# module -> public functions wrapped in the traced run
WRAPPED = {
    "models": ("eigen",),
    "curves": ("hugoniot_point", "rarefaction_point", "mu_natural",
               "mu_minus_natural", "mu_flat_zero", "companion_parameter",
               "generalized_strength", "entropy_dissipation"),
    "kinetics": ("mu_flat", "mu_sharp", "mu_nucleation", "check_hypotheses"),
    "riemann": ("solve_riemann", "wave_curve_point"),
    "tracking": ("init_fronts", "run", "next_collision",
                 "resolve_interaction"),
    "diagnostics": ("calibrate", "lyapunov_series", "event_delta", "snapshot",
                    "cycle_audit"),
    "cli": ("run_experiment",),
}


def _ncft_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "ncft" or name.startswith("ncft."))]


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = collections.Counter()
        self._undo = []

    def _intern(self, qualname: str) -> int:
        if qualname not in self._index:
            self._index[qualname] = len(self.names)
            self.names.append(qualname)
        return self._index[qualname]

    def _open(self, idx: int) -> int:
        sid = len(self.start)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.name.append(idx)
        self.parent.append(self._stack[-1])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int):
        self._stack.pop()
        self.end[sid] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, qualname: str):
        sid = self._open(self._intern(qualname))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, qualname: str, fn):
        idx = self._intern(qualname)
        opened, closed = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = opened(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                closed(sid)
        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _rebind(self, original, replacement):
        for mod in _ncft_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self):
        """Wrap every function in WRAPPED wherever ncft binds it, and count
        Hugoniot curve requests and constructions."""
        mods = {m.__name__.rpartition(".")[2]: m for m in _ncft_modules()}
        for modname, funcs in WRAPPED.items():
            for func in funcs:
                original = getattr(mods[modname], func)
                self._rebind(original,
                             self._wrap(f"{modname}.{func}", original))
        curves = mods["curves"]
        self._rebind(curves.hugoniot_curve,
                     self._counted("curves.hugoniot_curve",
                                   curves.hugoniot_curve))
        init = curves.HugoniotCurve.__init__
        curves.HugoniotCurve.__init__ = self._counted(
            "curves.HugoniotCurve", init)
        self._undo.append((curves.HugoniotCurve, "__init__", init))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self) -> tuple:
        """(calls, self seconds) per interned name, as name-indexed arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        return calls, self_s

    def write(self, path: str):
        np.savez(path,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 names=np.array(json.dumps(self.names)))
