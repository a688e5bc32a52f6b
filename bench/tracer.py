"""Layer timing by wrapping the names that swelab's modules import.

A module calls another layer through a name bound in its own namespace
(``swelab.solver.roe_flux``, ``swelab.hydrostatic.roe_flux``, ...), so
replacing that binding with a timing wrapper records every call into
the layer without touching the program. Nothing under ``src/`` changes.

Spans are aggregated as they close (a steady run makes ~10^6 of them):
per name, the call count, inclusive time and self time (inclusive time
minus the time covered by wrapped children). A span opened on a worker
thread with nothing open on that thread is a child of the innermost
span open on the main thread, which is blocked in the pool that
started it; the parent's self time then excludes the union of those
worker intervals, not their sum.
"""

from __future__ import annotations

import importlib
import os
import threading
from time import perf_counter

import numpy as np

# span name -> the module bindings that route calls into it
TIMED = {
    "cli.main": ["swelab.cli:main"],
    "cli.sweep": ["swelab.cli:cmd_sweep"],
    "solver.run": ["swelab.cli:run", "swelab.diagnostics:run"],
    "solver.step": ["swelab.solver:step"],
    "solver.interface_terms": ["swelab.solver:interface_terms"],
    "solver.apply_boundaries": ["swelab.solver:apply_boundaries"],
    "solver.cfl_dt": ["swelab.solver:cfl_dt"],
    "fluxes.roe_flux": ["swelab.solver:roe_flux", "swelab.hydrostatic:roe_flux"],
    "fluxes.omega_flux": ["swelab.solver:omega_flux", "swelab.hydrostatic:omega_flux"],
    "sources.roe_source_split": ["swelab.solver:roe_source_split"],
    "sources.omega_source_split": ["swelab.solver:omega_source_split"],
    "hydrostatic.hr_interface_terms": ["swelab.solver:hr_interface_terms"],
    "hydrostatic.hr_reconstruct": ["swelab.hydrostatic:hr_reconstruct"],
    "hydrostatic.modified_hr_corrections": ["swelab.hydrostatic:modified_hr_corrections"],
    "diagnostics.convergence_study": ["swelab.diagnostics:convergence_study"],
    "diagnostics.l1_error": ["swelab.diagnostics:l1_error"],
    "presets.build_preset": ["swelab.presets:build_preset", "swelab.cli:build_preset"],
    "presets.exact_profile": ["swelab.presets:exact_profile", "swelab.cli:exact_profile"],
}
# counted only: timing these tiny calls would cost more than they do
COUNTED = {
    "fluxes.roe_average": ["swelab.fluxes:roe_average", "swelab.sources:roe_average"],
    "core.velocity": ["swelab.core:velocity", "swelab.fluxes:velocity",
                      "swelab.hydrostatic:velocity", "swelab.diagnostics:velocity"],
    "core.physical_flux": ["swelab.fluxes:physical_flux", "swelab.diagnostics:physical_flux"],
}
# spans that also record process CPU time (threads and waited-for children)
CPU = {"cli.sweep", "diagnostics.convergence_study"}
# spans that also count the interfaces they evaluate
IFACES = {"fluxes.roe_flux", "fluxes.omega_flux"}


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _covered(intervals, t0: float, t1: float) -> float:
    """Length of the union of ``intervals`` clipped to [t0, t1]."""
    total, end = 0.0, t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Installs the wrappers, aggregates spans, restores the bindings.

    ``stats(name)`` gives [calls, inclusive s, self s, extra] where
    extra is CPU seconds (names in CPU) or interfaces (names in IFACES).
    ``step_hook(before, after, info, grid, dt)`` runs after each
    ``solver.step`` outside every span, so its cost is nobody's self
    time.
    """

    def __init__(self, step_hook=None):
        self.step_hook = step_hook
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()
        self._patches = []
        self._main_stack = None

    # -- per-thread state --------------------------------------------------

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.table = [], {}
            with self._lock:
                self._tables.append(loc.table)
        return loc.stack, loc.table

    def stats(self, name: str) -> list:
        out = [0, 0.0, 0.0, 0.0]
        with self._lock:
            for table in self._tables:
                for i, v in enumerate(table.get(name, ())):
                    out[i] += v
        return out

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name, fn):
        cpu, ifaces = name in CPU, name in IFACES
        hook = self.step_hook if name == "solver.step" else None

        def wrapper(*args, **kwargs):
            stack, table = self._state()
            cross = None
            if not stack and stack is not self._main_stack and self._main_stack:
                cross = self._main_stack[-1]
            frame = [0.0, None]  # child seconds, worker intervals
            stack.append(frame)
            c0 = _cpu() if cpu else 0.0
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                if frame[1]:
                    own -= _covered(frame[1], t0, t1)
                s = table.get(name)
                if s is None:
                    s = table[name] = [0, 0.0, 0.0, 0.0]
                s[0] += 1
                s[1] += dur
                s[2] += own
                if cpu:
                    s[3] += _cpu() - c0
                elif ifaces:
                    s[3] += np.size(args[0].h)
                if stack:
                    stack[-1][0] += dur
                elif cross is not None:
                    if cross[1] is None:
                        cross[1] = []
                    cross[1].append((t0, t1))
            if hook is not None:
                b0 = perf_counter()
                hook(args[0], out[0], out[1], args[2], args[5])
                if stack:
                    stack[-1][0] += perf_counter() - b0
            return out

        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            _, table = self._state()
            s = table.get(name)
            if s is None:
                s = table[name] = [0, 0.0, 0.0, 0.0]
            s[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ----------------------------------------------------

    def install(self):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("install the tracer from the main thread")
        self._main_stack = self._state()[0]
        for kind, table in ((self._timed, TIMED), (self._counted, COUNTED)):
            for name, targets in table.items():
                for target in targets:
                    mod_name, attr = target.split(":")
                    mod = importlib.import_module(mod_name)
                    orig = getattr(mod, attr)
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, kind(name, orig))

    def uninstall(self):
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)
