"""Spans around the program's public functions, recorded from outside.

Each function is wrapped under the name its caller looks it up by (the
module attribute, such as ``xxz_deficit.optimizer.entropy_curve``), so no
file of the program changes.  A span holds its name, start, end, parent
span and one number (samples, bytes, cells or points, where the layer has
one).  Spans live in flat arrays until the run ends; self time is a
span's duration minus the durations of its direct children, which nest
inside it because every span opens and closes on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) -> span name; a callable name picks it per call.
_TARGETS = [
    ("optimizer", "thermal_state", "model.thermal_state"),
    ("boundaries", "thermal_state", "model.thermal_state"),
    ("cli", "thermal_state", "model.thermal_state"),
    ("optimizer", "entropy_curve", "measurement.entropy_curve"),
    ("optimizer", "post_meas_entropy", "measurement.post_meas_entropy"),
    ("boundaries", "second_derivative_at_0", "measurement.curvature"),
    ("boundaries", "second_derivative_at_halfpi", "measurement.curvature"),
    ("optimizer", "scan_profile", "optimizer.scan_profile"),
    ("boundaries", "scan_profile", "optimizer.scan_profile"),
    ("cli", "scan_profile", "optimizer.scan_profile"),
    ("optimizer", "golden_section_min", "optimizer.golden_section_min"),
    ("optimizer", "optimize_deficit", "optimizer.optimize_deficit"),
    ("boundaries", "optimize_deficit", "optimizer.optimize_deficit"),
    ("diagram", "optimize_deficit", "optimizer.optimize_deficit"),
    ("cli", "optimize_deficit", "optimizer.optimize_deficit"),
    ("cli", "optimal_angle_jump", "optimizer.optimal_angle_jump"),
    ("boundaries", "boundary_residual", lambda args: "boundaries.residual." + args[0].value),
    ("boundaries", "solve_boundary_on_line", "boundaries.solve"),
    ("cli", "solve_boundary_on_line", "boundaries.solve"),
    ("cli", "trace_boundary", "boundaries.trace"),
    ("cli", "find_triple_point", "boundaries.find_triple_point"),
    ("cli", "sweep", "diagram.sweep"),
    ("cli", "level_lines", "diagram.level_lines"),
    ("cli", "diagram_to_csv", "diagram.write"),
    ("cli", "diagram_to_json", "diagram.write"),
    ("cli", "contours_to_csv", "diagram.write"),
]

# The one number a span carries, from the call's arguments and result.
_VALUES = {
    "measurement.entropy_curve": lambda args, out: len(out),
    "boundaries.trace": lambda args, out: len(out.points),
    "diagram.sweep": lambda args, out: out.grid.n_t * out.grid.n_b,
    "diagram.write": lambda args, out: len(out.encode()),
}

RESIDUAL_KINDS = ("zero", "halfpi", "equal", "zeroprime")
CLI_COMMANDS = ("diagram", "boundary", "triple", "jumps")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_per_station"):
        return "ratio"
    return "count"


class Recorder:
    """In-memory span store.  Forked children (the sweep's process pool)
    stop recording: their spans would be lost with the child anyway."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end, self.value):
            del arr[:]
        self._stack.clear()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, args, kwargs, value=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        try:
            out = fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self._stack.pop()
        if value is not None:
            self.value[idx] = value(args, out)
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.array(self.name, dtype=np.uint16),
            parent=np.array(self.parent, dtype=np.int32), start=np.array(self.start),
            end=np.array(self.end), value=np.array(self.value))

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times of the spans recorded so far."""
        label = np.array(self.names + [""])[np.array(self.name, dtype=np.int64)]
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        value = np.array(self.value)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=len(dur))

        def pick(prefix, exact=True):
            return label == prefix if exact else np.char.startswith(label, prefix)

        def calls(n, exact=True):
            return int(pick(n, exact).sum())

        def secs(n, exact=True):
            return float(dur[pick(n, exact)].sum())

        def self_s(n):
            m = pick(n)
            return float((dur[m] - child[m]).sum())

        def total(n):
            return int(value[pick(n)].sum())

        stations = total("boundaries.trace") + calls("optimizer.optimal_angle_jump")
        residuals = calls("boundaries.residual.", exact=False)
        out = {
            "model.thermal_state.calls": calls("model.thermal_state"),
            "model.thermal_state.s": secs("model.thermal_state"),
            "measurement.entropy_curve.calls": calls("measurement.entropy_curve"),
            "measurement.entropy_curve.samples": total("measurement.entropy_curve"),
            "measurement.entropy_curve.s": secs("measurement.entropy_curve"),
            "measurement.post_meas_entropy.calls": calls("measurement.post_meas_entropy"),
            "measurement.post_meas_entropy.s": secs("measurement.post_meas_entropy"),
            "measurement.curvature.calls": calls("measurement.curvature"),
            "measurement.curvature.s": secs("measurement.curvature"),
            "optimizer.scan_profile.calls": calls("optimizer.scan_profile"),
            "optimizer.scan_profile.self_s": self_s("optimizer.scan_profile"),
            "optimizer.golden_section_min.calls": calls("optimizer.golden_section_min"),
            "optimizer.golden_section_min.s": secs("optimizer.golden_section_min"),
            "optimizer.optimize_deficit.calls": calls("optimizer.optimize_deficit"),
            "optimizer.optimize_deficit.s": secs("optimizer.optimize_deficit"),
        }
        for kind in RESIDUAL_KINDS:
            out[f"boundaries.residual.{kind}.calls"] = calls("boundaries.residual." + kind)
        out.update({
            "boundaries.residual.s": secs("boundaries.residual.", exact=False),
            "boundaries.solve.calls": calls("boundaries.solve"),
            "boundaries.solve.self_s": self_s("boundaries.solve"),
            "boundaries.stations": stations,
            "boundaries.residuals_per_station": residuals / stations if stations else 0.0,
            "boundaries.find_triple_point.s": secs("boundaries.find_triple_point"),
            "diagram.sweep.cells": total("diagram.sweep"),
            "diagram.sweep.s": secs("diagram.sweep"),
            "diagram.level_lines.s": secs("diagram.level_lines"),
            "diagram.write.s": secs("diagram.write"),
            "diagram.write.bytes": total("diagram.write"),
        })
        for cmd in CLI_COMMANDS:
            out[f"cli.{cmd}.s"] = secs("cli." + cmd)
        return out


def _wrapper(rec: Recorder, fn, name):
    name_of = name if callable(name) else (lambda args: name)
    value = None if callable(name) else _VALUES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return rec.call(name_of(args), fn, args, kwargs, value)

    return traced


@contextlib.contextmanager
def installed(rec: Recorder):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for mod_name, attr, name in _TARGETS:
            mod = importlib.import_module("xxz_deficit." + mod_name)
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrapper(rec, fn, name))
        yield rec
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
