"""In-memory span tracer wrapped around the public rnnfast callables.

The tracer patches module and class attributes from outside the package, so
the program under test is unchanged.  Every wrapped call records one span
(name, start, end, parent) in flat arrays; nothing is written until
``Tracer.save`` runs at the end of the benchmark.  Spans of one process
share a single timeline, and a span's parent is the innermost traced call
that was open when it started.

Only the calls that ``simulate`` itself makes are traced for the activation
and fixed-point helpers: ``simulator.activation_fns`` and ``simulator.fp``
are replaced, which leaves the reference replay and preset generation
(which use the same helpers) out of those counts.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from array import array

import numpy as np

import workloads  # noqa: F401  (puts src/ on sys.path)
from rnnfast import error_model, fixedpoint, lstm_core, mapping, presets, racetrack, simulator

SIMULATE = "simulator.simulate"
MAC_ISSUE = "lstm_core.MacPipeline.issue"
ROTATE_STEP = "racetrack.InputTrackChain.rotate_step"
FAULT_PLAN = "error_model.FaultPlan"
ACTIVATION = "nonlinear.activation"
FIXEDPOINT = "fixedpoint.helper"
PARAMS = "presets.generate_network_params"
INPUTS = "presets.generate_inputs"
MAP_NETWORK = "mapping.map_network"
FIDELITY = "error_model.run_fidelity_experiment"

# (owner, attribute, span name) of every plainly wrapped callable.
_TARGETS = (
    (presets, "generate_network_params", PARAMS),
    (presets, "generate_inputs", INPUTS),
    (mapping, "map_network", MAP_NETWORK),
    (simulator, "simulate", SIMULATE),
    (error_model, "run_fidelity_experiment", FIDELITY),
    (simulator, "FaultPlan", FAULT_PLAN),
    (lstm_core.MacPipeline, "issue", MAC_ISSUE),
    (racetrack.InputTrackChain, "rotate_step", ROTATE_STEP),
)


class Tracer:
    """Flat, append-only span store for one process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]

    def wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, open_ = (
            self.name_id, self.parent, self.start, self.end, self._open
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_.pop()

        return traced

    def __len__(self):
        return len(self.start)

    def summary(self) -> dict:
        """Per span name: call count, total duration and total self time.

        A span's self time is its duration minus the durations of its direct
        children; calls are nested on one thread, so children never overlap.
        """
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        totals = np.bincount(names, weights=dur, minlength=k)
        selfs = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(counts[i]), "total_s": float(totals[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _fixedpoint_proxy(tracer):
    """Stand-in for ``simulator.fp`` whose functions record spans."""
    attrs = {}
    for attr in dir(fixedpoint):
        value = getattr(fixedpoint, attr)
        if attr.startswith("__"):
            continue
        if isinstance(value, types.FunctionType):
            value = tracer.wrap(FIXEDPOINT, value)
        attrs[attr] = value
    return types.SimpleNamespace(**attrs)


@contextlib.contextmanager
def patch(owner, attr, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


@contextlib.contextmanager
def installed(tracer):
    """Route the traced callables through `tracer` for the duration."""
    wrapped_acts = {}
    activation_fns = simulator.activation_fns

    def traced_activation_fns(impl):
        if impl not in wrapped_acts:
            wrapped_acts[impl] = tuple(tracer.wrap(ACTIVATION, f) for f in activation_fns(impl))
        return wrapped_acts[impl]

    with contextlib.ExitStack() as stack:
        for owner, attr, name in _TARGETS:
            stack.enter_context(patch(owner, attr, tracer.wrap(name, getattr(owner, attr))))
        stack.enter_context(patch(simulator, "activation_fns", traced_activation_fns))
        stack.enter_context(patch(simulator, "fp", _fixedpoint_proxy(tracer)))
        yield tracer
