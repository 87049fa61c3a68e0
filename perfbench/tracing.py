"""Span tracing of the engine's layers, installed from the benchmark only.

The engine has no span recorder of its own yet, so the traced run wraps
the public functions of each layer at runtime (class attributes are
swapped for timing wrappers and restored afterwards) and leaves ``src/``
untouched.  Spans nest on one stack: a span's *self* time is its
duration minus the durations of the spans opened inside it, so the self
times of every span under a root add up to the root's duration.

Spans sharing a name pool their self times; that is how ``forward`` and
``forward_batched`` both report as ``pipeline.head`` and how the healthy
and the faulty optical core both report as ``opc.convolve``/``opc.dot``.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Bytes per element of the float64 tensors the optical core computes on.
_FLOAT_BYTES = 8


class Tracer:
    """In-memory span accumulator: self time, calls and counters by name."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        #: Inclusive time per name (meaningful for names that never nest).
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: Duration of the most recently closed outermost span.
        self.last_root_s = 0.0

    def reset(self) -> None:
        """Forget every recorded span and counter (the stack must be empty)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        self.self_s.clear()
        self.total_s.clear()
        self.calls.clear()
        self.counters.clear()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span named ``name``."""
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - started
            children = self._stack.pop()
            self.self_s[name] += duration - children
            self.total_s[name] += duration
            self.calls[name] += 1
            if self._stack:
                self._stack[-1] += duration
            else:
                self.last_root_s = duration

    def total_self_s(self) -> float:
        """Sum of every span's self time."""
        return sum(self.self_s.values())


def _optics_counts(core, activations, out) -> tuple[float, float]:
    """(MACs, bytes moved) of one optical convolve or dot, from tensor
    sizes: each output element sums one weight row (F, C*K*K) or (O, D)."""
    weights = core.programmed.realized
    macs = out.size * (weights.size // weights.shape[0])
    moved = np.size(activations) + weights.size + out.size
    return float(macs), float(moved * _FLOAT_BYTES)


def _pipeline_frames(args, kwargs) -> int:
    """Frames in one ``forward``/``forward_batched`` call."""
    ternary = kwargs.get("ternary")
    source = ternary if ternary is not None else args[0]
    return int(np.shape(source)[0])


def _targets():
    """``(owner class, attribute, span name, counter hook)`` per traced call.

    Resolved at install time, so the list follows what the engine
    defines then (``forward_batched`` only while it exists).
    """
    from repro.analysis import capacity
    from repro.core.opc import OpticalProcessingCore
    from repro.core.pipeline import HardwareFirstLayerPipeline
    from repro.engine.cache import WeightProgramCache
    from repro.engine.controlplane import Autoscaler, ControlPlane
    from repro.engine.health import HealthMonitor
    from repro.engine.router import TenantRouter
    from repro.engine.scheduler import FrameScheduler
    from repro.engine.server import FrameServer
    from repro.nn.models import TernaryInputLayer
    from repro.sim.faults import FaultyOpticalCore

    def optics(tracer, args, kwargs, out):
        macs, moved = _optics_counts(args[0], args[1], out)
        tracer.counters["opc.macs"] += macs
        tracer.counters["opc.bytes_moved"] += moved

    def frames(tracer, args, kwargs, out):
        tracer.counters["pipeline.frames"] += _pipeline_frames(args[1:], kwargs)

    def offered(tracer, args, kwargs, out):
        tracer.counters["scheduler.frames"] += len(args[1])

    targets = [
        (FrameServer, "serve", "server.serve", None),
        (FrameServer, "warmup", "server.warmup", None),
        (FrameScheduler, "run", "scheduler.run", offered),
        (WeightProgramCache, "get_or_program", "cache.get_or_program", None),
        (WeightProgramCache, "key_for", "cache.key_for", None),
        (OpticalProcessingCore, "program", "opc.program", None),
        (OpticalProcessingCore, "convolve", "opc.convolve", optics),
        (OpticalProcessingCore, "dot", "opc.dot", optics),
        (FaultyOpticalCore, "convolve", "opc.convolve", optics),
        (FaultyOpticalCore, "dot", "opc.dot", optics),
        (HardwareFirstLayerPipeline, "forward", "pipeline.head", frames),
        (TernaryInputLayer, "forward", "nn.encode", None),
        (ControlPlane, "serve", "controlplane.serve", None),
        (ControlPlane, "serve_scenario", "controlplane.serve", None),
        (Autoscaler, "observe", "autoscaler.observe", None),
        (HealthMonitor, "advance", "health.advance", None),
        (HealthMonitor, "fault_core", "health.fault_core", None),
    ]
    # Batched-path forward, traced under the same span while it exists.
    if "forward_batched" in vars(HardwareFirstLayerPipeline):
        targets.append(
            (HardwareFirstLayerPipeline, "forward_batched", "pipeline.head", frames)
        )
    # Every concrete router's ``route`` (the base only raises).
    for router in TenantRouter.__subclasses__():
        if "route" in vars(router):
            targets.append((router, "route", "router.route", None))
    targets.append((capacity, "sustainable_fps_per_node", "capacity.search", None))
    return targets


def _wrap(tracer: Tracer, function, name: str, hook):
    @functools.wraps(function)
    def traced(*args, **kwargs):
        with tracer.span(name):
            out = function(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, out)
        return out

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every traced layer call through ``tracer`` while inside.

    Wrappers replace the class (or module) attributes themselves, so
    calls through instances created before or after installation are
    traced alike; the originals are restored on exit.
    """
    saved = []
    try:
        for owner, attribute, name, hook in _targets():
            original = vars(owner)[attribute]
            if isinstance(original, staticmethod):
                replacement = staticmethod(
                    _wrap(tracer, original.__func__, name, hook)
                )
            else:
                replacement = _wrap(tracer, original, name, hook)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, replacement)
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
