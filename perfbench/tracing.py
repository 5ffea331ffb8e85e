"""In-memory spans around calls into each layer's public functions.

Nothing inside ``repro`` is edited: the tracer swaps wrappers onto the
listed functions for the traced window and puts the originals back
afterwards.  The wrappers only read the clock, so they draw no RNG and
the traced world's digest equals the untraced one (the self-test checks
this).  Spans live in flat arrays, not per-span containers, so the
tracer adds nothing for the garbage collector to scan.

Every ``*_ms`` layer metric is *self* time: a span's duration minus the
traced spans nested inside it, so the layers add up to the cycle.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array
from typing import Any, Callable

#: (span name, module path, owner attribute or None, function name).
#: Module-level functions are patched where their callers look them up.
TRACED = (
    ("server.step", "repro.server.vectorized", "VectorizedFleetStepper", "step"),
    ("core.sense", "repro.core.leaf_controller", "LeafPowerController", "sense"),
    ("core.readings", "repro.core.leaf_controller", "BatchedSense", "readings"),
    ("core.aggregate", "repro.core.leaf_controller", "LeafPowerController", "aggregate"),
    ("core.decide", "repro.core.controller", "BaseController", "decide"),
    ("core.actuate", "repro.core.leaf_controller", "LeafPowerController", "actuate"),
    ("core.plan", "repro.core.leaf_controller", None, "build_capping_plan"),
    ("core.allocate", "repro.core.capping_plan", None, "allocate_high_bucket_first"),
    ("core.upper", "repro.core.upper_controller", "UpperLevelPowerController", "tick"),
    # Controllers reach the raw fabric's group calls through the
    # resilience layer; both are traced under one name, so rpc.* self
    # time is the sum over the two.
    ("rpc.read", "repro.rpc.resilient", "ResilientTransport", "group_read_power"),
    ("rpc.read", "repro.rpc.transport", "RpcTransport", "group_read_power"),
    ("rpc.cap", "repro.rpc.resilient", "ResilientTransport", "group_set_cap"),
    ("rpc.cap", "repro.rpc.transport", "RpcTransport", "group_set_cap"),
    ("rpc.resilient", "repro.rpc.resilient", "ResilientTransport", "call"),
    ("estimation", "repro.estimation.disaggregator", "PowerDisaggregator", "observe_cycle"),
    ("estimation", "repro.estimation.disaggregator", "PowerDisaggregator", "disaggregate"),
    ("estimation", "repro.estimation.disaggregator", "PowerDisaggregator", "predict_w"),
) + tuple(
    ("core.health", "repro.core.health", "HealthRegistry", method)
    for method in (
        "record_success",
        "record_failure",
        "backfill_successes",
        "record_retry",
        "record_fast_fail",
        "record_breaker_open",
        "release",
        "is_quarantined",
        "quarantined_endpoints",
    )
)

#: The root span of one timed cycle.
CYCLE = "cycle"


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        #: (owner, attribute, original, whether the owner defined it).
        self._patches: list[tuple[Any, str, Any, bool]] = []
        #: PowerReading objects materialized by ``BatchedSense.readings``.
        self.readings_built = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_t0 = 0.0

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        """End span ``index`` (the innermost open one)."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        totals: dict[str, float] = {}
        for i, name_id in enumerate(self.name_id):
            name = self.names[name_id]
            own = self.end[i] - self.start[i] - child[i]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Any) -> None:
        """Write every span as ``name,start_s,end_s,parent`` lines."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start_s,end_s,parent\n")
            for i, name_id in enumerate(self.name_id):
                out.write(
                    f"{self.names[name_id]},{self.start[i]:.9f},"
                    f"{self.end[i]:.9f},{self.parent[i]}\n"
                )

    # -- patching ------------------------------------------------------

    def _wrap(self, name: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    def _wrap_readings(self, original: Callable) -> Callable:
        traced = self._wrap("core.readings", original)
        tracer = self

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            readings = traced(*args, **kwargs)
            tracer.readings_built += len(readings)
            return readings

        return counted

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            self.gc_collections += 1

    def install(self) -> None:
        """Patch every traced function and hook the garbage collector."""
        import importlib

        for name, module_path, owner_name, attr in TRACED:
            module = importlib.import_module(module_path)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            if name == "core.readings":
                wrapper = self._wrap_readings(original)
            else:
                wrapper = self._wrap(name, original)
            own = attr in vars(owner)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original, own))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore the originals, newest patch first."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                # An inherited method was shadowed: drop the shadow.
                delattr(owner, attr)
