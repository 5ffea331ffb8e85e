"""Dry-run mode and end-to-end capping test support (Section VI).

Two lessons from the paper's production experience:

* **Service-aware system design simplifies capping testing.**  Facebook
  pre-selects non-critical services for end-to-end tests of the
  service-agnostic logic, and uses a *dry-run mode with detailed
  logging* for service-specific logic — inspecting control decisions
  step by step without actually throttling critical services.
* Periodic end-to-end testing matters because capping is an emergency
  path: it must be exercised before the emergency.

:class:`DryRunRecorder` captures every capping decision a controller
*would* have made; :class:`CappingTestHarness` runs a scripted
end-to-end capping exercise against a designated test service and
verifies the full pipeline (pull -> decide -> plan -> cap -> settle ->
uncap) works.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.capping_plan import CappingPlan
from repro.core.leaf_controller import LeafPowerController
from repro.errors import ControllerError
from repro.simulation.engine import SimulationEngine


@dataclass(frozen=True)
class DryRunEntry:
    """One logged would-be control action."""

    time_s: float
    controller: str
    action: str
    total_cut_w: float
    affected_servers: int
    detail: str = ""


@dataclass
class DryRunRecorder:
    """Collects would-be actions for step-by-step inspection."""

    entries: list[DryRunEntry] = field(default_factory=list)

    def record(self, entry: DryRunEntry) -> None:
        """Append one entry."""
        self.entries.append(entry)

    def actions(self) -> list[str]:
        """The sequence of recorded action names."""
        return [e.action for e in self.entries]

    def would_have_capped(self) -> bool:
        """Whether any capping action was recorded."""
        return any(e.action == "cap" for e in self.entries)

    def total_would_be_cut_w(self) -> float:
        """Sum of all would-be power cuts."""
        return sum(e.total_cut_w for e in self.entries if e.action == "cap")


class DryRunLeafController(LeafPowerController):
    """A leaf controller that logs capping decisions instead of acting.

    The shared sense → aggregate → decide pipeline stages
    (:class:`~repro.core.controller.BaseController`) all run for real —
    only the actuate-stage fan-out hooks (``_apply_plan`` /
    ``_uncap_all``) are overridden to record instead of send, so ticks
    still emit TickTraces and the three-band decision is exercised
    end to end.  This is the paper's dry-run mode for validating
    service-specific control logic in production.
    """

    def __init__(self, *args, recorder: DryRunRecorder | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.recorder = recorder or DryRunRecorder()

    def _apply_plan(self, plan: CappingPlan, now_s: float) -> None:
        self.recorder.record(
            DryRunEntry(
                time_s=now_s,
                controller=self.name,
                action="cap",
                total_cut_w=plan.allocated_w,
                affected_servers=int(np.count_nonzero(plan.affected_mask)),
                detail=(
                    f"target cut {plan.total_cut_w:.0f} W, "
                    f"unallocated {plan.unallocated_w:.0f} W"
                ),
            )
        )

    def _uncap_all(self, now_s: float) -> None:
        self.recorder.record(
            DryRunEntry(
                time_s=now_s,
                controller=self.name,
                action="uncap",
                total_cut_w=0.0,
                affected_servers=len(self._capped_servers),
            )
        )
        self._capped_servers = {}


@dataclass
class HarnessReport:
    """Outcome of one end-to-end capping exercise."""

    capped: bool
    settled_below_target: bool
    uncapped: bool
    cap_latency_s: float | None
    residual_caps: int

    @property
    def passed(self) -> bool:
        """Whether the full pipeline behaved."""
        return (
            self.capped
            and self.settled_below_target
            and self.uncapped
            and self.residual_caps == 0
        )


class CappingTestHarness:
    """Scripted end-to-end capping exercise against a test service.

    Imposes a temporary contractual limit on a leaf controller (below
    current draw), verifies capping engages and power settles under the
    target, lifts the limit, and verifies uncapping.  Run it against a
    row of pre-selected non-critical servers, as the paper prescribes.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        controller: LeafPowerController,
        *,
        squeeze_fraction: float = 0.90,
        settle_window_s: float = 60.0,
        recovery_window_s: float = 120.0,
    ) -> None:
        if not 0.0 < squeeze_fraction < 1.0:
            raise ControllerError("squeeze fraction must be in (0, 1)")
        self._engine = engine
        self._controller = controller
        self._squeeze = squeeze_fraction
        self._settle_s = settle_window_s
        self._recover_s = recovery_window_s

    def run(self) -> HarnessReport:
        """Execute the exercise; the engine must be driving controllers."""
        controller = self._controller
        baseline = controller.last_aggregate_power_w
        if baseline is None:
            raise ControllerError(
                "controller has no aggregation yet; run the engine first"
            )
        limit = baseline * self._squeeze
        start_caps = controller.cap_events
        start_uncaps = controller.uncap_events
        t0 = self._engine.clock.now
        controller.set_contractual_limit_w(limit)
        self._engine.run_until(t0 + self._settle_s)

        capped = controller.cap_events > start_caps
        cap_latency = None
        if capped:
            for t, count in zip(
                controller.capped_count_series.times,
                controller.capped_count_series.values,
            ):
                if t >= t0 and count > 0:
                    cap_latency = t - t0
                    break
        aggregate = controller.last_aggregate_power_w or baseline
        settled = aggregate <= limit

        controller.clear_contractual_limit()
        self._engine.run_until(
            self._engine.clock.now + self._recover_s
        )
        uncapped = controller.uncap_events > start_uncaps
        return HarnessReport(
            capped=capped,
            settled_below_target=settled,
            uncapped=uncapped,
            cap_latency_s=cap_latency,
            residual_caps=len(controller.capped_server_ids),
        )
