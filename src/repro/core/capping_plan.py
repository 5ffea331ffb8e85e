"""Capping plans: from a total power cut to per-server cap values.

Combines the priority-group policy (Section III-C3) with the
high-bucket-first allocator: the total-power-cut is offered to the lowest
priority group first; whatever that group cannot absorb (because its
servers hit their SLA floors) rolls up to the next group.  Each server's
cap is then its current power less its allocated cut — the paper's
"currently consuming 250 W, power-cut 30 W, cap at 220 W" arithmetic.

:func:`plan_cuts` works on arrays: a stable sort by priority group, then
one :func:`~repro.core.bucket.allocate_cuts` call per group.  Leaf
controllers feed it straight from their sense arrays;
:func:`build_capping_plan` is the adapter for a ``PowerReading`` list.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.config import BucketConfig
from repro.core.bucket import allocate_cuts
# Re-exported: the planner's allocator stays reachable under this module,
# where profiling wrappers (perfbench/tracing.py) look it up.
from repro.core.bucket import (
    allocate_high_bucket_first as allocate_high_bucket_first,
)
from repro.core.messages import PowerReading
from repro.core.priority import PriorityPolicy


@dataclass(frozen=True)
class ServerCut:
    """One server's share of a capping plan."""

    server_id: str
    service: str
    priority_group: int
    current_power_w: float
    cut_w: float

    @property
    def cap_w(self) -> float:
        """The power cap to send: current power less the cut."""
        return self.current_power_w - self.cut_w


@dataclass(eq=False)
class CappingPlan:
    """A complete capping decision for one device.

    Every array is in plan order: priority group ascending, input order
    within a group (input order throughout when there is no cut).
    ``cuts`` and ``affected_servers`` are per-server record views, built
    once on first use.
    """

    total_cut_w: float
    server_ids: np.ndarray
    services: np.ndarray
    priority_groups: np.ndarray
    power_w: np.ndarray
    cut_w: np.ndarray
    unallocated_w: float = 0.0

    @cached_property
    def affected_mask(self) -> np.ndarray:
        """Servers whose cut actually binds (cut > 1e-9)."""
        return self.cut_w > 1e-9

    @cached_property
    def cap_w(self) -> np.ndarray:
        """Per-server caps: current power less the cut."""
        return self.power_w - self.cut_w

    @cached_property
    def allocated_w(self) -> float:
        """Total power successfully allocated to cuts."""
        if not self.cut_w.size:
            return 0.0
        return float(np.cumsum(self.cut_w)[-1])

    @cached_property
    def cuts(self) -> list[ServerCut]:
        """Every server's share, as records."""
        return self._records(slice(None))

    @cached_property
    def affected_servers(self) -> list[ServerCut]:
        """Cuts that actually bind (cut > 0)."""
        return self._records(self.affected_mask)

    def _records(self, rows: slice | np.ndarray) -> list[ServerCut]:
        return [
            ServerCut(*fields)
            for fields in zip(
                self.server_ids[rows].tolist(),
                self.services[rows].tolist(),
                self.priority_groups[rows].tolist(),
                self.power_w[rows].tolist(),
                self.cut_w[rows].tolist(),
            )
        ]


def policy_arrays(
    policy: PriorityPolicy, services: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """(priority group, SLA floor) per service, one lookup per distinct one.

    Looked up afresh on every call, so a ``PriorityPolicy.register``
    between cycles takes effect on the next plan.
    """
    specs = {
        service: (policy.priority_group(service), policy.sla_min_cap_w(service))
        for service in dict.fromkeys(services)
    }
    groups = np.array([specs[s][0] for s in services], dtype=np.int64)
    floors = np.array([specs[s][1] for s in services], dtype=float)
    return groups, floors


def plan_cuts(
    server_ids: np.ndarray,
    services: np.ndarray,
    power_w: np.ndarray,
    priority_groups: np.ndarray,
    min_cap_w: np.ndarray,
    total_cut_w: float,
    *,
    bucket_width_w: float,
) -> CappingPlan:
    """Allocate ``total_cut_w`` across servers, lowest priority group first.

    All arrays are per server in input order.  Each group (taken in
    ascending order, input order kept within it) gets one
    high-bucket-first allocation of whatever cut the groups before it
    could not absorb.  ``unallocated_w`` is nonzero only when every
    server in every group is already at its SLA floor.
    """
    if total_cut_w <= 0.0:
        # Nothing to allocate: every server uncut, in input order.
        return CappingPlan(
            total_cut_w=total_cut_w,
            server_ids=server_ids,
            services=services,
            priority_groups=priority_groups,
            power_w=power_w,
            cut_w=np.zeros(power_w.size),
        )
    order = np.argsort(priority_groups, kind="stable")
    groups = priority_groups[order]
    power = power_w[order]
    floors = min_cap_w[order]
    cut = np.zeros(order.size)
    remaining = total_cut_w
    if order.size:
        edges = [0, *(np.flatnonzero(np.diff(groups)) + 1).tolist(), order.size]
        for start, end in zip(edges[:-1], edges[1:]):
            cut[start:end], remaining = allocate_cuts(
                power[start:end], floors[start:end], remaining, bucket_width_w
            )
            if remaining <= 1e-9:
                # Higher groups stay uncut.
                remaining = 0.0
                break
    return CappingPlan(
        total_cut_w=total_cut_w,
        server_ids=server_ids[order],
        services=services[order],
        priority_groups=groups,
        power_w=power,
        cut_w=cut,
        unallocated_w=remaining,
    )


def build_capping_plan(
    readings: list[PowerReading],
    total_cut_w: float,
    policy: PriorityPolicy,
    *,
    bucket: BucketConfig | None = None,
) -> CappingPlan:
    """Allocate ``total_cut_w`` across servers, priority groups first.

    Args:
        readings: the latest power reading per server (one each).
        total_cut_w: the power reduction the three-band decision demands.
        policy: service priority groups and SLA floors.
        bucket: high-bucket-first configuration.

    Returns:
        A plan whose ``unallocated_w`` is nonzero only when every server
        in every group is already at its SLA floor.
    """
    bucket = bucket or BucketConfig()
    services = [r.service for r in readings]
    groups, floors = policy_arrays(policy, services)
    return plan_cuts(
        np.array([r.server_id for r in readings], dtype=object),
        np.array(services, dtype=object),
        np.array([r.power_w for r in readings], dtype=float),
        groups,
        floors,
        total_cut_w,
        bucket_width_w=bucket.bucket_width_w,
    )
