"""Record-based reference allocator: the oracle for the array kernel.

A dict-keyed, loop-at-a-time transcription of high-bucket-first
allocation and priority-group planning (Section III-C3), kept only so
tests can check :func:`repro.core.bucket.allocate_cuts` and
:func:`repro.core.capping_plan.plan_cuts` against it with exact float
equality.  Every running total is an explicit left-to-right loop: that
is the order the array kernel's ``cumsum`` / ``subtract.accumulate``
reproduce, and unlike ``sum()`` it does not change with the Python
version (3.12 made float ``sum()`` compensated).
"""

from __future__ import annotations

import math

from repro.core.messages import PowerReading
from repro.core.priority import PriorityPolicy


def seq_sum(values) -> float:
    """Left-to-right float sum, one addition at a time."""
    total = 0.0
    for value in values:
        total += value
    return total


def distribute_evenly(
    headrooms: dict[str, float], amount: float
) -> dict[str, float]:
    """Water-fill ``amount`` evenly across servers bounded by headrooms."""
    cuts = {server_id: 0.0 for server_id in headrooms}
    active = {s: h for s, h in headrooms.items() if h > 0.0}
    remaining = amount
    while remaining > 1e-9 and active:
        share = remaining / len(active)
        exhausted: list[str] = []
        for server_id, headroom in active.items():
            take = min(share, headroom)
            cuts[server_id] += take
            remaining -= take
            new_headroom = headroom - take
            if new_headroom <= 1e-12:
                exhausted.append(server_id)
            else:
                active[server_id] = new_headroom
        for server_id in exhausted:
            del active[server_id]
    return cuts


def allocate(
    servers: list[tuple[str, float, float]],
    total_cut_w: float,
    bucket_width_w: float = 20.0,
) -> tuple[dict[str, float], float]:
    """(cuts by server id, unallocated) for ``(id, power, floor)`` rows."""
    cuts: dict[str, float] = {server_id: 0.0 for server_id, _, _ in servers}
    if total_cut_w == 0.0 or not servers:
        return cuts, total_cut_w
    by_id = {row[0]: row for row in servers}
    buckets: dict[int, list[str]] = {}
    for server_id, power_w, _ in servers:
        buckets.setdefault(int(math.floor(power_w / bucket_width_w)), []).append(
            server_id
        )

    remaining = total_cut_w
    included: list[str] = []
    for bucket_index in sorted(buckets, reverse=True):
        included.extend(buckets[bucket_index])
        floor_w = bucket_index * bucket_width_w
        headrooms: dict[str, float] = {}
        for server_id in included:
            _, power_w, min_cap_w = by_id[server_id]
            lower_bound = max(floor_w, min_cap_w)
            current = power_w - cuts[server_id]
            headrooms[server_id] = max(0.0, current - lower_bound)
        capacity = seq_sum(headrooms.values())
        if capacity <= 0.0:
            continue
        stage_cuts = distribute_evenly(headrooms, min(remaining, capacity))
        for server_id, cut in stage_cuts.items():
            cuts[server_id] += cut
        remaining -= seq_sum(stage_cuts.values())
        if remaining <= 1e-9:
            remaining = 0.0
            break

    if remaining > 1e-9:
        headrooms = {
            server_id: max(0.0, power_w - cuts[server_id] - min_cap_w)
            for server_id, power_w, min_cap_w in servers
        }
        final_cuts = distribute_evenly(headrooms, remaining)
        for server_id, cut in final_cuts.items():
            cuts[server_id] += cut
        remaining -= seq_sum(final_cuts.values())
        remaining = max(0.0, remaining)
    return cuts, remaining


def plan(
    readings: list[PowerReading],
    total_cut_w: float,
    policy: PriorityPolicy,
    bucket_width_w: float = 20.0,
) -> tuple[list[tuple[str, str, int, float, float]], float]:
    """Plan rows ``(id, service, group, power, cut)`` and unallocated watts.

    Rows come in plan order: priority group ascending, reading order
    within a group.
    """
    if total_cut_w <= 0.0:
        return [
            (
                r.server_id,
                r.service,
                policy.priority_group(r.service),
                r.power_w,
                0.0,
            )
            for r in readings
        ], 0.0
    by_group: dict[int, list[PowerReading]] = {}
    for reading in readings:
        by_group.setdefault(policy.priority_group(reading.service), []).append(
            reading
        )
    rows: list[tuple[str, str, int, float, float]] = []
    remaining = total_cut_w
    for group in sorted(by_group):
        group_readings = by_group[group]
        cuts: dict[str, float] = {r.server_id: 0.0 for r in group_readings}
        if remaining > 0.0:
            cuts, remaining = allocate(
                [
                    (r.server_id, r.power_w, policy.sla_min_cap_w(r.service))
                    for r in group_readings
                ],
                remaining,
                bucket_width_w,
            )
        rows.extend(
            (r.server_id, r.service, group, r.power_w, cuts[r.server_id])
            for r in group_readings
        )
        if remaining <= 1e-9:
            remaining = 0.0
            for higher_group in sorted(by_group):
                if higher_group > group:
                    rows.extend(
                        (r.server_id, r.service, higher_group, r.power_w, 0.0)
                        for r in by_group[higher_group]
                    )
            break
    return rows, remaining
