"""High-bucket-first power-cut allocation (Section III-C3).

Analogous to tax brackets: servers are grouped into power buckets (20 W
wide by default) by their current consumption, and the total-power-cut is
drained from the highest bucket first — punishing the servers consuming
the most (likely regressions or runaway software).  If the highest bucket
cannot absorb the whole cut, the next bucket joins, and so on, until
either the cut is satisfied or every server has hit its SLA floor.
Within the included set, servers take an even share of the cut (clamped
per server by its own headroom — the classic water-filling refinement the
even-share rule implies).

Figure 16's snapshot is exactly this allocator's output: all web/feed
servers above the 210 W bucket boundary received cuts, with caps floored
at 210 W.

The allocator is one array kernel, :func:`allocate_cuts`, over
``power_w`` / ``min_cap_w`` float arrays.  Its float results are fixed
by the order of every sum: running totals accumulate strictly left to
right (``np.cumsum`` / ``np.subtract.accumulate``, never the pairwise
``np.sum``) over servers in stage order — bucket descending, input order
within a bucket — so the result is a deterministic function of the
input order, identical to a plain sequential loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AllocationInput:
    """One server's state as seen by the allocator."""

    server_id: str
    power_w: float
    min_cap_w: float


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation run."""

    cuts_w: dict[str, float]
    unallocated_w: float

    @property
    def total_cut_w(self) -> float:
        """Sum of the allocated per-server cuts."""
        return sum(self.cuts_w.values())


def _running_total(values: np.ndarray) -> float:
    """Left-to-right sum (0.0 when empty), as a sequential loop adds."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _water_fill(headroom: np.ndarray, amount: float) -> np.ndarray:
    """Water-fill ``amount`` evenly across servers bounded by ``headroom``.

    Each round splits what is left equally over the servers that still
    have headroom; servers whose headroom the round exhausts drop out.
    The running remainder is a left-to-right ``subtract.accumulate`` over
    the round's takes, so every round sees the same remainder a
    sequential loop would.
    """
    cuts = np.zeros(headroom.size)
    active = np.flatnonzero(headroom > 0.0)
    left = headroom[active]
    remaining = amount
    while remaining > 1e-9 and active.size:
        take = np.minimum(remaining / active.size, left)
        cuts[active] += take
        remaining = float(
            np.subtract.accumulate(np.concatenate(([remaining], take)))[-1]
        )
        left = left - take
        keep = left > 1e-12
        active = active[keep]
        left = left[keep]
    return cuts


def allocate_cuts(
    power_w: np.ndarray,
    min_cap_w: np.ndarray,
    total_cut_w: float,
    bucket_width_w: float,
) -> tuple[np.ndarray, float]:
    """Allocate ``total_cut_w`` across servers high-bucket-first.

    Servers are staged by a stable sort on bucket index, descending
    (input order kept within a bucket).  At each stage every included
    server may be cut down to the lower edge of the lowest included
    bucket (never below its own ``min_cap_w``); the stage's cut is
    water-filled across them.  A final pass, in input order, cuts
    everyone toward their SLA floors when the buckets could not absorb
    the whole cut.

    Returns the per-server cuts (input order) and the remainder SLA
    floors made impossible to allocate.  Inputs are not validated.
    """
    n = power_w.size
    if total_cut_w == 0.0 or n == 0:
        return np.zeros(n), total_cut_w
    bucket = np.floor(power_w / bucket_width_w).astype(np.int64)
    order = np.argsort(-bucket, kind="stable")
    sorted_bucket = bucket[order]
    power = power_w[order]
    floor = min_cap_w[order]
    cut = np.zeros(n)
    # End of each bucket's run in stage order: the included prefix.
    ends = np.append(np.flatnonzero(np.diff(sorted_bucket)) + 1, n)

    remaining = total_cut_w
    for end in ends.tolist():
        floor_w = int(sorted_bucket[end - 1]) * bucket_width_w
        lower = np.maximum(floor_w, floor[:end])
        headroom = np.maximum(0.0, (power[:end] - cut[:end]) - lower)
        capacity = _running_total(headroom)
        if capacity <= 0.0:
            continue
        stage = _water_fill(headroom, min(remaining, capacity))
        cut[:end] += stage
        remaining -= _running_total(stage)
        if remaining <= 1e-9:
            remaining = 0.0
            break

    cuts = np.empty(n)
    cuts[order] = cut
    # Whatever buckets could not satisfy, SLA floors may still allow: a
    # final pass cuts everyone toward their floor evenly.
    if remaining > 1e-9:
        final = _water_fill(
            np.maximum(0.0, (power_w - cuts) - min_cap_w), remaining
        )
        cuts += final
        remaining -= _running_total(final)
        remaining = max(0.0, remaining)
    return cuts, remaining


def allocate_high_bucket_first(
    servers: list[AllocationInput],
    total_cut_w: float,
    *,
    bucket_width_w: float = 20.0,
) -> AllocationResult:
    """Allocate ``total_cut_w`` across ``servers`` high-bucket-first.

    Record-based adapter over :func:`allocate_cuts` (the upper
    controllers' offender allocation and the allocation benches use it).
    Returns per-server cuts keyed by server id and any remainder that
    SLA floors made impossible to allocate.
    """
    if total_cut_w < 0:
        raise ConfigurationError("total cut cannot be negative")
    if bucket_width_w <= 0:
        raise ConfigurationError("bucket width must be positive")
    cuts, unallocated = allocate_cuts(
        np.array([s.power_w for s in servers], dtype=float),
        np.array([s.min_cap_w for s in servers], dtype=float),
        total_cut_w,
        bucket_width_w,
    )
    return AllocationResult(
        cuts_w=dict(zip((s.server_id for s in servers), cuts.tolist())),
        unallocated_w=unallocated,
    )
