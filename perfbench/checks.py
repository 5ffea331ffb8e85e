"""Correctness gate for every timed cycle, and the run digest.

A timed cycle passes when, over the leaf traces it produced:

* no breaker tripped during it;
* every leaf cycle was valid and no leaf was in SAFE;
* no leaf under-capped: a valid aggregate above its capping threshold
  must come with a CAP in the same cycle, and may not persist into the
  next cycle (3 s later, past the 2 s RAPL settle window) after a CAP
  whose whole requested cut was allocated.  A cut the allocator could
  not place because every server sat at its SLA floor is the policy's
  documented limit (it raises its own alert), not an under-cap.
"""

from __future__ import annotations

from typing import Any, Iterable

#: Allocation shortfall (W) below which a requested cut counts as placed.
ALLOCATED_TOLERANCE_W = 1.0


class CycleGate:
    """Checks timed cycles one by one from their leaf trace dicts."""

    def __init__(self) -> None:
        #: Leaf name -> whether its last valid cycle placed its whole cut.
        self._placed_cut: dict[str, bool] = {}
        self.failures: list[str] = []

    def check(
        self, cycle: int, traces: Iterable[dict], new_trips: int
    ) -> bool:
        """Gate one cycle; records and returns whether it passed."""
        problems = []
        if new_trips:
            problems.append(f"{new_trips} breaker trip(s)")
        for trace in traces:
            if trace["kind"] != "leaf":
                continue
            name = trace["controller"]
            if not trace["valid"]:
                problems.append(f"{name} invalid")
                continue
            if trace["mode"] == "safe":
                problems.append(f"{name} in SAFE")
            over = trace["aggregate_w"] > trace["cap_at_w"]
            if over and trace["action"] != "cap":
                problems.append(f"{name} above cap threshold without CAP")
            if over and self._placed_cut.get(name, False):
                problems.append(f"{name} still above cap threshold after "
                                "a fully placed cut settled")
            self._placed_cut[name] = trace["action"] == "cap" and (
                trace["cut_allocated_w"]
                >= trace["cut_requested_w"] - ALLOCATED_TOLERANCE_W
            )
        if problems:
            self.failures.append(f"cycle {cycle}: " + "; ".join(problems))
        return not problems


def controller_totals(controllers: Iterable[Any]) -> dict[str, int]:
    """Cap/uncap events and capped servers over live controllers."""
    totals = {"cap_events": 0, "uncap_events": 0, "capped_servers": 0}
    for controller in controllers:
        totals["cap_events"] += controller.cap_events
        totals["uncap_events"] += controller.uncap_events
        capped = getattr(controller, "capped_server_ids", None)
        if capped is not None:
            totals["capped_servers"] += len(capped)
    return totals


def state_totals(state: dict) -> dict[str, int]:
    """The same totals read from a captured snapshot's controller states.

    The benchmark's worlds wrap no controller in a failover pair, so
    every entry is a ``single`` one.
    """
    totals = {"cap_events": 0, "uncap_events": 0, "capped_servers": 0}
    for entry in state["controllers"].values():
        if entry["kind"] != "single":
            raise ValueError(f"unexpected controller entry {entry['kind']!r}")
        part = entry["state"]
        totals["cap_events"] += int(part["cap_events"])
        totals["uncap_events"] += int(part["uncap_events"])
        totals["capped_servers"] += len(part.get("capped_servers", ()))
    return totals


def render_digest(digest: dict) -> str:
    """One stable line: equal lines mean equal simulated outcomes."""
    return " ".join(f"{key}={digest[key]!r}" for key in sorted(digest))
