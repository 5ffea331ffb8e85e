"""Differential tests: the array allocator against the record-based oracle.

The array kernel (:func:`repro.core.bucket.allocate_cuts`) and planner
(:func:`repro.core.capping_plan.plan_cuts`) must reproduce the
loop-at-a-time reference in ``tests/allocation_oracle.py`` exactly —
every cut, cap, affected-server order, ``allocated_w`` and
``unallocated_w`` compared with ``==``, not approximately.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import CHAOS_SCENARIOS
from repro.config import BucketConfig
from repro.core.bucket import (
    AllocationInput,
    allocate_cuts,
    allocate_high_bucket_first,
)
from repro.core.capping_plan import CappingPlan, build_capping_plan
from repro.core.leaf_controller import BatchedSense, LeafPowerController
from repro.core.messages import PowerReading
from repro.core.priority import PriorityPolicy
from repro.power.device import DeviceLevel, PowerDevice
from repro.workloads.registry import ServiceSpec
from tests import allocation_oracle as oracle

WIDTHS = st.sampled_from([20.0, 1.0, 7.5, 25.0, 33.3, 1e6]) | st.floats(
    min_value=0.5, max_value=120.0
)


@st.composite
def power_and_width(draw, max_size=30):
    """(powers, floors, width): powers often sit exactly on bucket edges."""
    width = draw(WIDTHS)
    n = draw(st.integers(min_value=0, max_value=max_size))
    powers = []
    for _ in range(n):
        if draw(st.booleans()):
            powers.append(draw(st.integers(0, 25)) * width)
        else:
            powers.append(draw(st.floats(min_value=0.0, max_value=500.0)))
    # Floors anywhere in range, so some sit above the current power.
    floors = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=n, max_size=n
        )
    )
    return powers, floors, width


@st.composite
def cut_for(draw, powers):
    """Zero, tiny, ordinary, or more than every server can give."""
    total = sum(powers)
    return draw(
        st.sampled_from([0.0, 1e-12, total, 2.0 * total + 1.0])
        | st.floats(min_value=0.0, max_value=max(total, 1.0))
    )


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_kernel_matches_oracle(data):
    powers, floors, width = data.draw(power_and_width())
    cut = data.draw(cut_for(powers))
    cuts, unallocated = allocate_cuts(
        np.array(powers, dtype=float), np.array(floors, dtype=float), cut, width
    )
    rows = [(f"s{i}", p, f) for i, (p, f) in enumerate(zip(powers, floors))]
    expected, expected_unallocated = oracle.allocate(rows, cut, width)
    assert cuts.tolist() == list(expected.values())
    assert unallocated == expected_unallocated

    result = allocate_high_bucket_first(
        [AllocationInput(*row) for row in rows], cut, bucket_width_w=width
    )
    assert result.cuts_w == expected
    assert result.unallocated_w == expected_unallocated


SERVICES = ("hadoop", "f4storage", "web", "newsfeed", "database", "cache")
#: Services the default policy does not know (priority 1, 150 W floor
#: unless registered), plus the leaf's placeholder for unknown servers.
STRANGERS = ("mystery", "unknown")


@st.composite
def plan_case(draw):
    """(readings, cut, policy, width) with a stale and an estimated tail."""
    powers, _, width = draw(power_and_width(max_size=40))
    policy = PriorityPolicy()
    for name in draw(st.lists(st.sampled_from(SERVICES + ("mystery",)), max_size=3)):
        policy.register(
            ServiceSpec(
                name,
                draw(st.integers(0, 4)),
                sla_min_cap_w=draw(st.floats(min_value=0.0, max_value=400.0)),
            )
        )
    n_stale = draw(st.integers(0, len(powers)))
    n_estimated = draw(st.integers(0, len(powers) - n_stale))
    first_tail = len(powers) - n_stale - n_estimated
    readings = []
    for i, power in enumerate(powers):
        stale = first_tail <= i < first_tail + n_stale
        estimated = i >= first_tail + n_stale
        readings.append(
            PowerReading(
                server_id=f"s{i}",
                power_w=power,
                estimated=estimated,
                service=draw(st.sampled_from(SERVICES + STRANGERS)),
                time_s=0.0,
                stale=stale,
            )
        )
    return readings, draw(cut_for(powers)), policy, width


def assert_plan_matches_oracle(plan: CappingPlan, readings, cut, policy, width):
    rows, unallocated = oracle.plan(readings, cut, policy, width)
    assert [
        (c.server_id, c.service, c.priority_group, c.current_power_w, c.cut_w)
        for c in plan.cuts
    ] == rows
    assert [c.server_id for c in plan.affected_servers] == [
        row[0] for row in rows if row[4] > 1e-9
    ]
    assert [c.cap_w for c in plan.affected_servers] == [
        row[3] - row[4] for row in rows if row[4] > 1e-9
    ]
    assert plan.cap_w[plan.affected_mask].tolist() == [
        c.cap_w for c in plan.affected_servers
    ]
    assert plan.allocated_w == oracle.seq_sum(row[4] for row in rows)
    assert plan.unallocated_w == unallocated
    assert plan.total_cut_w == cut


@given(case=plan_case())
@settings(max_examples=300, deadline=None)
def test_planner_matches_oracle(case):
    readings, cut, policy, width = case
    plan = build_capping_plan(
        readings, cut, policy, bucket=BucketConfig(bucket_width_w=width)
    )
    assert_plan_matches_oracle(plan, readings, cut, policy, width)


def test_several_groups_roll_over_to_final_floor_pass():
    """A cut beyond every bucket's headroom drains all groups to floors."""
    policy = PriorityPolicy()
    readings = [
        PowerReading(f"s{i}", power, False, service, 0.0)
        for i, (power, service) in enumerate(
            [
                (300.0, "hadoop"),
                (240.0, "web"),
                (260.0, "mystery"),
                (100.0, "web"),  # below the web floor: never cut
                (400.0, "cache"),
                (280.0, "hadoop"),
            ]
        )
    ]
    plan = build_capping_plan(readings, 10_000.0, policy)
    assert_plan_matches_oracle(plan, readings, 10_000.0, policy, 20.0)
    assert plan.unallocated_w > 0.0
    assert [c.priority_group for c in plan.cuts] == sorted(
        c.priority_group for c in plan.cuts
    )


@st.composite
def batched_case(draw):
    """A leaf's sensed arrays: successes plus a stale and an estimated tail."""
    powers, _, width = draw(power_and_width(max_size=30))
    n = len(powers)
    services = [draw(st.sampled_from(SERVICES + ("mystery",))) for _ in range(n)]
    kinds = [draw(st.sampled_from("mse")) for _ in range(n)]
    policy = PriorityPolicy()
    if draw(st.booleans()):
        policy.register(ServiceSpec("unknown", 0, sla_min_cap_w=130.0))
    controller = LeafPowerController(
        PowerDevice("rpp0", DeviceLevel.RPP, 1e6),
        [f"s{p}" for p in range(n)],
        transport=None,
        policy=policy,
        bucket=BucketConfig(bucket_width_w=width),
    )
    controller.attach_control_batch(
        SimpleNamespace(
            services=services,
            row_for_server_id={f"s{p}": p for p in range(n)},
        )
    )
    stale = [
        PowerReading(f"s{p}", powers[p], False, services[p], 0.0, stale=True)
        for p in draw(st.permutations([p for p in range(n) if kinds[p] == "s"]))
    ]
    estimated = [
        PowerReading(
            f"s{p}",
            powers[p],
            True,
            draw(st.sampled_from((services[p], "unknown"))),
            3.0,
        )
        for p in draw(st.permutations([p for p in range(n) if kinds[p] == "e"]))
    ]
    success = np.array([kind == "m" for kind in kinds], dtype=bool)
    values = np.where(success, np.array(powers, dtype=float), 0.0)
    sensed = BatchedSense(
        controller, 3.0, values, success, {}, stale, estimated
    )
    return sensed, draw(cut_for(powers)), policy, width


@given(case=batched_case())
@settings(max_examples=200, deadline=None)
def test_batched_sense_plan_matches_oracle(case):
    """Plans straight from the sense arrays equal the reading-list oracle."""
    sensed, cut, policy, width = case
    plan = sensed.capping_plan(cut)
    assert_plan_matches_oracle(plan, sensed.readings(), cut, policy, width)


@pytest.mark.parametrize("scenario", ["sb-outage", "sensor-blackout-50"])
def test_batched_leaf_plans_match_oracle(scenario, monkeypatch):
    """Every plan a running batched leaf makes equals the oracle's."""
    captured = []
    original = BatchedSense.capping_plan

    def recording(sensed, total_cut_w):
        plan = original(sensed, total_cut_w)
        captured.append((sensed.readings(), total_cut_w, plan))
        return plan

    monkeypatch.setattr(BatchedSense, "capping_plan", recording)
    run = CHAOS_SCENARIOS[scenario](
        seed=7, physics_backend="vectorized", control_backend="vectorized"
    )
    run.run()
    assert captured
    if scenario == "sensor-blackout-50":
        assert any(any(r.estimated for r in rs) for rs, _, _ in captured)
    for readings, cut, plan in captured:
        assert plan.affected_mask.any()
        assert_plan_matches_oracle(
            plan, readings, cut, run.dynamo.policy, 20.0
        )


@pytest.mark.parametrize("control_backend", ["scalar", "vectorized"])
def test_policy_registered_mid_run_shapes_next_plan(
    control_backend, monkeypatch
):
    """A floor registered between plans binds on the very next plan.

    In ``sb-outage`` the leaves cap at t=345 s, cutting their ~261 W web
    servers to ~238 W under the default 150 W floor, and again at
    t=660 s.  A 250 W web floor registered in between must hold every
    later cap at or above it, leaving the cut unallocated instead.
    """
    plans: list[CappingPlan] = []
    original = LeafPowerController._apply_plan

    def recording(self, plan, now_s):
        plans.append(plan)
        return original(self, plan, now_s)

    monkeypatch.setattr(LeafPowerController, "_apply_plan", recording)
    run = CHAOS_SCENARIOS["sb-outage"](
        seed=7, physics_backend="vectorized", control_backend=control_backend
    )
    run.start()
    run.engine.run_until(346.0)
    assert plans
    assert min(cut.cap_w for plan in plans for cut in plan.affected_servers) < 250.0

    web = run.dynamo.policy.spec("web")
    run.dynamo.policy.register(
        ServiceSpec("web", web.priority_group, sla_min_cap_w=250.0)
    )
    plans.clear()
    run.engine.run_until(661.0)
    assert plans
    for plan in plans:
        assert plan.unallocated_w > 0.0
        for cut in plan.cuts:
            assert cut.service == "web"
            assert cut.cap_w >= min(250.0, cut.current_power_w) - 1e-9
