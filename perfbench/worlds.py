"""The benchmark's worlds: one phased builder and the four workloads.

The builder mirrors :func:`repro.state.worlds.build_sized_world` step by
step (the self-test proves the ``capping`` world is identical to it),
but hands control back between phases so ``setup_s`` can be timed and
drift-normalized phase by phase instead of across one long bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

#: Simulated seconds per leaf control cycle (the paper's 3 s pull period).
CYCLE_S = 3.0
#: Simulated seconds per upper control cycle.
UPPER_S = 9.0
#: Servers in every workload's fleet (2:1 web:cache).
SERVERS = 20000
#: Untimed cycles before the timed window.  Capping starts in the fourth
#: cycle, so the window never mixes ~30 ms pre-capping cycles with
#: capped ones.
WARMUP_CYCLES = 6


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a fleet shape plus what is armed on it."""

    name: str
    #: What a correct run of this workload must show (see checks.py).
    expect: str
    #: Percentile reported as ``cycle_ms_tail``: the highest round one
    #: that keeps at least ten samples above it at the fewest timed
    #: cycles seen in a 12 s window.  It is fixed, not derived from each
    #: run's count: ``steady`` has a heavy cycle about every 21st, so a
    #: percentile that follows the count jumps between the two modes.
    tail_pct: int
    #: (msb_count, sbs_per_msb, rpps_per_sb, racks_per_rpp); the default
    #: is ``build_sized_world``'s topology for 20k servers.
    shape: tuple[int, int, int, int] = (1, 2, 16, 3)
    estimation: bool = False
    #: Fraction of the servers under every other leaf partitioned away.
    blackout: float = 0.0
    shards: int = 1


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("capping", "capping", 60),
        Workload("steady", "steady", 90, shape=(2, 4, 8, 5)),
        Workload(
            "sensor-blackout",
            "degraded",
            60,
            shape=(2, 4, 8, 5),
            estimation=True,
            blackout=0.4,
        ),
        Workload("sharded-capping", "capping", 70, shards=2),
    )
}


def build(
    workload: Workload, seed: int, phase: Callable[[str], None]
) -> tuple[Any, Any]:
    """Build ``workload``'s world; returns ``(world, runner)``.

    ``phase(name)`` is called after each build phase.  ``runner`` is what
    advances time: the world itself, or its ``ShardedWorld`` wrapper
    (the caller must close it).
    """
    from repro.config import ControllerConfig, DynamoConfig, EstimationConfig
    from repro.core.dynamo import Dynamo
    from repro.fleet import FleetDriver, ServiceAllocation, populate_fleet
    from repro.power.builder import DataCenterSpec, build_datacenter
    from repro.power.oversubscription import plan_quotas
    from repro.simulation.engine import SimulationEngine
    from repro.simulation.rng import RngStreams
    from repro.state.worlds import World

    msb, sbs, rpps, racks = workload.shape
    engine = SimulationEngine()
    topology = build_datacenter(
        DataCenterSpec(
            msb_count=msb,
            sbs_per_msb=sbs,
            rpps_per_sb=rpps,
            racks_per_rpp=racks,
        )
    )
    plan_quotas(topology)
    phase("topology")
    rng = RngStreams(seed)
    web = (SERVERS * 2) // 3
    fleet = populate_fleet(
        topology,
        [
            ServiceAllocation("web", web),
            ServiceAllocation("cache", SERVERS - web),
        ],
        rng,
    )
    phase("populate_fleet")
    config = None
    if workload.estimation:
        config = DynamoConfig(
            controller=ControllerConfig(
                estimation=EstimationConfig(enabled=True)
            )
        )
    dynamo = Dynamo(
        engine, topology, fleet, config=config, rng_streams=rng.fork("dynamo")
    )
    phase("dynamo")
    driver = FleetDriver(engine, topology, fleet, physics_backend="vectorized")
    dynamo.enable_vectorized_control(driver)
    phase("driver")
    driver.start()
    dynamo.start()
    world = World(
        recipe={"builder": "perfbench", "kwargs": {}},
        engine=engine,
        topology=topology,
        fleet=fleet,
        dynamo=dynamo,
        driver=driver,
        rng=rng,
    )
    runner: Any = world
    if workload.shards > 1:
        from repro.sharding import ShardedWorld

        runner = ShardedWorld(world, workload.shards)
    phase("start")
    return world, runner


def blackout_victims(world: Any, fraction: float, seed: int) -> list[str]:
    """``fraction`` of the servers under every other leaf, seed-chosen.

    Draws from a generator of the benchmark's own, never from the
    world's streams, so arming the fault leaves the simulation's RNG
    untouched.
    """
    chooser = np.random.default_rng([seed, 40])
    victims: list[str] = []
    leaves = world.dynamo.hierarchy.leaf_controllers
    for index, name in enumerate(sorted(leaves)):
        if index % 2:
            continue
        ids = sorted(leaves[name].server_ids)
        count = int(len(ids) * fraction)
        picked = chooser.choice(len(ids), size=count, replace=False)
        victims.extend(ids[i] for i in sorted(picked))
    return victims


def arm_blackout(world: Any, victims: list[str], start_s: float) -> None:
    """Partition ``victims``' agents through the chaos fault catalogue."""
    from repro.chaos.faults import FaultSpec, RpcPartitionFault

    spec = FaultSpec(
        kind="rpc-partition", start_s=start_s, targets=tuple(victims)
    )
    ctx = SimpleNamespace(
        injector=world.dynamo.transport.injector, fleet=world.fleet
    )
    RpcPartitionFault(spec).inject(ctx)
