"""Vectorized vs scalar control plane at production fleet sizes.

PR 5's ``bench_vector_fleet`` timed the physics inner loop; this bench
times the *whole tick* — physics stepping plus the sense → aggregate →
decide → actuate control cycle over the RPC fabric — on identically
seeded worlds built by :func:`repro.state.worlds.build_sized_world`.
Both runs use vectorized physics, so the scalar/vectorized delta
isolates the control plane: per-server RPC dispatch vs the batched
group broadcast (``control_backend="vectorized"``).

Reports per-cycle latency and control-plane speedup at 1k/10k servers
plus the 100k-server full-tick wall time to ``BENCH_control_plane.json``,
stamped with the CPU count the numbers were measured on.
The backends are also cross-checked: total fleet power after the timed
window must match exactly, because the batched control plane is
bit-identical by contract.

Set ``REPRO_BENCH_CONTROL_SCALE`` (a fraction, e.g. ``0.02``) to shrink
every fleet for CI smoke runs; the strict full-scale thresholds only
apply at scale 1.0.
"""

import os
import time

from repro.state.worlds import build_sized_world

#: Leaf controllers run on a 3 s cycle; one "full tick" is one such
#: cycle: three 1 s physics steps plus every controller's control pass.
_CYCLE_S = 3.0

_SCALE = float(os.environ.get("REPRO_BENCH_CONTROL_SCALE", "1.0"))
_FULL_SCALE = _SCALE >= 1.0
#: CPUs this process may run on, stamped into every report row.
_CPUS = len(os.sched_getaffinity(0))


def _sized(n: int) -> int:
    return max(100, int(n * _SCALE))


def _time_world(servers: int, control_backend: str, cycles: int) -> dict:
    """Wall-clock per full tick, split into physics and control+rest."""
    world = build_sized_world(
        servers=servers,
        seed=0,
        physics_backend="vectorized",
        control_backend=control_backend,
    )
    # Warm-up: two full cycles prime caches, burst state, and the
    # group-plan cache before the timer starts.
    world.run_until(2 * _CYCLE_S)
    physics0 = world.driver.physics_wall_s
    t0 = time.perf_counter()
    world.run_until((2 + cycles) * _CYCLE_S)
    wall_s = time.perf_counter() - t0
    physics_s = world.driver.physics_wall_s - physics0
    return {
        "servers": servers,
        "cycles": cycles,
        "full_tick_ms": 1e3 * wall_s / cycles,
        "physics_ms_per_tick": 1e3 * physics_s / cycles,
        "control_ms_per_tick": 1e3 * (wall_s - physics_s) / cycles,
        "total_power_w": world.fleet.total_power_w(),
        "fast_endpoint_calls": world.dynamo.transport.group_fast_endpoint_calls,
        "fallback_endpoint_calls": (
            world.dynamo.transport.group_fallback_endpoint_calls
        ),
    }


def _compare(servers: int, cycles: int) -> dict:
    scalar = _time_world(servers, "scalar", cycles)
    vector = _time_world(servers, "vectorized", cycles)
    assert vector["total_power_w"] == scalar["total_power_w"], (
        "control backends diverged: the batched control plane must be "
        "bit-identical to the scalar reference"
    )
    return {
        "servers": servers,
        "cycles": cycles,
        "scalar_control_ms_per_tick": scalar["control_ms_per_tick"],
        "vectorized_control_ms_per_tick": vector["control_ms_per_tick"],
        "scalar_full_tick_ms": scalar["full_tick_ms"],
        "vectorized_full_tick_ms": vector["full_tick_ms"],
        "control_speedup": (
            scalar["control_ms_per_tick"] / vector["control_ms_per_tick"]
        ),
        "total_power_w": scalar["total_power_w"],
    }


def test_control_plane_speedup_1k(once, bench_report):
    result = once(lambda: _compare(_sized(1_000), cycles=10))
    bench_report(
        "control_plane",
        {"control_1k": result},
        knobs={
            "seed": 0,
            "scale": _SCALE,
            "physics_backend": "vectorized",
            "cpus": _CPUS,
        },
    )
    print(
        f"\n{result['servers']} servers: control "
        f"{result['scalar_control_ms_per_tick']:.2f} ms/tick scalar, "
        f"{result['vectorized_control_ms_per_tick']:.2f} ms/tick "
        f"vectorized, speedup {result['control_speedup']:.1f}x"
    )
    floor = 5.0 if _FULL_SCALE else 1.0
    assert result["control_speedup"] >= floor, (
        f"batched control plane only {result['control_speedup']:.1f}x "
        f"faster at {result['servers']} servers (floor {floor}x)"
    )


def test_control_plane_speedup_10k(once, bench_report):
    result = once(lambda: _compare(_sized(10_000), cycles=5))
    bench_report(
        "control_plane",
        {"control_10k": result},
        knobs={
            "seed": 0,
            "scale": _SCALE,
            "physics_backend": "vectorized",
            "cpus": _CPUS,
        },
    )
    print(
        f"\n{result['servers']} servers: control "
        f"{result['scalar_control_ms_per_tick']:.2f} ms/tick scalar, "
        f"{result['vectorized_control_ms_per_tick']:.2f} ms/tick "
        f"vectorized, speedup {result['control_speedup']:.1f}x"
    )
    floor = 10.0 if _FULL_SCALE else 1.0
    assert result["control_speedup"] >= floor, (
        f"batched control plane only {result['control_speedup']:.1f}x "
        f"faster at {result['servers']} servers (floor {floor}x)"
    )


def test_control_plane_full_tick_100k(once, bench_report):
    result = once(
        lambda: _time_world(_sized(100_000), "vectorized", cycles=3)
    )
    bench_report(
        "control_plane",
        {"control_100k": result},
        knobs={
            "seed": 0,
            "scale": _SCALE,
            "physics_backend": "vectorized",
            "cpus": _CPUS,
        },
    )
    print(
        f"\n{result['servers']} servers: full tick "
        f"{result['full_tick_ms']:.0f} ms (physics "
        f"{result['physics_ms_per_tick']:.0f} ms, control "
        f"{result['control_ms_per_tick']:.0f} ms)"
    )
    if _FULL_SCALE:
        assert result["full_tick_ms"] < 3000.0, (
            f"100k-server full tick took {result['full_tick_ms']:.0f} ms; "
            "the vectorized control plane should keep it under 3 s"
        )
