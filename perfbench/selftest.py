"""Bit-identity self-test: ``python3 perfbench/run.py --selftest``.

Three claims the measured runs rely on, each checked by comparing run
digests (fleet power, energy, cap/uncap events, capped servers, trips):

* the benchmark's phased builder makes the same ``capping`` world as
  ``repro.state.worlds.build_sized_world``;
* ``sharded-capping`` ends in the same state as ``capping`` at the same
  seed (the repository's bit-identical sharding contract);
* tracing changes nothing: traced and untraced digests are equal, on
  the capping path and on the blackout's failure path.
"""

from __future__ import annotations

from checks import render_digest
from reference import ReferenceClock
from tracing import Tracer
from worlds import SERVERS, WORKLOADS, build

SEED = 3
CYCLES = 4


def _digest(workload, *, traced=False, sized=False):
    from run import Session

    if sized:
        from repro.state.worlds import build_sized_world

        world = build_sized_world(
            servers=SERVERS,
            seed=SEED,
            physics_backend="vectorized",
            control_backend="vectorized",
        )
        runner = world
    else:
        world, runner = build(workload, SEED, lambda name: None)
    session = Session(workload, world, runner, ReferenceClock())
    tracer = Tracer() if traced else None
    try:
        session.warm_up(SEED)
        if tracer is not None:
            tracer.install()
        try:
            session.run_window(cycles=CYCLES, tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        digest = session.finish()
    finally:
        if runner is not world:
            runner.close()
    problems = session.purpose_problems(digest) + session.gate.failures
    if tracer is not None and not len(tracer.start) > CYCLES:
        problems.append("tracer recorded no layer spans")
    return render_digest(digest), problems


def run_selftest() -> int:
    capping = WORKLOADS["capping"]
    blackout = WORKLOADS["sensor-blackout"]
    reference, problems = _digest(capping)
    comparisons = [
        ("build_sized_world", _digest(capping, sized=True)),
        ("sharded-capping", _digest(WORKLOADS["sharded-capping"])),
        ("capping traced", _digest(capping, traced=True)),
    ]
    blackout_plain, blackout_problems = _digest(blackout)
    problems += blackout_problems
    failed = False
    print("capping:", reference)
    for name, (digest, extra) in comparisons:
        same = digest == reference
        failed |= not same
        problems += extra
        print(f"{name}: {'same' if same else 'DIFFERENT: ' + digest}")
    traced, extra = _digest(blackout, traced=True)
    problems += extra
    same = traced == blackout_plain
    failed |= not same
    print("sensor-blackout:", blackout_plain)
    print(f"sensor-blackout traced: {'same' if same else 'DIFFERENT: ' + traced}")
    for problem in problems:
        print("CHECK FAILED:", problem)
    ok = not failed and not problems
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1
