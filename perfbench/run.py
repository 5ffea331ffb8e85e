"""Drift-normalized control-cycle benchmark for the Dynamo reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload capping --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

Each run builds a 20k-server Dynamo world from ``src/``, warms it past
the capping onset, then runs whole simulated 3 s leaf control cycles
(three 1 s physics steps plus every controller pass due in them) for
``--seconds`` of host time.  Every cycle is timed between two slices of
the reference kernel (``reference.py``), loses the time its processes
waited for a CPU, and is scaled to the nominal host speed, so
shared-host drift cancels; every cycle must also pass the correctness
gate (``checks.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
split from a traced run (``tracing.py``) whose digest must equal an
untraced run's.  The last stdout line is the JSON result; the exit code
is 0 only when every check held.  See ``RATIONALE.md`` for why each
workload and metric exists.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, so the load stays within the host's CPUs (set
# before NumPy is first imported).
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (  # noqa: E402
    CycleGate,
    controller_totals,
    render_digest,
    state_totals,
)
from reference import ReferenceClock  # noqa: E402
from tracing import CYCLE, Tracer  # noqa: E402
from worlds import (  # noqa: E402
    CYCLE_S,
    UPPER_S,
    WARMUP_CYCLES,
    WORKLOADS,
    arm_blackout,
    blackout_victims,
    build,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Span dumps of traced runs (git-ignored).
OUT = ROOT / ".perfbench_out"

#: Worlds built per run for ``setup_s``; the last one is the timed one.
SETUP_BUILDS = 2
#: Reference slices between two setup phases.
PHASE_SLICES = 3
#: Cycles run after the blackout is armed, before timing starts.
BLACKOUT_SETTLE_CYCLES = 4


def _import_repro(clock):
    """Import the modules a build needs; returns normalized seconds."""
    before = clock.slice()
    t0 = time.perf_counter()
    import repro.chaos.faults  # noqa: F401
    import repro.core.dynamo  # noqa: F401
    import repro.fleet  # noqa: F401
    import repro.power.builder  # noqa: F401
    import repro.power.oversubscription  # noqa: F401
    import repro.sharding  # noqa: F401
    import repro.state.worlds  # noqa: F401

    elapsed = time.perf_counter() - t0
    after = clock.slice()
    return elapsed * clock.factor(before, after)


def _timed_build(workload, seed, clock):
    """Build once; returns ``(world, runner, normalized seconds)``.

    Reference slices run between phases and, on a timer, inside them;
    each phase is scaled by every slice from the group before it to the
    group after it, and the in-phase slices' own time is subtracted.
    """
    def slices():
        first = clock.slice()
        for _ in range(PHASE_SLICES - 1):
            clock.slice()
        return first

    spans = []
    groups = [slices()]
    mark = [time.perf_counter(), clock.sampled_s]

    def phase(name):
        elapsed = time.perf_counter() - mark[0]
        spans.append(elapsed - (clock.sampled_s - mark[1]))
        groups.append(slices())
        mark[:] = [time.perf_counter(), clock.sampled_s]

    with clock.sampling():
        world, runner = build(workload, seed, phase)
    total = 0.0
    for k, elapsed in enumerate(spans):
        lo = groups[k]
        hi = groups[k + 1] + PHASE_SLICES - 1
        total += elapsed * clock.factor(lo, hi)
    return world, runner, total


def _close(runner, world):
    if runner is not world:
        runner.close()


def _run_queue_s(pids):
    """Seconds each of ``pids`` has spent runnable but waiting for a CPU.

    The kernel's per-task scheduler statistics; reading them draws
    nothing from the simulation.
    """
    waits = []
    for pid in pids:
        with open(f"/proc/{pid}/schedstat", encoding="ascii") as f:
            waits.append(int(f.read().split()[1]) / 1e9)
    return waits


def _pss_mb(pids):
    """Summed proportional set size of ``pids`` in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as f:
            for line in f:
                if line.startswith("Pss:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024.0


class Session:
    """One world driven cycle by cycle, with gate, timing and digest."""

    def __init__(self, workload, world, runner, clock):
        self.workload = workload
        self.world = world
        self.runner = runner
        self.clock = clock
        self.sharded = runner is not world
        self.now_s = 0.0
        self.gate = CycleGate()
        self.energy_j = 0.0
        self.raw_s = []
        #: Longest run-queue wait among the cycle's processes, per cycle.
        self.queued_s = []
        self.factors = []
        self.ok = []
        self.window_traces = []
        self.window_start_s = None
        self.trips_per_cycle = []
        self.peak_pss_mb = 0.0

    def advance(self):
        self.now_s += CYCLE_S
        self.runner.run_until(self.now_s)

    def warm_up(self, seed):
        for _ in range(WARMUP_CYCLES):
            self.advance()
        if self.workload.blackout:
            victims = blackout_victims(self.world, self.workload.blackout, seed)
            arm_blackout(self.world, victims, self.now_s)
            for _ in range(BLACKOUT_SETTLE_CYCLES):
                self.advance()

    def run_window(self, seconds=None, cycles=None, tracer=None):
        """Timed cycles until ``seconds`` of host time or ``cycles`` ran."""
        world = self.world
        traces = world.dynamo.traces
        seen = traces.recorded
        trips = len(world.driver.trips)
        self.window_start_s = self.now_s
        pids = [os.getpid()]
        if self.sharded:
            pids += [p.pid for p in self.runner._procs]
        deadline = time.perf_counter() + (seconds or 0.0)
        before = self.clock.slice()
        while True:
            self.now_s += CYCLE_S
            queued0 = _run_queue_s(pids)
            span = None if tracer is None else tracer.open(CYCLE)
            t0 = time.perf_counter()
            self.runner.run_until(self.now_s)
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
            queued1 = _run_queue_s(pids)
            after = self.clock.slice()
            self.raw_s.append(elapsed)
            self.queued_s.append(max(b - a for a, b in zip(queued0, queued1)))
            self.factors.append(self.clock.factor(before, after))
            before = after
            self.energy_j += world.fleet.total_power_w() * CYCLE_S
            new_trips = len(world.driver.trips) - trips
            trips += new_trips
            self.trips_per_cycle.append(new_trips)
            if self.sharded:
                self.peak_pss_mb = max(self.peak_pss_mb, _pss_mb(pids))
            else:
                new = traces.recorded - seen
                seen = traces.recorded
                cycle = [t.to_dict() for t in traces.latest(new)] if new else []
                lost = new - len(cycle)
                self.window_traces.extend(cycle)
                self.ok.append(
                    self.gate.check(len(self.ok), cycle, new_trips) and not lost
                )
            done = len(self.raw_s)
            if cycles is not None and done >= cycles:
                break
            if cycles is None and time.perf_counter() >= deadline:
                break

    def finish(self):
        """Gate sharded cycles from a capture; returns the digest."""
        world = self.world
        if self.sharded:
            state = self.runner.capture(include_traces=True).state
            totals = state_totals(state)
            kept = state["traces"]["traces"]
            complete = bool(kept) and kept[0]["time_s"] <= self.window_start_s
            self.window_traces = [
                t for t in kept if t["time_s"] > self.window_start_s
            ]
            by_cycle = [[] for _ in self.raw_s]
            for trace in self.window_traces:
                index = int((trace["time_s"] - self.window_start_s - 1e-9)
                            // CYCLE_S)
                by_cycle[index].append(trace)
            self.ok = [
                self.gate.check(k, cycle, trips) and complete
                for k, (cycle, trips) in enumerate(
                    zip(by_cycle, self.trips_per_cycle)
                )
            ]
        else:
            hierarchy = world.dynamo.hierarchy
            totals = controller_totals(
                list(hierarchy.leaf_controllers.values())
                + list(hierarchy.upper_controllers.values())
            )
        return {
            "fleet_power_w": world.fleet.total_power_w(),
            "energy_j": self.energy_j,
            "cap_events": totals["cap_events"],
            "uncap_events": totals["uncap_events"],
            "capped_servers": totals["capped_servers"],
            "trips": len(world.driver.trips),
            "sim_time_s": self.now_s,
        }

    def purpose_problems(self, digest):
        """What this workload must show, checked over the timed window."""
        leaf = [t for t in self.window_traces if t["kind"] == "leaf"]
        expect = self.workload.expect
        problems = []
        if expect == "steady" and digest["cap_events"] != 0:
            problems.append(f"steady run capped ({digest['cap_events']} events)")
        if expect == "capping" and not any(t["action"] == "cap" for t in leaf):
            problems.append("capping run made no cap in the timed window")
        if expect == "degraded" and not any(
            t["mode"] == "sensor-degraded" for t in leaf
        ):
            problems.append("blackout run never entered SENSOR_DEGRADED")
        return problems

    def phase_medians(self):
        """Median normalized cycle per leaf cycle within the upper cycle.

        A spread between them would mean the overall median sits
        between two modes and the 9 s period should be the sample.
        """
        phases = {}
        end = self.window_start_s
        for value in self.normalized_ms():
            end += CYCLE_S
            phases.setdefault(round(end % UPPER_S / CYCLE_S), []).append(value)
        return [statistics.median(phases[k]) for k in sorted(phases)]

    def normalized_ms(self):
        """Cycle host ms at the nominal speed, CPU-queue waits removed."""
        return [
            1e3 * (r - q) * f
            for r, q, f in zip(self.raw_s, self.queued_s, self.factors)
        ]


def _tail(values, pct):
    """(value, samples above it) at percentile ``pct`` (interpolated)."""
    if len(values) < 2:
        return values[0], 0
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return value, sum(v > value for v in values)


def _peak_rss_mb(session):
    if session.sharded:
        return session.peak_pss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(correct, attempted, failed, metrics):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def run_end_to_end(workload, seed, seconds, clock):
    """The untraced run: setup samples, warm-up, timed window."""
    import_s = _import_repro(clock)
    builds = []
    for k in range(SETUP_BUILDS):
        world, runner, build_s = _timed_build(workload, seed, clock)
        builds.append(build_s)
        if k < SETUP_BUILDS - 1:
            _close(runner, world)
            del world, runner
            gc.collect()
    session = Session(workload, world, runner, clock)
    try:
        session.warm_up(seed)
        session.run_window(seconds=seconds)
        digest = session.finish()
    finally:
        _close(runner, world)
    norm = session.normalized_ms()
    n = len(norm)
    pct = workload.tail_pct
    tail, above = _tail(norm, pct)
    failed = session.ok.count(False)
    problems = session.purpose_problems(digest) + session.gate.failures
    print("digest:", render_digest(digest))
    print(f"cycles: {n} timed; cycle_ms_tail is p{pct} of {n} samples, "
          f"{above} above it" + ("" if above >= 10 else " (fewer than 10)"))
    print("setup builds (normalized s):", [round(s, 4) for s in builds])
    print(f"host: reference slice p50 "
          f"{1e3 * statistics.median(clock.slices_s):.2f} ms, raw cycle p50 "
          f"{1e3 * statistics.median(session.raw_s):.2f} ms, CPU-queue wait "
          f"p50 {1e3 * statistics.median(session.queued_s):.2f} ms")
    print("cycle p50 by phase of the 9 s upper cycle (ms):",
          [round(m, 2) for m in session.phase_medians()])
    for problem in problems:
        print("CHECK FAILED:", problem)
    metrics = {
        "cycle_ms_p50": (statistics.median(norm), "ms"),
        "cycle_ms_tail": (tail, "ms"),
        "sim_rate": (3.0 * n / (sum(norm) / 1e3), "s/s"),
        "setup_s": (import_s + statistics.median(builds), "s"),
        "peak_rss_mb": (_peak_rss_mb(session), "MB"),
        "cycle_ok_ratio": ((n - failed) / n, "ratio"),
    }
    return _result(not problems, n, failed, metrics)


def run_traced(workload, seed, seconds, clock):
    """Untraced then traced window over identical worlds; layer split."""
    _import_repro(clock)
    plain = None
    results = {}
    for traced in (False, True):
        world, runner = build(workload, seed, lambda name: None)
        session = Session(workload, world, runner, clock)
        tracer = Tracer() if traced else None
        try:
            session.warm_up(seed)
            if traced:
                stats0 = runner.worker_stats() if session.sharded else None
                wall0 = dict(runner.wall) if session.sharded else None
                counters0 = _counters(world)
                tracer.install()
                try:
                    session.run_window(cycles=len(plain.raw_s), tracer=tracer)
                finally:
                    tracer.uninstall()
                counters1 = _counters(world)
                stats1 = runner.worker_stats() if session.sharded else None
                wall1 = dict(runner.wall) if session.sharded else None
            else:
                session.run_window(seconds=seconds / 2.0)
            results[traced] = session.finish()
        finally:
            _close(runner, world)
        if not traced:
            plain = session
        del world, runner
        gc.collect()
    same = results[False] == results[True]
    print("digest untraced:", render_digest(results[False]))
    print("digest traced:  ", render_digest(results[True]))
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload.name}-seed{seed}.csv"
    tracer.write(dump)
    print(f"spans: {len(tracer.start)} written to {dump.relative_to(ROOT)}")
    metrics = _layer_metrics(
        session, plain, tracer, counters0, counters1,
        (stats0, stats1, wall0, wall1),
    )
    problems = []
    for checked, digest in ((plain, results[False]), (session, results[True])):
        problems += checked.purpose_problems(digest) + checked.gate.failures
    if not same:
        problems.append("traced digest differs from the untraced digest")
    for problem in problems:
        print("CHECK FAILED:", problem)
    n = len(session.raw_s)
    return _result(not problems, n, session.ok.count(False), metrics)


def _counters(world):
    dynamo = world.dynamo
    stepper = world.driver.stepper
    return {
        "fallback_steps": stepper.fallback_server_steps,
        "fast": dynamo.transport.group_fast_endpoint_calls,
        "scalar": dynamo.transport.group_fallback_endpoint_calls,
        "retries": dynamo.health.total_retries,
        "events": world.engine.events_executed,
    }


def _layer_metrics(session, plain, tracer, c0, c1, sharding):
    """Per-cycle layer metrics of the traced window (ms are normalized)."""
    n = len(session.raw_s)
    raw_total = sum(session.raw_s)
    scale = sum(session.normalized_ms()) / (raw_total * n)
    own = tracer.self_seconds()

    def ms(name):
        return own.get(name, 0.0) * scale

    def per_cycle(key):
        return (c1[key] - c0[key]) / n

    leaf = [t for t in session.window_traces if t["kind"] == "leaf"]
    last_time = max((t["time_s"] for t in leaf), default=None)
    fast = c1["fast"] - c0["fast"]
    scalar = c1["scalar"] - c0["scalar"]
    traced_p50 = statistics.median(session.normalized_ms())
    plain_p50 = statistics.median(plain.normalized_ms())
    metrics = {
        "core.plan_ms": (ms("core.plan"), "ms"),
        "core.allocate_ms": (ms("core.allocate"), "ms"),
        "core.readings_ms": (ms("core.readings"), "ms"),
        "core.readings_built": (tracer.readings_built / n, "count"),
        "core.actuate_ms": (ms("core.actuate"), "ms"),
        "core.sense_ms": (ms("core.sense"), "ms"),
        "core.aggregate_ms": (ms("core.aggregate"), "ms"),
        "core.decide_ms": (ms("core.decide"), "ms"),
        "core.upper_ms": (ms("core.upper"), "ms"),
        "core.health_ms": (ms("core.health"), "ms"),
        "core.cap_events": (
            sum(t["action"] == "cap" for t in leaf) / n, "count"
        ),
        "core.capped_servers": (
            sum(t["capped_after"] for t in leaf if t["time_s"] == last_time),
            "count",
        ),
        "server.step_ms": (ms("server.step"), "ms"),
        "server.fallback_steps": (per_cycle("fallback_steps"), "count"),
        "rpc.read_ms": (ms("rpc.read"), "ms"),
        "rpc.cap_ms": (ms("rpc.cap"), "ms"),
        "rpc.fast_share": (
            fast / (fast + scalar) if fast + scalar else 1.0, "ratio"
        ),
        "rpc.scalar_calls": (scalar / n, "count"),
        "rpc.resilient_ms": (ms("rpc.resilient"), "ms"),
        "rpc.retries": (per_cycle("retries"), "count"),
        "estimation.ms": (ms("estimation"), "ms"),
        "estimation.pulls_disaggregated": (
            sum(t["disaggregated"] for t in leaf) / n, "count"
        ),
        "simulation.events": (per_cycle("events"), "count"),
        "runtime.gc_ms": (tracer.gc_s * scale, "ms"),
        "runtime.gc_collections": (tracer.gc_collections / n, "count"),
        "host.ref_ms": (1e3 * statistics.median(session.clock.slices_s), "ms"),
        "host.cycle_ms_raw_p50": (
            1e3 * statistics.median(session.raw_s), "ms"
        ),
        "trace.overhead_pct": (100.0 * (traced_p50 / plain_p50 - 1.0), "%"),
    }
    metrics.update(_sharding_metrics(sharding, n, scale))
    # The parent's blocked wait on the workers sits inside the cycle span
    # but is accounted under sharding.*, not as the engine's own time.
    blocked_ms = metrics["sharding.parent_blocked_ms"][0]
    metrics["simulation.self_ms"] = (ms(CYCLE) - blocked_ms, "ms")
    return metrics


def _sharding_metrics(sharding, n, scale):
    """Worker compute, waits and the parent's blocked time, per cycle."""
    stats0, stats1, wall0, wall1 = sharding
    if stats0 is None:
        zero = (0.0, "ms")
        return {
            name: zero
            for name in (
                "sharding.worker_step_ms",
                "sharding.worker_wait_ms",
                "sharding.parent_blocked_ms",
                "sharding.barrier_ms",
                "sharding.coordinator_ms",
            )
        }
    step = max(b["step_wall_s"] - a["step_wall_s"] for a, b in zip(stats0, stats1))
    wait = statistics.mean(
        b["wait_wall_s"] - a["wait_wall_s"] for a, b in zip(stats0, stats1)
    )
    blocked = wall1["exchange_s"] - wall0["exchange_s"]
    coordinator = wall1["coordinator_s"] - wall0["coordinator_s"]
    return {
        "sharding.worker_step_ms": (step * scale, "ms"),
        "sharding.worker_wait_ms": (wait * scale, "ms"),
        "sharding.parent_blocked_ms": (blocked * scale, "ms"),
        "sharding.barrier_ms": ((blocked - step) * scale, "ms"),
        "sharding.coordinator_ms": (coordinator * scale, "ms"),
    }


def _stop_children():
    """Stop every process this run started and wait for each to end.

    Shard workers are joined by ``ShardedWorld.close``; any still alive
    after an error are killed here.  Their shared-memory segment started
    multiprocessing's resource tracker, a helper process that would
    otherwise outlive this one, so it is stopped and reaped as well.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    # Closes the tracker's pipe and waits for it to exit (no public API).
    resource_tracker._resource_tracker._stop()


def _exit_on_sigterm(main_pid):
    """Turn SIGTERM into SystemExit so the cleanup in main() runs."""

    def handler(signum, frame):
        if os.getpid() != main_pid:
            os._exit(128 + signum)
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="small bit-identity checks instead of a measured run",
    )
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from the root "
            "of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    _exit_on_sigterm(os.getpid())
    try:
        return _run(args)
    finally:
        _stop_children()


def _run(args):
    if args.selftest:
        from selftest import run_selftest

        return run_selftest()
    if args.workload not in WORKLOADS:
        known = ", ".join(WORKLOADS)
        print(f"perfbench: unknown workload {args.workload!r}; known: {known}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    clock = ReferenceClock()
    for _ in range(5):
        clock.slice()
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds, clock)
    else:
        result = run_end_to_end(workload, args.seed, args.seconds, clock)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
