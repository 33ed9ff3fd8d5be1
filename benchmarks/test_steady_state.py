"""Steady-state phase latency: persistent worker pool vs throwaway executor.

A long-running control plane (``repro serve``) replays many *short*
traffic phases against the same deployed chains. A throwaway
``ProcessPoolExecutor`` per phase is dominated by fixed costs it pays
every phase: process spawn/teardown, re-pickling the full
``(topology, artifacts, profiles, placement)`` bundle into every task,
and a from-scratch rack deploy in every worker. The persistent
:class:`~repro.runtime.pool.WorkerPool` pays each of those once: workers
stay alive across phases, artifacts ship by fingerprint at most once per
worker, and the deployed rack is reset (warm) instead of rebuilt.

This benchmark replays ``PHASES`` consecutive short phases through the
same :class:`~repro.sim.traffic.TrafficEngine` three ways — single
process (``shards=1``), a throwaway executor per phase (the reference
below: every phase ships the full bundle to fresh processes, so every
shard deploys cold), and the persistent pool (``shards=2``) — and
records per-phase latency. Reproduction targets: the persistent pool is
>= 5x faster than the throwaway executor over the whole phase train,
with byte-identical delivery outcomes phase for phase.

``STEADY_BENCH_PHASES`` overrides the phase count.
"""

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor

from conftest import record_result, run_once

from repro.obs import MetricsRegistry
from repro.runtime.pool import shutdown_pool
from repro.runtime.rackcache import (
    ArtifactBundle,
    PooledShardTask,
    bundle_fingerprint,
    run_traffic_shard,
)
from repro.sim.traffic import TrafficEngine, TrafficReport, TrafficSpec

#: two independent chains, one per shard — phases small enough that the
#: per-phase fixed costs, not the replay itself, dominate.
SPEC = "\n".join([
    "chain c1: ACL -> NAT",
    "chain c2: NAT -> IPv4Fwd",
])
SLOS = ((100.0, 200.0), (100.0, 200.0))
PHASES = int(os.environ.get("STEADY_BENCH_PHASES", "20"))
PACKETS = 8
FLOWS = 4
BATCH = 32
SHARDS = 2


def _engine(shards):
    registry = MetricsRegistry()
    engine = TrafficEngine.from_spec(
        TrafficSpec(
            spec_text=SPEC, slos=SLOS, packets_per_chain=PACKETS,
            flows_per_chain=FLOWS, batch_size=BATCH, vectorized=True,
            shards=shards,
        ),
        registry=registry,
    )
    return engine, registry


def _executor_phase(engine):
    """One phase on a throwaway executor (reference baseline).

    Every task carries the full pickled bundle, and the fresh worker
    processes hold no cached rack, so each shard deploys cold.
    """
    rack = engine.rack
    payload = pickle.dumps((rack.topology, rack.artifacts, rack.profiles,
                            engine.placement))
    bundle = ArtifactBundle(bundle_fingerprint(payload), payload)
    chains = engine.placement.chains
    tasks = [
        PooledShardTask(
            shard_index=index,
            chain_names=[cp.name for cp in chains[index::SHARDS]],
            packets_per_chain=PACKETS, bundle=bundle, seed=rack.seed,
            flows_per_chain=FLOWS, batch_size=BATCH, vectorized=True,
            queueing=rack.queueing.kind,
        )
        for index in range(SHARDS)
    ]
    report = TrafficReport()
    started = time.perf_counter()
    with ProcessPoolExecutor(max_workers=SHARDS) as executor:
        outcomes = list(executor.map(run_traffic_shard, tasks))
    report.chains, report.shard_walls = engine._merge_shards(outcomes,
                                                             chains)
    report.run_wall_seconds = time.perf_counter() - started
    return report


def _phase_train(mode):
    """Replay ``PHASES`` short phases; returns (reports, registry, wall)."""
    shutdown_pool()
    engine, registry = _engine(1 if mode == "serial" else SHARDS)
    if mode == "executor":
        phase = _executor_phase
    else:
        def phase(engine):
            return engine.run(packets_per_chain=PACKETS)
    reports = []
    started = time.perf_counter()
    for _phase in range(PHASES):
        reports.append(phase(engine))
    wall = time.perf_counter() - started
    shutdown_pool()
    return [report.to_json() for report in reports], registry, wall


def _rack_builds(registry):
    return {
        counter["labels"]["mode"]: counter["value"]
        for counter in registry.snapshot()["counters"]
        if counter["name"] == "runtime.rack_builds"
    }


def test_steady_state_phase_latency(benchmark):
    def run():
        serial = _phase_train("serial")
        executor = _phase_train("executor")
        keep = _phase_train("keep")
        return serial, executor, keep

    serial, executor, keep = run_once(benchmark, run)
    serial_reports, _, serial_wall = serial
    executor_reports, _, executor_wall = executor
    keep_reports, keep_registry, keep_wall = keep
    speedup = executor_wall / keep_wall
    builds = _rack_builds(keep_registry)

    lines = [
        "steady-state phase latency — persistent worker pool vs "
        "throwaway executor",
        f"{PHASES} consecutive phases, {len(SLOS)} chains x "
        f"{PACKETS} packets, {SHARDS} shards",
        "",
        f"{'mode':24s} {'total':>9s} {'per phase':>11s} {'vs executor':>11s}",
        f"{'single process':24s} {serial_wall:8.3f}s "
        f"{1000 * serial_wall / PHASES:9.2f}ms "
        f"{executor_wall / serial_wall:10.2f}x",
        f"{'throwaway executor':24s} {executor_wall:8.3f}s "
        f"{1000 * executor_wall / PHASES:9.2f}ms {'1.00x':>11s}",
        f"{'persistent pool':24s} {keep_wall:8.3f}s "
        f"{1000 * keep_wall / PHASES:9.2f}ms {speedup:10.2f}x",
        "",
        "warm rack reuse: "
        + ", ".join(f"{mode}={count}"
                    for mode, count in sorted(builds.items())),
    ]
    record_result("steady_state", "\n".join(lines))

    # identical delivery outcomes, phase for phase, across all three modes
    assert keep_reports == executor_reports == serial_reports

    # the persistent pool deployed cold once, then reused warm racks
    assert builds.get("cold", 0) >= 1
    assert builds.get("warm", 0) >= PHASES - 1

    # reproduction target: >= 5x over the throwaway executor on the train
    assert speedup >= 5.0
