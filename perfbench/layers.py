"""Per-layer metrics: spans around layer entry points plus obs counters.

:func:`install` wraps each layer's entry points with spans. The layer of
a span is the package that owns the called code. Where no public call
marks a boundary the benchmark needs, a private method is wrapped
instead; those are marked ``(private)`` below and are the first thing to
revisit when the program is refactored.

:func:`layer_metrics` turns one traced window into every ``per_layer``
metric of the catalogue. Times are totals over the traced window, whose
work is fixed per seed; counts come from the obs instruments the
program already keeps and repeat exactly for a seed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from common import median, percentile, tail_percentile
from tracing import Span, Tracer


def _note_packets(span: Span, args, kwargs, result) -> None:
    packets = args[2] if len(args) > 2 else kwargs["packets"]
    span.info["packets"] = len(packets)


def _note_columns(span: Span, args, kwargs, result) -> None:
    span.info["packets"] = result.count
    span.info["fallback"] = len(result.scalar)


def _note_redeploy(span: Span, args, kwargs, result) -> None:
    span.info["rebuilt"] = len(result.rebuilt)
    span.info["reused"] = len(result.reused)


def _note_decision(span: Span, args, kwargs, result) -> None:
    core = args[0]
    span.info["accepted"] = 1 if result.accepted else 0
    if getattr(core, "pool", "") == "keep":
        # the rack lives in a pool worker; the decision carries the delta
        span.info["rebuilt"] = len(result.rebuilt)
        span.info["reused"] = len(result.reused)


def _note_solve(span: Span, args, kwargs, result) -> None:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    base = getattr(request, "base_placement", None)
    span.info["incremental"] = 0 if base is None else 1


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points every workload can reach."""
    import repro.chain.graph as graph
    import repro.core.cache as cache
    import repro.core.partition as partition
    from repro.core.placer import Placer
    from repro.metacompiler.compiler import MetaCompiler
    from repro.p4c.compiler import PISACompiler
    from repro.runtime.pool import WorkerPool
    from repro.serve.daemon import ServeDaemon
    from repro.serve.journal import CheckpointStore, Journal
    from repro.sim.admission import AdmissionCore
    from repro.sim.faults import ChaosEngine
    from repro.sim.runtime import DeployedRack
    from repro.sim.traffic import TrafficEngine

    tracer.wrap_everywhere(graph, "chains_from_spec", "chain.parse", "chain")
    tracer.wrap_everywhere(graph, "chains_with_slos", "chain.parse", "chain")
    tracer.wrap(Placer, "solve", "core.solve", "core", _note_solve)
    tracer.wrap_everywhere(cache, "placement_fingerprint",
                           "core.fingerprint", "core")
    tracer.wrap_everywhere(partition, "partition_chains",
                           "core.partition", "core")
    tracer.wrap(MetaCompiler, "compile_placement",
                "metacompiler.compile", "metacompiler")
    tracer.wrap(PISACompiler, "compile", "p4c.compile", "p4c")
    tracer.wrap(DeployedRack, "__init__", "sim.runtime.deploy",
                "sim.runtime")
    tracer.wrap(DeployedRack, "run", "sim.runtime.run", "sim.runtime",
                _note_packets)
    tracer.wrap(DeployedRack, "run_columns", "sim.runtime.run_columns",
                "sim.runtime", _note_columns)
    tracer.wrap(DeployedRack, "redeploy", "sim.runtime.redeploy",
                "sim.runtime", _note_redeploy)
    tracer.wrap(TrafficEngine, "run", "sim.traffic.run", "sim.traffic")
    tracer.wrap(TrafficEngine, "replay_batch", "sim.traffic.replay_batch",
                "sim.traffic")
    tracer.wrap(AdmissionCore, "bootstrap", "sim.admission.bootstrap",
                "sim.admission")
    tracer.wrap(AdmissionCore, "process", "sim.admission.process",
                "sim.admission", _note_decision)
    tracer.wrap(AdmissionCore, "run_phase", "sim.admission.phase",
                "sim.admission")
    tracer.wrap(AdmissionCore, "apply_fault", "sim.admission.fault",
                "sim.admission")
    tracer.wrap(ChaosEngine, "run", "sim.faults.run", "sim.faults")
    tracer.wrap(WorkerPool, "dispatch", "runtime.dispatch", "runtime")
    # (private) the lazy worker spawn has no public entry point
    tracer.wrap(WorkerPool, "_ensure_workers", "runtime.spawn", "runtime")
    tracer.wrap(Journal, "append", "serve.journal_append", "serve")
    tracer.wrap(ServeDaemon, "checkpoint", "serve.checkpoint", "serve")
    tracer.wrap(CheckpointStore, "load", "serve.checkpoint_load", "serve")
    # (private) command handling inside the daemon, and crash recovery
    tracer.wrap(ServeDaemon, "_handle", "serve.handle", "serve")
    tracer.wrap(ServeDaemon, "_recover_or_bootstrap", "serve.recover",
                "serve")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _sum_ms(spans: Iterable[Span]) -> float:
    return sum(s.seconds for s in spans) * 1000.0


def _counter(snapshots: List[dict], name: str, **labels) -> float:
    total = 0.0
    for snap in snapshots:
        for entry in snap.get("counters", ()):
            if entry["name"] != name:
                continue
            if all(entry["labels"].get(k) == v for k, v in labels.items()):
                total += entry["value"]
    return total


def _histogram_sum(snapshots: List[dict], name: str) -> float:
    return sum(
        entry["sum"]
        for snap in snapshots
        for entry in snap.get("histograms", ())
        if entry["name"] == name
    )


def _p50_tail(values_ms: List[float]):
    if not values_ms:
        return 0.0, 0.0
    return (median(values_ms),
            percentile(values_ms, tail_percentile(len(values_ms))))


def layer_metrics(tracer: Tracer, t0: float, t1: float,
                  snapshots: List[dict], *,
                  import_s: float,
                  http_pairs: Optional[Dict[object, float]] = None,
                  checkpoint_bytes: int = 0,
                  obs_overhead_ratio: float,
                  trace_overhead_ratio: float) -> Dict[str, float]:
    """Every ``per_layer`` metric for the traced window ``[t0, t1]``.

    ``snapshots`` are registry snapshots (``MetricsRegistry.snapshot``)
    covering exactly the traced work; ``http_pairs`` maps a serve request
    id to its client-side ack seconds.
    """
    spans = tracer.closed(t0, t1)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    solves = named("core.solve")
    full = [s.seconds * 1000.0 for s in solves
            if not s.info.get("incremental")]
    incr = [s.seconds * 1000.0 for s in solves if s.info.get("incremental")]
    full_p50, full_tail = _p50_tail(full)
    incr_p50, incr_tail = _p50_tail(incr)
    hits = _counter(snapshots, "placement_cache.lookups", result="hit")
    lookups = _counter(snapshots, "placement_cache.lookups")

    columns = named("sim.runtime.run_columns")
    col_packets = sum(s.info.get("packets", 0) for s in columns)
    col_fallback = sum(s.info.get("fallback", 0) for s in columns)
    col_seconds = sum(s.seconds for s in columns)
    runs = named("sim.runtime.run")
    run_packets = sum(s.info.get("packets", 0) for s in runs)
    run_seconds = sum(s.seconds for s in runs)
    flow_hits = _counter(snapshots, "rack.flow_cache.lookups", result="hit")
    flow_lookups = _counter(snapshots, "rack.flow_cache.lookups")
    rebuilt = sum(s.info.get("rebuilt", 0) for s in
                  named("sim.runtime.redeploy") + named("sim.admission.process"))
    reused = sum(s.info.get("reused", 0) for s in
                 named("sim.runtime.redeploy") + named("sim.admission.process"))

    recover = named("serve.recover")
    loads = named("serve.checkpoint_load")
    handles = {s.rid: s.seconds for s in named("serve.handle")}
    http_ms = [
        (ack - handles[rid]) * 1000.0
        for rid, ack in sorted((http_pairs or {}).items(), key=str)
        if rid in handles
    ]

    selfs, unattributed = tracer.self_times(t0, t1)
    out = {
        "import.repro_s": import_s,
        "chain.parse_ms": _sum_ms(named("chain.parse")),
        "core.solve_full_p50_ms": full_p50,
        "core.solve_full_tail_ms": full_tail,
        "core.solve_full_calls": float(len(full)),
        "core.solve_incremental_p50_ms": incr_p50,
        "core.solve_incremental_tail_ms": incr_tail,
        "core.solve_incremental_calls": float(len(incr)),
        "core.solve_calls": float(len(solves)),
        "core.fingerprint_ms": _sum_ms(named("core.fingerprint")),
        "core.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "core.cache_lookups": lookups,
        "core.lp_solves": _counter(snapshots, "lp.solves"),
        "core.multirack_solve_ms": (
            _sum_ms(named("core.partition")) + sum(
                s.seconds * 1000.0 for s in solves
                if not s.info.get("incremental")
            ) if named("core.partition") else 0.0
        ),
        "core.partition_ms": _sum_ms(named("core.partition")),
        "metacompiler.compile_ms": _sum_ms(named("metacompiler.compile")),
        "metacompiler.compile_calls": float(len(named("metacompiler.compile"))),
        "p4c.compile_ms": _sum_ms(named("p4c.compile")),
        "sim.runtime.columnar_pps": (col_packets / col_seconds
                                     if col_seconds else 0.0),
        "sim.runtime.fallback_share": (col_fallback / col_packets
                                       if col_packets else 0.0),
        "sim.runtime.scalar_pps": (run_packets / run_seconds
                                   if run_seconds else 0.0),
        "sim.runtime.flow_cache_hit_ratio": (flow_hits / flow_lookups
                                             if flow_lookups else 0.0),
        "sim.runtime.flow_cache_lookups": flow_lookups,
        "sim.runtime.redeploy_ms": _sum_ms(named("sim.runtime.redeploy")),
        "sim.runtime.devices_rebuilt": float(rebuilt),
        "sim.runtime.devices_reused": float(reused),
        "sim.runtime.drops": _counter(snapshots, "rack.packets.dropped"),
        "sim.runtime.drops_failed_device": _counter(
            snapshots, "rack.packets.dropped", reason="device_failed"),
        "sim.runtime.drops_link_degraded": _counter(
            snapshots, "rack.packets.dropped", reason="link_degraded"),
        "sim.admission.process_ms": _sum_ms(named("sim.admission.process")),
        "sim.admission.phase_ms": _sum_ms(named("sim.admission.phase")),
        "sim.admission.accepted": _counter(
            snapshots, "lifecycle.admission", decision="accepted"),
        "sim.admission.rejected": _counter(
            snapshots, "lifecycle.admission", decision="rejected"),
        "sim.faults.replan_ms": _histogram_sum(
            snapshots, "replan.latency_seconds") * 1000.0,
        "sim.faults.replans": _counter(snapshots, "replan.count"),
        "sim.faults.degradations": _counter(snapshots, "guard.degradations"),
        "sim.interrack.packets": _counter(snapshots, "interrack.packets"),
        "sim.interrack.drops": _counter(snapshots, "interrack.drops"),
        "runtime.dispatch_ms": _histogram_sum(
            snapshots, "runtime.dispatch.seconds") * 1000.0,
        "runtime.rack_builds.cold": _counter(
            snapshots, "runtime.rack_builds", mode="cold"),
        "runtime.rack_builds.warm": _counter(
            snapshots, "runtime.rack_builds", mode="warm"),
        "runtime.rack_builds.delta": _counter(
            snapshots, "runtime.rack_builds", mode="delta"),
        "runtime.pool_spawn_ms": _sum_ms(named("runtime.spawn")),
        "serve.http_ms": median(http_ms) if http_ms else 0.0,
        "serve.journal_append_ms": _sum_ms(named("serve.journal_append")),
        "serve.checkpoint_ms": _sum_ms(named("serve.checkpoint")),
        "serve.checkpoint_bytes": float(checkpoint_bytes),
        "serve.checkpoint_load_ms": _sum_ms(loads),
        "serve.replay_ms": sum(
            max(0.0, span.seconds - sum(load.seconds for load in inner))
            for span in recover
            for inner in [[load for load in loads
                           if span.start <= load.start <= span.end]]
            if inner
        ) * 1000.0,
        "obs.overhead_ratio": obs_overhead_ratio,
        "trace.overhead_ratio": trace_overhead_ratio,
        "trace.wall_ms": (t1 - t0) * 1000.0,
        "trace.unattributed_ms": unattributed * 1000.0,
    }
    from catalog import TRACE_LAYERS

    unknown = set(selfs) - set(TRACE_LAYERS)
    if unknown:
        raise ValueError(f"spans in layers the catalogue lacks: {unknown}")
    for layer in TRACE_LAYERS:
        out[f"self.{layer}_ms"] = selfs.get(layer, 0.0) * 1000.0
    return out
