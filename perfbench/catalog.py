"""The benchmark's definition: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/suite.py --write-benchmark-json``), so the catalogue
here is the single source of truth for names, units and bounds.

Every end-to-end metric is reported on every workload, so each one has a
meaning that applies to all three (see README.md for the mapping onto
the per-workload names ``replay_pps``, ``ack_p50_ms``, ``fabric_pps``
...). None of them can read 0: a run that cannot produce one fails.
"""

from __future__ import annotations

import json
from collections import OrderedDict

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 10

WORKLOADS = OrderedDict([
    ("replay-columnar",
     "steady columnar replay of 4 stateless chains x 1024 flows on the "
     "SmartNIC rack: the dataplane fast path alone"),
    ("serve-churn",
     "closed-loop HTTP arrive/scale/depart/probe stream against a real "
     "repro serve daemon, then SIGKILL and recovery: the control plane"),
    ("fabric-chaos",
     "guarded chaos runs of 18 chains on a 3-rack star with a failed "
     "server per rack: partition, cold solves, replans, inter-rack hops"),
])

#: (name, unit, better, bound). ``bound`` is the share of the parent's
#: median by which a metric may worsen before a change is rejected.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pps", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("recover_s", "s", "lower", 0.25),
]

#: (name, unit, better). Layers are named after the package that owns
#: them; a metric a workload does not exercise reads 0 there.
PER_LAYER = [
    ("import.repro_s", "s", "lower"),
    ("chain.parse_ms", "ms", "lower"),
    ("core.solve_full_p50_ms", "ms", "lower"),
    ("core.solve_full_tail_ms", "ms", "lower"),
    ("core.solve_full_calls", "count", "lower"),
    ("core.solve_incremental_p50_ms", "ms", "lower"),
    ("core.solve_incremental_tail_ms", "ms", "lower"),
    ("core.solve_incremental_calls", "count", "lower"),
    ("core.solve_calls", "count", "lower"),
    ("core.fingerprint_ms", "ms", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.cache_lookups", "count", "lower"),
    ("core.lp_solves", "count", "lower"),
    ("core.multirack_solve_ms", "ms", "lower"),
    ("core.partition_ms", "ms", "lower"),
    ("metacompiler.compile_ms", "ms", "lower"),
    ("metacompiler.compile_calls", "count", "lower"),
    ("p4c.compile_ms", "ms", "lower"),
    ("sim.runtime.columnar_pps", "1/s", "higher"),
    ("sim.runtime.fallback_share", "ratio", "lower"),
    ("sim.runtime.scalar_pps", "1/s", "higher"),
    ("sim.runtime.flow_cache_hit_ratio", "ratio", "higher"),
    ("sim.runtime.flow_cache_lookups", "count", "lower"),
    ("sim.runtime.redeploy_ms", "ms", "lower"),
    ("sim.runtime.devices_rebuilt", "count", "lower"),
    ("sim.runtime.devices_reused", "count", "higher"),
    ("sim.runtime.drops", "count", "lower"),
    ("sim.runtime.drops_failed_device", "count", "lower"),
    ("sim.runtime.drops_link_degraded", "count", "lower"),
    ("sim.admission.process_ms", "ms", "lower"),
    ("sim.admission.phase_ms", "ms", "lower"),
    ("sim.admission.accepted", "count", "higher"),
    ("sim.admission.rejected", "count", "lower"),
    ("sim.faults.replan_ms", "ms", "lower"),
    ("sim.faults.replans", "count", "lower"),
    ("sim.faults.degradations", "count", "lower"),
    ("sim.interrack.packets", "count", "higher"),
    ("sim.interrack.drops", "count", "lower"),
    ("runtime.dispatch_ms", "ms", "lower"),
    ("runtime.rack_builds.cold", "count", "lower"),
    ("runtime.rack_builds.warm", "count", "higher"),
    ("runtime.rack_builds.delta", "count", "lower"),
    ("runtime.pool_spawn_ms", "ms", "lower"),
    ("serve.http_ms", "ms", "lower"),
    ("serve.journal_append_ms", "ms", "lower"),
    ("serve.checkpoint_ms", "ms", "lower"),
    ("serve.checkpoint_bytes", "bytes", "lower"),
    ("serve.checkpoint_load_ms", "ms", "lower"),
    ("serve.replay_ms", "ms", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("self.import_ms", "ms", "lower"),
    ("self.chain_ms", "ms", "lower"),
    ("self.core_ms", "ms", "lower"),
    ("self.metacompiler_ms", "ms", "lower"),
    ("self.p4c_ms", "ms", "lower"),
    ("self.sim.runtime_ms", "ms", "lower"),
    ("self.sim.traffic_ms", "ms", "lower"),
    ("self.sim.admission_ms", "ms", "lower"),
    ("self.sim.faults_ms", "ms", "lower"),
    ("self.runtime_ms", "ms", "lower"),
    ("self.serve_ms", "ms", "lower"),
    ("self.bench_ms", "ms", "lower"),
]

#: layers whose self time the traced run attributes (``self.<layer>_ms``).
TRACE_LAYERS = [
    name[len("self."):-len("_ms")]
    for name, _unit, _better in PER_LAYER if name.startswith("self.")
]

END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document, with its keys in a fixed order."""
    return OrderedDict([
        ("command", list(COMMAND)),
        ("paths", list(PATHS)),
        ("run_seconds", RUN_SECONDS),
        ("workloads", [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ]),
        ("end_to_end", [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ]),
        ("per_layer", [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ]),
    ])


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
