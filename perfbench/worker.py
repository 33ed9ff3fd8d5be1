"""A child process that sets up one workload and runs it.

Usage (the driver, ``run.py``, is the only caller)::

    python3 perfbench/worker.py WORKLOAD INPUT.json MODE [SECONDS]

Modes:

``setup``    set up, print ``ready <digest>``, then idle until stdin closes
             (or the driver kills the process: the crash in recover_s);
``measure``  set up, print ``ready``, run the timed loop, print one JSON
             line of raw results;
``fixed``    set up, run a fixed amount of work untraced, print its wall;
``trace``    as ``fixed`` but traced from interpreter start, then the
             same fixed work untraced; print the per-layer metrics.

Replay and fabric workloads run entirely here. For serve-churn only the
traced run lives here: it hosts the daemon in-process through
``run_server`` in a thread, so daemon-side spans are visible.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.use_source()

import repro.serve  # noqa: E402,F401
import repro.sim.interrack  # noqa: E402,F401
import repro.sim.traffic  # noqa: E402,F401

IMPORT_S = time.perf_counter() - T_START

#: fixed work in ``fixed``/``trace`` mode, so obs counts repeat exactly.
FIXED_REPLAY_PASSES = 24
FIXED_CHAOS_RUNS = 6
FIXED_SERVE_COMMANDS = 40


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# replay-columnar
# ---------------------------------------------------------------------------


class Replay:
    def __init__(self, inputs: dict):
        self.inputs = inputs

    def _engine(self, vectorized: bool):
        from repro.hw.spec import topology_for
        from repro.sim.traffic import TrafficEngine, TrafficSpec

        inp = self.inputs
        spec = TrafficSpec(
            spec_text=inp["spec_text"],
            slos=tuple(tuple(s) for s in inp["slos"]),
            topology=topology_for(inp["topology"]),
            flows_per_chain=inp["flows_per_chain"],
            batch_size=inp["batch_size"],
            vectorized=vectorized,
            shards=1,
            queueing=inp["queueing"],
            seed=inp["rack_seed"],
        )
        return TrafficEngine.from_spec(spec)

    def setup(self) -> str:
        self.engine = self._engine(vectorized=True)
        # one warm-up pass fills the flow-classification cache
        self.op()
        return _sha(self.engine.placement.describe())

    def op(self) -> dict:
        report = self.engine.run(
            packets_per_chain=self.inputs["packets_per_chain"]
        )
        return {"injected": report.injected, "delivered": report.delivered,
                "ok": report.ok}

    def equivalence(self) -> dict:
        """Columnar and scalar replay of the same flow prefix on fresh
        racks, per chain: delivered counts and latency stamps."""
        columnar = self._engine(vectorized=True)
        scalar = self._engine(vectorized=False)
        count = self.inputs["check_packets"]
        pairs = {}
        for cp in columnar.placement.chains:
            twin = next(c for c in scalar.placement.chains
                        if c.name == cp.name)
            dc, _, lc = columnar.replay_batch(cp, 0, count)
            ds, _, ls = scalar.replay_batch(twin, 0, count)
            pairs[cp.name] = {"delivered_columnar": dc,
                              "delivered_scalar": ds,
                              "columnar": lc, "scalar": ls}
        return pairs

    def fixed_ops(self) -> int:
        return FIXED_REPLAY_PASSES


# ---------------------------------------------------------------------------
# fabric-chaos
# ---------------------------------------------------------------------------


class Fabric:
    def __init__(self, inputs: dict):
        self.inputs = inputs

    def setup(self) -> str:
        from repro.hw.spec import RackSpec, TopologySpec
        from repro.sim.faults import (
            ChaosSpec,
            FaultEvent,
            FaultTimeline,
            GuardConfig,
        )

        inp = self.inputs
        topology = TopologySpec.star(
            inp["racks"],
            rack_template=RackSpec(servers=inp["servers_per_rack"],
                                   server_model=inp["server_model"]),
        )
        self.fabric = topology.build()
        self.spec = ChaosSpec(
            spec_text=inp["spec_text"],
            slos=tuple(tuple(s) for s in inp["slos"]),
            topology=topology,
            timeline=FaultTimeline(
                events=tuple(FaultEvent(**e) for e in inp["events"]),
                seed=inp["chaos_seed"],
            ),
            packets_per_chain=inp["packets_per_chain"],
            flows_per_chain=inp["flows_per_chain"],
            batch_size=inp["batch_size"],
            guard=GuardConfig(window_packets=inp["window_packets"]),
            seed=inp["chaos_seed"],
        )
        # the warm-up run is the reference every timed run must render
        self.reference = None
        first = self.op()
        self.reference = first["render_sha"]
        return self.reference

    def op(self) -> dict:
        from repro.sim.interrack import run_fabric_chaos

        report = run_fabric_chaos(self.spec, self.fabric)
        return {
            "injected": report.total_injected,
            "ok": report.ok,
            "replans": report.replans,
            "infeasible_replans": sum(
                r.infeasible_replans for r in report.racks.values()
            ),
            "dropped_events": list(report.dropped_events),
            "render_sha": _sha(report.render()),
        }

    def fixed_ops(self) -> int:
        return FIXED_CHAOS_RUNS


WORKLOADS = {"replay-columnar": Replay, "fabric-chaos": Fabric}


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(work, count: int) -> dict:
    rows = []

    def step():
        rows.append(work.op())

    walls = common.timed_ops(step, count)
    out = {"walls_s": walls, "rows": rows,
           "peak_rss_mb": common.self_peak_rss_mb()}
    if isinstance(work, Replay):
        out["equivalence"] = work.equivalence()
    else:
        out["reference_sha"] = work.reference
    return out


def fixed(work) -> float:
    started = time.perf_counter()
    for _ in range(work.fixed_ops()):
        work.op()
    return time.perf_counter() - started


def trace(name: str, work_cls, inputs: dict, out_dir: str) -> dict:
    from layers import install, layer_metrics
    from repro.obs import scoped_registry
    from tracing import Tracer

    tracer = Tracer()
    # the import already happened; record it as the window's first span
    tracer.record("import repro", "import", T_START, T_START + IMPORT_S)
    install(tracer)
    with scoped_registry() as registry:
        work = work_cls(inputs)
        tracer.rid = "setup"
        with tracer.span("bench.setup", "bench"):
            work.setup()
        traced_started = time.perf_counter()
        for index in range(work.fixed_ops()):
            tracer.rid = index
            with tracer.span("bench.op", "bench"):
                work.op()
        t1 = time.perf_counter()
        traced_wall = t1 - traced_started
        snapshot = registry.snapshot()
    tracer.enabled = False
    untraced_wall = fixed(work)
    path = os.path.join(out_dir, f"trace-{name}.json")
    tracer.write_chrome(path, T_START, {"workload": name})
    metrics = layer_metrics(
        tracer, T_START, t1, [snapshot],
        import_s=IMPORT_S,
        obs_overhead_ratio=0.0,
        trace_overhead_ratio=traced_wall / untraced_wall,
    )
    return {"metrics": metrics, "untraced_wall_s": untraced_wall,
            "trace_file": path, "correct": True, "problems": []}


# ---------------------------------------------------------------------------
# serve-churn, traced in-process
# ---------------------------------------------------------------------------


def _serve_in_thread(config, state_dir: str):
    import threading

    from repro.serve import run_server

    box = {}
    ready = threading.Event()

    def _ready(url):
        box["url"] = url
        ready.set()

    def _main():
        try:
            box["report"] = run_server(config, state_dir, ready=_ready)
        except BaseException as exc:  # surfaced to the caller below
            box["error"] = exc
            ready.set()

    thread = threading.Thread(target=_main, name="serve-daemon", daemon=True)
    thread.start()
    if not ready.wait(common.READY_TIMEOUT_S) or "error" in box:
        raise common.BenchError(f"daemon did not start: {box.get('error')}")
    return thread, box["url"]


def _stop(thread, base: str) -> None:
    import serve_client

    serve_client.shutdown(base)
    thread.join(60)
    if thread.is_alive():
        raise common.BenchError("daemon thread did not stop")


def serve_fixed(inputs: dict, state_dir: str, on_span=None) -> dict:
    import serve_client

    config = serve_client.serve_config(inputs, pool="keep")
    thread, base = _serve_in_thread(config, state_dir)
    log = serve_client.StreamLog()
    started = time.perf_counter()
    for command in inputs["commands"][:FIXED_SERVE_COMMANDS]:
        serve_client.send(base, command, log, on_span)
    wall = time.perf_counter() - started
    return {"thread": thread, "base": base, "log": log, "wall": wall}


def serve_trace(inputs: dict, out_dir: str) -> dict:
    import shutil

    import serve_client
    from checks import check_digests
    from layers import install, layer_metrics
    from repro.obs import scoped_registry
    from repro.runtime.pool import shutdown_pool
    from tracing import Tracer

    tracer = Tracer()
    tracer.record("import repro", "import", T_START, T_START + IMPORT_S)
    install(tracer)
    problems = []
    acks = {}

    def on_span(index, ack):
        acks[index] = ack

    # the client-side request span: HTTP both ways plus daemon handling
    original_send = serve_client.request

    def traced_request(url, payload=None):
        if not url.endswith("/v1/commands"):
            return original_send(url, payload)
        index = len(acks)
        tracer.rid = index
        span = tracer.begin("serve.request", "serve")
        try:
            return original_send(url, payload)
        finally:
            tracer.finish(span)

    serve_client.request = traced_request
    try:
        with scoped_registry() as registry:
            live = tempfile.mkdtemp(dir=out_dir)
            crash = live + "-crash"
            run = serve_fixed(inputs, live, on_span)
            log = run["log"]
            problems.extend(log.problems)
            # the state a SIGKILL would leave right now: the journal is
            # fsynced before each ack and checkpoints are atomic renames
            shutil.copytree(live, crash)
            before = serve_client.state_digest(run["base"])
            _status, metrics_doc = serve_client.request(
                run["base"] + "/v1/metrics")
            _stop(run["thread"], run["base"])
            tracer.rid = "recover"
            thread, base = _serve_in_thread(
                serve_client.serve_config(inputs, pool="keep"), crash)
            after = serve_client.health(base)
            problems.extend(check_digests(
                "recovered", str(after.get("digest", "")), before))
            if not after.get("recovered"):
                problems.append("restarted daemon did not recover")
            _stop(thread, base)
            t1 = time.perf_counter()
            snapshot = registry.snapshot()
        ckpt = os.path.join(crash, "checkpoint.pkl")
        checkpoint_bytes = os.path.getsize(ckpt) if os.path.exists(ckpt) \
            else 0
        traced_wall = run["wall"]
        tracer.enabled = False
        serve_client.request = original_send
        plain = serve_fixed(inputs, tempfile.mkdtemp(dir=out_dir))
        _stop(plain["thread"], plain["base"])
        problems.extend(plain["log"].problems)
    finally:
        serve_client.request = original_send
        shutdown_pool()
    path = os.path.join(out_dir, "trace-serve-churn.json")
    tracer.write_chrome(path, T_START, {"workload": "serve-churn"})
    metrics = layer_metrics(
        tracer, T_START, t1, [snapshot, metrics_doc],
        import_s=IMPORT_S,
        http_pairs=acks,
        checkpoint_bytes=checkpoint_bytes,
        obs_overhead_ratio=0.0,
        trace_overhead_ratio=traced_wall / plain["wall"],
    )
    return {"metrics": metrics, "untraced_wall_s": plain["wall"],
            "trace_file": path, "correct": not problems,
            "problems": problems[:20]}


def serve_untraced(inputs: dict, out_dir: str) -> dict:
    from repro.runtime.pool import shutdown_pool

    try:
        run = serve_fixed(inputs, tempfile.mkdtemp(dir=out_dir))
        _stop(run["thread"], run["base"])
    finally:
        shutdown_pool()
    return {"untraced_wall_s": run["wall"],
            "correct": not run["log"].problems,
            "problems": run["log"].problems[:20]}


# ---------------------------------------------------------------------------


def main(argv) -> int:
    name, input_path, mode = argv[1], argv[2], argv[3]
    seconds = float(argv[4]) if len(argv) > 4 else 0.0
    with open(input_path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    out_dir = os.path.dirname(os.path.abspath(input_path))
    if name == "serve-churn":
        if mode == "trace":
            common.emit(serve_trace(inputs, out_dir))
        elif mode == "fixed":
            common.emit(serve_untraced(inputs, out_dir))
        else:
            raise SystemExit(f"serve-churn has no {mode!r} worker mode")
        return 0
    work_cls = WORKLOADS[name]
    if mode == "trace":
        common.emit(trace(name, work_cls, inputs, out_dir))
        return 0
    work = work_cls(inputs)
    digest = work.setup()
    if mode == "fixed":
        common.emit({"untraced_wall_s": fixed(work), "correct": True,
                     "problems": []})
        return 0
    sys.stdout.write(f"ready {digest}\n")
    sys.stdout.flush()
    if mode == "setup":
        sys.stdin.read()  # idle until the driver closes stdin or kills us
        return 0
    common.emit(measure(work, common.op_count(name, seconds)))
    sys.stdin.read()  # stay up until killed: the crash recover_s times
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
