"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``.
``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the separate traced run and reports the per-layer
metrics. The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Scratch files go under ``.perfbench/`` in the checkout; traced runs keep
their Chrome trace-event files in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from catalog import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS  # noqa: E402
from checks import (  # noqa: E402
    check_chaos_run,
    check_digests,
    check_equivalence,
    check_rejections_seen,
    check_replay_pass,
)

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "worker.py")
#: cold starts timed per run for ``setup_s`` and restarts for
#: ``recover_s``; each metric reports the median of its samples.
SETUP_SAMPLES = 3
RECOVER_SAMPLES = 3
#: the whole run must finish well inside the driver's 180 s limit.
DEADLINE_S = 170

_children = []


def _spawn(args, **kwargs):
    proc = common.spawn(args, **kwargs)
    _children.append(proc)
    return proc


def _reap_all() -> None:
    for proc in _children:
        if proc.poll() is None:
            common.kill_group(proc)
        common.wait_group_gone(proc.pid)


class Tally:
    """Attempted and failed operations, plus what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def _worker(name, input_path, mode, *extra, stdin=subprocess.DEVNULL,
            env=None):
    return _spawn([sys.executable, WORKER, name, input_path, mode,
                   *map(str, extra)], stdin=stdin, env=env)


def _finish(proc, timeout=60.0) -> None:
    """Let a child exit on its own, draining its pipes."""
    if proc.stdin is not None and proc.stdin.closed:
        proc.stdin = None
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        common.kill_group(proc)
    common.wait_group_gone(proc.pid)


# ---------------------------------------------------------------------------
# replay-columnar and fabric-chaos: the work runs in a worker process
# ---------------------------------------------------------------------------


def run_worker_workload(name: str, input_path: str, seconds: float):
    tally = Tally()
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        started = time.perf_counter()
        proc = _worker(name, input_path, "setup", stdin=subprocess.PIPE)
        ready_s, _digest = common.wait_ready(proc, "ready ", started)
        setups.append(ready_s)
        proc.stdin.close()
        _finish(proc)

    started = time.perf_counter()
    proc = _worker(name, input_path, "measure", seconds,
                   stdin=subprocess.PIPE)
    ready_s, digest = common.wait_ready(proc, "ready ", started)
    setups.append(ready_s)
    result = common.read_json_line(proc, DEADLINE_S)
    walls = result["walls_s"]
    rows = result["rows"]
    if name == "replay-columnar":
        for row in rows:
            tally.add(check_replay_pass(row))
        tally.add(check_equivalence(result["equivalence"]))
        packets = sum(row["delivered"] for row in rows)
    else:
        for row in rows:
            tally.add(check_chaos_run(row, result["reference_sha"]))
        packets = sum(row["injected"] for row in rows)

    # recover_s: SIGKILL the working process, start a new one, and time
    # it until ready; nothing persists, so it must rebuild the same state
    recovers = []
    for _ in range(RECOVER_SAMPLES):
        started = time.perf_counter()
        common.kill_group(proc)
        proc = _worker(name, input_path, "setup", stdin=subprocess.PIPE)
        ready_s, restarted = common.wait_ready(proc, "ready ", started)
        recovers.append(ready_s)
        tally.add(check_digests("restarted worker", restarted, digest))
    common.kill_group(proc)

    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "pps": packets / sum(walls),
        **common.ops_summary(walls),
        "recover_s": common.median(recovers),
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# serve-churn: a real daemon subprocess driven over HTTP
# ---------------------------------------------------------------------------


def run_serve(inputs: dict, workdir: str, seconds: float):
    import inputs as inputs_mod
    import serve_client as sc

    spec_path = os.path.join(workdir, "chains.lemur")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(inputs["spec_text"])

    def start(state_dir, started):
        proc = _spawn([sys.executable, "-m", "repro", "serve", spec_path,
                       *inputs["flags"], "--state-dir", state_dir,
                       "--port", "0"])
        ready_s, url = common.wait_ready(proc, sc.READY_PREFIX, started)
        return proc, url, ready_s

    tally = Tally()
    setups = []
    for index in range(SETUP_SAMPLES - 1):
        proc, base, ready_s = start(os.path.join(workdir, f"setup{index}"),
                                    time.perf_counter())
        setups.append(ready_s)
        sc.shutdown(base)
        _finish(proc)

    live = os.path.join(workdir, "live")
    proc, base, ready_s = start(live, time.perf_counter())
    setups.append(ready_s)
    commands = inputs["commands"]
    log = sc.StreamLog()
    started = time.perf_counter()
    cursor = 0

    def next_command():
        nonlocal cursor
        if cursor >= len(commands):
            raise common.BenchError("the generated command stream ran out")
        cursor += 1
        return commands[cursor - 1]

    for _ in range(common.op_count("serve-churn", seconds)):
        sc.send(base, next_command(), log)
    # stop where the journal holds the same suffix past the last
    # checkpoint, so every recovery replays the same amount of work
    while log.last_seq % inputs_mod.SERVE_CHECKPOINT_EVERY != \
            inputs_mod.SERVE_KILL_SUFFIX:
        sc.send(base, next_command(), log)
    stream_wall = time.perf_counter() - started
    tally.attempted += log.attempted
    tally.failed += log.failed
    tally.problems.extend(log.problems)
    tally.add(check_rejections_seen(log.statuses))

    _status, report = sc.request(base + "/v1/report")
    packets = sum(row["injected"] for phase in report["phases"][1:]
                  for row in phase["chains"])
    before = sc.state_digest(base)
    rss = common.peak_rss_mb(proc.pid)

    recovers = []
    for _ in range(RECOVER_SAMPLES):
        started = time.perf_counter()
        common.kill_group(proc)
        common.wait_group_gone(proc.pid)
        proc, base, ready_s = start(live, started)
        recovers.append(ready_s)
        health = sc.health(base)
        tally.add(check_digests("recovered daemon",
                                str(health.get("digest", "")), before))
    tally.add(check_digests("final state", sc.state_digest(base), before))
    sc.shutdown(base)
    _finish(proc)
    tally.add(check_digests("in-process replay",
                            sc.reference_digest(inputs, log.journaled),
                            before))

    metrics = {
        "setup_s": common.median(setups),
        "peak_rss_mb": rss,
        "pps": packets / stream_wall,
        **common.ops_summary(log.acks_s),
        "recover_s": common.median(recovers),
    }
    return tally, metrics


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def run_trace(name: str, input_path: str):
    tally = Tally()
    proc = _worker(name, input_path, "fixed",
                   env=common.child_env(REPRO_OBS="0"))
    obs_off = common.read_json_line(proc, 150)
    _finish(proc)
    tally.add(obs_off["problems"])
    proc = _worker(name, input_path, "trace")
    traced = common.read_json_line(proc, 150)
    _finish(proc)
    tally.add(traced["problems"])
    metrics = dict(traced["metrics"])
    metrics["obs.overhead_ratio"] = (traced["untraced_wall_s"]
                                     / obs_off["untraced_wall_s"])
    keep = os.path.join(common.WORK, "traces")
    os.makedirs(keep, exist_ok=True)
    shutil.copy(traced["trace_file"], keep)
    return tally, metrics


# ---------------------------------------------------------------------------


def _on_deadline(_signum, _frame):
    raise common.BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    workdir = None
    try:
        common.use_source()
        import inputs as inputs_mod

        inputs = inputs_mod.GENERATORS[args.workload](args.seed)
        os.makedirs(common.WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                                   dir=common.WORK)
        input_path = os.path.join(workdir, "inputs.json")
        with open(input_path, "w", encoding="utf-8") as fh:
            json.dump(inputs, fh)
        if args.trace:
            tally, values = run_trace(args.workload, input_path)
            units = PER_LAYER_UNITS
        elif args.workload == "serve-churn":
            tally, values = run_serve(inputs, workdir, args.seconds)
            units = END_TO_END_UNITS
        else:
            tally, values = run_worker_workload(args.workload, input_path,
                                                args.seconds)
            units = END_TO_END_UNITS
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        _reap_all()
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    missing = set(units) - set(values)
    if missing:
        print(f"perfbench: metrics not measured: {sorted(missing)}",
              file=sys.stderr)
        return 2
    for problem in tally.problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
