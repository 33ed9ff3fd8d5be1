"""Shared helpers: statistics, child processes, memory readings.

Everything here is standard library only, so the driver can start (and
fail cleanly) in a directory that holds nothing but the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: the checkout root: the driver runs ``perfbench/run.py`` from there.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: scratch space for state dirs, inputs and traces (ignored by git).
WORK = ROOT / ".perfbench"

#: every run makes at least this many operations, so the 90th
#: percentile has at least 10 samples beyond it.
MIN_OPS = 100
#: operations per ``--seconds`` of run length, per workload: about the
#: rate each reaches on a 2-CPU x86 container. The work of a run is fixed
#: by ``--seconds`` (not by how fast the program is), so a faster
#: program finishes the same work sooner and its state grows the same.
OPS_PER_SECOND = {"replay-columnar": 20, "serve-churn": 40,
                  "fabric-chaos": 4}
#: how long a child may take to print its ready line.
READY_TIMEOUT_S = 90.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a wrong output)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated ``q``-th percentile (0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    virtual = q / 100.0 * (len(ordered) - 1)
    lo = int(math.floor(virtual))
    hi = min(lo + 1, len(ordered) - 1)
    frac = virtual - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def tail_percentile(count: int) -> int:
    """The highest of 99/90/75/50 with at least 10 samples beyond it."""
    for q in (99, 90, 75, 50):
        if count * (100 - q) / 100.0 >= 10:
            return q
    return 50


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles``."""
    import statistics

    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")


# ---------------------------------------------------------------------------
# environment and child processes
# ---------------------------------------------------------------------------


def require_source() -> None:
    """Refuse to run anywhere but a checkout holding the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no program source under {SRC}: run from the root of a "
            "checkout of the repository"
        )


def use_source() -> None:
    """Import ``repro`` from this checkout's ``src`` in this process."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(**extra: str) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update(extra)
    return env


def spawn(args: List[str], *, env: Optional[Dict[str, str]] = None,
          stdin=subprocess.DEVNULL) -> subprocess.Popen:
    """Start a child in its own process group, so that killing the group
    also reaches any worker processes it starts."""
    return subprocess.Popen(
        args,
        stdin=stdin,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(ROOT),
        env=env or child_env(),
        start_new_session=True,
    )


def wait_ready(proc: subprocess.Popen, prefix: str,
               started: float) -> Tuple[float, str]:
    """Block until the child prints a line starting with ``prefix``.

    Returns ``(seconds since started, rest of the line)``. The read is
    bounded by :data:`READY_TIMEOUT_S` through a timer that kills the
    child, so a hung child cannot hang the benchmark.
    """
    import threading

    timer = threading.Timer(READY_TIMEOUT_S, kill_group, args=(proc,))
    timer.start()
    try:
        while True:
            line = proc.stdout.readline()
            if not line:
                err = proc.stderr.read() if proc.stderr else ""
                raise BenchError(
                    f"child {proc.args[:4]} exited before ready "
                    f"(code {proc.poll()}): {err.strip()[-2000:]}"
                )
            if line.startswith(prefix):
                return time.perf_counter() - started, \
                    line[len(prefix):].strip()
    finally:
        timer.cancel()


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's whole process group and reap the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - kernel stuck
        pass
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            try:
                stream.close()
            except OSError:
                pass


def wait_group_gone(pgid: int, timeout: float = 30.0) -> None:
    """Wait until no process of group ``pgid`` is left (workers included)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.02)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return kids
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        kids.extend(int(tok) for tok in text.split())
    return kids


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of ``pid`` plus its descendants, MB."""
    total_kb = 0
    stack = [pid]
    seen = set()
    while stack:
        current = stack.pop()
        if current in seen:
            continue
        seen.add(current)
        try:
            for line in Path(f"/proc/{current}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
        stack.extend(_children(current))
    if total_kb <= 0:
        raise BenchError(f"cannot read peak memory of pid {pid}")
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_count(workload: str, seconds: float) -> int:
    """How many operations a run of ``seconds`` makes."""
    return max(MIN_OPS, int(round(OPS_PER_SECOND[workload] * seconds)))


def timed_ops(step, count: int) -> List[float]:
    """Call ``step()`` ``count`` times; return each call's wall seconds."""
    samples: List[float] = []
    for _ in range(count):
        t0 = time.perf_counter()
        step()
        samples.append(time.perf_counter() - t0)
    return samples


def emit(payload: dict) -> None:
    """Print one JSON line on stdout and flush (the child protocol)."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()


def read_json_line(proc: subprocess.Popen, timeout: float) -> dict:
    """Read the child's next JSON line within ``timeout`` seconds."""
    import threading

    timer = threading.Timer(timeout, kill_group, args=(proc,))
    timer.start()
    try:
        while True:
            line = proc.stdout.readline()
            if not line:
                err = proc.stderr.read() if proc.stderr else ""
                raise BenchError(
                    f"child exited without a result (code {proc.poll()}): "
                    f"{err.strip()[-2000:]}"
                )
            line = line.strip()
            if line.startswith("{"):
                return json.loads(line)
    finally:
        timer.cancel()


def ops_summary(samples_s: Iterable[float]) -> Dict[str, float]:
    """Median and 90th percentile of per-operation walls, in ms."""
    values = [s * 1000.0 for s in samples_s]
    if len(values) < MIN_OPS:
        raise BenchError(
            f"only {len(values)} operations; the 90th percentile needs "
            f"{MIN_OPS}"
        )
    return {
        "op_p50_ms": median(values),
        "op_p90_ms": percentile(values, 90),
        "ops": len(values),
    }
