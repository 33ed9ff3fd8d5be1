"""The closed-loop HTTP client for ``repro serve`` and its reference.

One client sends one command, waits for the acknowledgement, then sends
the next: a closed loop with a single client over the loopback
interface. :func:`reference_digest` replays the acknowledged commands
through an in-process :class:`~repro.sim.admission.AdmissionCore`, with
no daemon, journal, pool or HTTP in the way, and returns the state
digest the daemon must agree with.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request
from typing import Callable, List, Optional, Tuple

from checks import check_serve_ack

READY_PREFIX = "repro-serve listening on "
HTTP_TIMEOUT_S = 120.0


def request(url: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data)
    try:
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        body = exc.read()
        try:
            return exc.code, json.loads(body)
        except ValueError:
            return exc.code, {"error": body.decode(errors="replace")}


class StreamLog:
    """What the client sent and what came back, in order."""

    def __init__(self):
        self.acks_s: List[float] = []
        self.statuses: List[int] = []
        #: commands that consumed a sequence number (applied or rejected).
        self.journaled: List[dict] = []
        self.problems: List[str] = []
        self.failed = 0
        self.last_seq = 0

    @property
    def attempted(self) -> int:
        return len(self.statuses)


def send(base: str, command: dict, log: StreamLog,
         on_span: Optional[Callable[[int, float], None]] = None) -> dict:
    started = time.perf_counter()
    status, body = request(base + "/v1/commands", command)
    ack = time.perf_counter() - started
    log.acks_s.append(ack)
    log.statuses.append(status)
    problems = check_serve_ack(status, body)
    if problems:
        log.failed += 1
        log.problems.extend(problems)
    elif body.get("seq") != log.last_seq + 1:
        log.failed += 1
        log.problems.append(
            f"seq {body.get('seq')} after {log.last_seq}: not journaled"
        )
    else:
        log.last_seq = body["seq"]
        log.journaled.append(command)
    if on_span is not None:
        on_span(len(log.statuses) - 1, ack)
    return body


def state_digest(base: str) -> str:
    status, body = request(base + "/v1/state")
    if status != 200:
        return ""
    return str(body.get("digest", ""))


def health(base: str) -> dict:
    _status, body = request(base + "/v1/health")
    return body


def shutdown(base: str) -> None:
    request(base + "/v1/shutdown", {})


def serve_config(inputs: dict, pool: str):
    """The daemon configuration the CLI flags in ``inputs`` describe."""
    from repro.serve import ServeConfig

    flags = inputs["flags"]

    def values(flag: str, n: int) -> List[str]:
        at = flags.index(flag)
        return flags[at + 1:at + 1 + n]

    tmin = [float(v) * 1000.0 for v in values("--tmin", 2)]
    tmax = [float(v) * 1000.0 for v in values("--tmax", 2)]
    return ServeConfig(
        spec_text=inputs["spec_text"],
        slos=tuple((lo, hi, math.inf) for lo, hi in zip(tmin, tmax)),
        packets_per_phase=int(values("--packets", 1)[0]),
        flows_per_chain=int(values("--flows", 1)[0]),
        batch_size=int(values("--batch", 1)[0]),
        checkpoint_every=int(values("--checkpoint-every", 1)[0]),
        pool=pool,
    )


def reference_digest(inputs: dict, journaled: List[dict]) -> str:
    """Replay ``journaled`` through an in-process admission core."""
    from repro.obs import MetricsRegistry
    from repro.serve import InjectFault, parse_command
    from repro.sim.interrack import make_admission_core

    config = serve_config(inputs, pool="per-run")
    core = make_admission_core(
        config.build_chains(),
        topology=config.build_topology(),
        strategy=config.strategy,
        flows_per_chain=config.flows_per_chain,
        batch_size=config.batch_size,
        seed=config.seed,
        registry=MetricsRegistry(),
        pool="per-run",
        queueing=config.queueing,
        objective=config.objective,
    )
    core.bootstrap()
    core.run_phase("initial", config.packets_per_phase, index=0)
    for seq, payload in enumerate(journaled, start=1):
        command = parse_command(payload)
        if isinstance(command, InjectFault):
            core.apply_fault(command.action, command.target,
                             command.severity)
        else:
            core.process(command.to_event(at=seq))
        core.run_phase(f"s{seq}", config.packets_per_phase, index=seq)
    return core.state_digest()
