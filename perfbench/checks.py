"""Correctness checks on what the program produced.

Each check is a pure function of recorded outputs and returns a list of
problems (empty when correct), so the benchmark's own tests can feed it
corrupted outputs and see it object. A failed check counts as a failed
operation in the run's ``failed`` total.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

#: HTTP statuses the serve stream may answer with: applied, or a typed
#: admission rejection (409), which is a correct answer.
SERVE_OK_STATUSES = (200, 409)


def check_replay_pass(row: dict) -> List[str]:
    """One columnar replay pass: every packet delivered and SLOs met."""
    problems = []
    if row["delivered"] != row["injected"]:
        problems.append(
            f"delivered {row['delivered']} of {row['injected']} packets"
        )
    if not row["ok"]:
        problems.append("replay report is not ok")
    return problems


def check_equivalence(pairs: Dict[str, dict]) -> List[str]:
    """Scalar replay of the same flow prefix stamps the same latencies,
    packet for packet, as the columnar path."""
    problems = []
    if not pairs:
        problems.append("no chains in the equivalence check")
    for chain, pair in sorted(pairs.items()):
        if pair["delivered_columnar"] != pair["delivered_scalar"]:
            problems.append(
                f"{chain}: columnar delivered {pair['delivered_columnar']}, "
                f"scalar {pair['delivered_scalar']}"
            )
        columnar, scalar = pair["columnar"], pair["scalar"]
        if len(columnar) != len(scalar):
            problems.append(
                f"{chain}: {len(columnar)} columnar stamps vs "
                f"{len(scalar)} scalar"
            )
            continue
        for index, (a, b) in enumerate(zip(columnar, scalar)):
            if a != b:
                problems.append(
                    f"{chain}: packet {index} stamped {a!r} columnar, "
                    f"{b!r} scalar"
                )
                break
    return problems


def check_chaos_run(row: dict, reference_sha: str) -> List[str]:
    """One fabric chaos run: ok, a feasible replan, no dropped fault
    event, and the same rendered report as every other run."""
    problems = []
    if not row["ok"]:
        problems.append("fabric chaos report is not ok")
    if row["replans"] - row["infeasible_replans"] < 1:
        problems.append("no feasible replan happened")
    if row["dropped_events"]:
        problems.append(f"fault events dropped: {row['dropped_events']}")
    if row["render_sha"] != reference_sha:
        problems.append("rendered report differs from the first run's")
    return problems


def check_serve_ack(status: int, body: dict) -> List[str]:
    """One serve command: applied or rejected, never invalid or an error."""
    if status not in SERVE_OK_STATUSES:
        return [f"HTTP {status}: {body.get('error', body)}"]
    expected = "applied" if status == 200 else "rejected"
    if body.get("status") != expected:
        return [f"HTTP {status} carries status {body.get('status')!r}"]
    return []


def check_digests(label: str, got: str, want: str) -> List[str]:
    if not got or got != want:
        return [f"{label}: digest {got[:12] or '<none>'} != "
                f"{want[:12] or '<none>'}"]
    return []


def check_counts_repeat(runs: Sequence[Dict[str, float]]) -> List[str]:
    """Obs counts recorded for identical work must be identical."""
    problems = []
    if not runs:
        return ["no counts recorded"]
    first = runs[0]
    for index, other in enumerate(runs[1:], start=1):
        for key in sorted(set(first) | set(other)):
            if first.get(key) != other.get(key):
                problems.append(
                    f"run {index}: {key} = {other.get(key)} vs "
                    f"{first.get(key)} in run 0"
                )
    return problems


def check_rejections_seen(statuses: Sequence[int]) -> List[str]:
    """The stream must exercise the rejection path at least once."""
    if 409 not in statuses:
        return ["no command was rejected: the rejection path never ran"]
    return []
