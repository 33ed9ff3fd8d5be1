"""Seeded input generation: the same seed always gives the same inputs.

The seed varies what a user of the system would vary without changing
how much work a run is (chain order and names, SLO floors, which server
fails and when, the command stream), so runs under different seeds are
comparable. Each generator returns a JSON-safe dict; the program under
test only ever sees these generated inputs.
"""

from __future__ import annotations

import random
from typing import Dict, List

# -- replay-columnar ---------------------------------------------------------

#: stateless mixes over ACL/BPF/Encrypt/FastEncrypt/IPv4Fwd: on the
#: SmartNIC rack three stay on the switch and one bounces through the
#: NIC and a server, and none needs the scalar fallback.
REPLAY_BODIES = (
    "ACL -> IPv4Fwd",
    "ACL -> BPF -> IPv4Fwd",
    "FastEncrypt -> Encrypt -> IPv4Fwd",
    "BPF -> ACL -> IPv4Fwd",
)
REPLAY_FLOWS = 1024
REPLAY_BATCH = 1024
#: packets per chain in one timed replay pass (two passes over the flows).
REPLAY_PACKETS = 2048
#: packets per chain in the scalar-vs-columnar equivalence check.
REPLAY_CHECK_PACKETS = 256


def replay_inputs(seed: int) -> Dict[str, object]:
    rng = random.Random(f"replay-columnar/{seed}")
    bodies = list(REPLAY_BODIES)
    rng.shuffle(bodies)
    lines = [f"chain t{i}x{rng.randrange(1000)}: {body}"
             for i, body in enumerate(bodies)]
    slos = [[round(rng.uniform(800.0, 1200.0), 1), 20000.0] for _ in bodies]
    return {
        "spec_text": "\n".join(lines) + "\n",
        "slos": slos,
        "topology": "paper-smartnic",
        "queueing": "mm1",
        "flows_per_chain": REPLAY_FLOWS,
        "batch_size": REPLAY_BATCH,
        "packets_per_chain": REPLAY_PACKETS,
        "check_packets": REPLAY_CHECK_PACKETS,
        "rack_seed": rng.randrange(1, 1 << 20),
    }


# -- serve-churn -------------------------------------------------------------

#: the two-chain spec the control-plane tests use; ``residential`` holds
#: NAT, so every traffic phase exercises a stateful NF.
SERVE_SPEC = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> IPv4Fwd\n"
)
SERVE_BASE = ("enterprise", "residential")
SERVE_FLAGS = [
    "--tmin", "1", "1", "--tmax", "20", "20",
    "--packets", "16", "--flows", "8", "--batch", "8",
    "--checkpoint-every", "5",
]
SERVE_CHECKPOINT_EVERY = 5
#: the daemon is killed when its journal holds this many commands past
#: the last checkpoint, so every recovery replays the same suffix.
SERVE_KILL_SUFFIX = 2
#: a scale-up this large never fits the testbed: the rejection path.
SERVE_HUGE_TMIN_MBPS = 400000.0
SERVE_ROUNDS = 80


#: every round holds this mix of lifecycle actions, so that the cost of
#: a run does not swing with how many chains a seed happens to admit.
SERVE_ROUND_MIX = {"arrive": 2, "scale": 2, "depart": 2}


def _round_timeline(rng: random.Random):
    """The first seeded random timeline with exactly the round's mix."""
    from repro.sim.lifecycle import LifecycleTimeline

    while True:
        timeline = LifecycleTimeline.random(
            rng.randrange(1 << 30), n_events=6, base_names=SERVE_BASE,
        )
        mix: Dict[str, int] = {}
        for event in timeline.events:
            mix[event.action] = mix.get(event.action, 0) + 1
        if mix == SERVE_ROUND_MIX:
            return timeline


def _serve_round(rng: random.Random, round_index: int) -> List[dict]:
    timeline = _round_timeline(rng)
    rename = {}
    commands: List[dict] = []
    for event in timeline.sorted_events():
        if event.action == "arrive":
            name = f"r{round_index}{event.chain}"
            rename[event.chain] = name
            body = event.spec.split(":", 1)[1].strip()
            commands.append({
                "kind": "arrive", "chain": name,
                "spec": f"chain {name}: {body}",
                "t_min_mbps": event.t_min_mbps,
                "t_max_mbps": event.t_max_mbps,
            })
        elif event.action == "scale":
            commands.append({
                "kind": "scale",
                "chain": rename.get(event.chain, event.chain),
                "t_min_mbps": event.t_min_mbps,
            })
        else:
            commands.append({
                "kind": "depart",
                "chain": rename.pop(event.chain, event.chain),
            })
    probes = [
        {"kind": "inject_fault", "action": "degrade_link",
         "target": "server0", "severity": round(rng.uniform(0.1, 0.4), 3)},
        {"kind": "inject_fault", "action": "restore_link",
         "target": "server0"},
    ]
    reject = {"kind": "scale", "chain": rng.choice(SERVE_BASE),
              "t_min_mbps": SERVE_HUGE_TMIN_MBPS}
    at = sorted(rng.sample(range(len(commands) + 1), 2))
    commands.insert(at[1], probes[1])
    commands.insert(at[0], probes[0])
    commands.insert(rng.randrange(len(commands) + 1), reject)
    # leave the rack as the round found it: depart what is still here
    commands.extend({"kind": "depart", "chain": name}
                    for name in sorted(rename.values()))
    return commands


def serve_inputs(seed: int) -> Dict[str, object]:
    rng = random.Random(f"serve-churn/{seed}")
    commands: List[dict] = []
    for round_index in range(SERVE_ROUNDS):
        commands.extend(_serve_round(rng, round_index))
    return {
        "spec_text": SERVE_SPEC,
        "flags": list(SERVE_FLAGS),
        "commands": commands,
    }


# -- fabric-chaos ------------------------------------------------------------

FABRIC_CHAINS = 18
FABRIC_RACKS = 3
FABRIC_PACKETS = 128
FABRIC_WINDOW = 32
_FABRIC_STATELESS = ("ACL -> Encrypt -> IPv4Fwd",
                     "ACL(rules=64) -> Encrypt -> IPv4Fwd")
_FABRIC_STATEFUL = ("Monitor -> IPv4Fwd", "BPF -> NAT -> IPv4Fwd")


def fabric_inputs(seed: int) -> Dict[str, object]:
    rng = random.Random(f"fabric-chaos/{seed}")
    lines = []
    slos = []
    for i in range(FABRIC_CHAINS):
        if i % 3 == 2:  # a third of the chains are stateful
            body, t_min = _FABRIC_STATEFUL[(i // 3) % 2], 1000.0
        else:
            body, t_min = _FABRIC_STATELESS[i % 2], 2000.0
        lines.append(f"chain c{i}: {body}")
        slos.append([t_min, 2.0 * t_min, 400.0])
    # one loaded server fails per rack, never recovered: the guard must
    # shed and then replan the rack onto its other server
    events = []
    for rack in range(FABRIC_RACKS):
        events.append({
            "at_packet": rng.randrange(48, 112),
            "action": "fail",
            "target": f"r{rack}.server{rng.randrange(2)}",
            "severity": 1.0,
        })
    return {
        "spec_text": "\n".join(lines) + "\n",
        "slos": slos,
        "racks": FABRIC_RACKS,
        "servers_per_rack": 2,
        "server_model": "eight-core",
        "events": events,
        "packets_per_chain": FABRIC_PACKETS,
        "flows_per_chain": 16,
        "batch_size": 16,
        "window_packets": FABRIC_WINDOW,
        "chaos_seed": rng.randrange(1, 1000),
    }


GENERATORS = {
    "replay-columnar": replay_inputs,
    "serve-churn": serve_inputs,
    "fabric-chaos": fabric_inputs,
}
