"""Pool-reuse equivalence: the persistent runtime must be invisible.

The contract for the worker runtime: a sharded traffic replay produces a
byte-identical :class:`~repro.sim.traffic.TrafficReport` whether it runs
(a) serially or (b) on the persistent pool reused across consecutive
phases — and (c) a redeploy (artifact fingerprint change) must
invalidate or delta-update the warm rack, never reuse it stale.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.runtime.pool import get_pool, shutdown_pool
from repro.sim.traffic import TrafficSpec, run_traffic

SPEC_A = "\n".join([
    "chain c1: ACL -> NAT",
    "chain c2: ACL -> Monitor",
    "chain c3: NAT -> IPv4Fwd",
    "chain c4: ACL -> IPv4Fwd",
])
SLOS_A = ((100.0, 200.0),) * 4

#: same chain names and count, different bodies — compiles to different
#: artifacts, so the bundle fingerprint changes.
SPEC_B = "\n".join([
    "chain c1: ACL -> Encrypt -> IPv4Fwd",
    "chain c2: NAT -> Monitor",
    "chain c3: BPF -> IPv4Fwd",
    "chain c4: NAT -> IPv4Fwd",
])
SLOS_B = ((100.0, 200.0),) * 4


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a lingering shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _replay(spec_text, slos, *, shards, vectorized=True):
    registry = MetricsRegistry()
    report = run_traffic(
        TrafficSpec(
            spec_text=spec_text, slos=slos,
            packets_per_chain=192, flows_per_chain=16, batch_size=32,
            vectorized=vectorized, shards=shards,
        ),
        registry=registry,
    )
    return report.to_json(), registry


def _rack_builds(registry):
    return {
        c["labels"]["mode"]: c["value"]
        for c in registry.snapshot()["counters"]
        if c["name"] == "runtime.rack_builds"
    }


def test_serial_and_persistent_pools_agree():
    serial, serial_reg = _replay(SPEC_A, SLOS_A, shards=1)
    persistent, keep_reg = _replay(SPEC_A, SLOS_A, shards=2)
    assert serial == persistent
    # the serial replay never touches the warm-rack cache
    assert _rack_builds(serial_reg) == {}
    # the persistent pool deployed at least one rack cold
    assert _rack_builds(keep_reg).get("cold", 0) >= 1


def test_persistent_pool_reused_across_three_phases():
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    reports, warm_total = [], 0
    for _phase in range(3):
        report, registry = _replay(SPEC_A, SLOS_A, shards=2)
        reports.append(report)
        warm_total += _rack_builds(registry).get("warm", 0)
    assert all(report == serial for report in reports)
    # later phases must have found warm racks (same artifact fingerprint)
    assert warm_total >= 2


def test_scalar_path_agrees_too():
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1,
                        vectorized=False)
    persistent, _ = _replay(SPEC_A, SLOS_A, shards=2,
                            vectorized=False)
    assert serial == persistent


def test_redeploy_invalidates_warm_rack():
    # warm the pool's racks on spec A ...
    _replay(SPEC_A, SLOS_A, shards=2)
    # ... then replay spec B (different artifacts, same chain names):
    # the cached rack must be delta-redeployed, not reused stale
    pooled_b, registry_b = _replay(SPEC_B, SLOS_B, shards=2)
    serial_b, _ = _replay(SPEC_B, SLOS_B, shards=1)
    assert pooled_b == serial_b
    builds = _rack_builds(registry_b)
    # every worker's cached A-rack had to be rebuilt or delta-updated;
    # warm hits may still appear when a later shard reuses a slot the
    # same replay already brought up to date (e.g. one worker, two
    # shards), but never before a delta/cold build on that worker.
    assert builds.get("delta", 0) + builds.get("cold", 0) >= 1
    # and switching back also refuses the stale rack
    pooled_a, registry_a = _replay(SPEC_A, SLOS_A, shards=2)
    serial_a, _ = _replay(SPEC_A, SLOS_A, shards=1)
    assert pooled_a == serial_a
    builds_a = _rack_builds(registry_a)
    assert builds_a.get("delta", 0) + builds_a.get("cold", 0) >= 1


def test_killed_workers_recover():
    """Respawned workers (lost caches, cleared shipped-set) still produce
    identical reports — the payload simply ships again."""
    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    first, _ = _replay(SPEC_A, SLOS_A, shards=2)
    pool = get_pool()
    for proc in list(pool._procs):
        proc.terminate()
        proc.join(timeout=5.0)
    second, _ = _replay(SPEC_A, SLOS_A, shards=2)
    assert first == second == serial


def test_stale_artifact_retry_reships_payload():
    """When the parent wrongly believes a worker caches the bundle (e.g.
    a restart raced the bookkeeping), the worker's typed stale error must
    trigger a single payload re-ship, not a failed run."""
    import pickle

    from repro.runtime.rackcache import bundle_fingerprint
    from repro.sim.traffic import TrafficEngine

    serial, _ = _replay(SPEC_A, SLOS_A, shards=1)
    registry = MetricsRegistry()
    engine = TrafficEngine.from_spec(
        TrafficSpec(
            spec_text=SPEC_A, slos=SLOS_A,
            packets_per_chain=192, flows_per_chain=16, batch_size=32,
            vectorized=True, shards=2,
        ),
        registry=registry,
    )
    rack = engine.rack
    payload = pickle.dumps((rack.topology, rack.artifacts, rack.profiles,
                            engine.placement))
    fingerprint = bundle_fingerprint(payload)
    pool = get_pool(2)
    for worker in range(pool.max_workers):
        pool.needs_payload(worker, fingerprint)  # lie: mark as shipped
    report = engine.run(packets_per_chain=192)
    assert report.to_json() == serial
