"""Unit tests for the persistent worker pool and shm transport."""

import os
import pickle
import time

import numpy as np
import pytest

from repro.exceptions import WorkerPoolError
from repro.obs import scoped_registry
from repro.runtime.pool import (
    PoolCall,
    WorkerPool,
    default_worker_count,
    get_pool,
    shutdown_pool,
)
from repro.runtime.rackcache import (
    ArtifactBundle,
    StaleArtifactsError,
    bundle_fingerprint,
    resolve_bundle,
)
from repro.runtime.shm import ShmArrays


# -- worker entry points (must be importable by name) ------------------------


def _square(x):
    return x * x


def _pid(_arg):
    return os.getpid()


def _boom(message):
    raise ValueError(message)


def _nested_pool(_arg):
    get_pool()


@pytest.fixture()
def pool():
    p = WorkerPool(max_workers=2)
    yield p
    p.shutdown()


def test_dispatch_restores_submission_order(pool):
    calls = [PoolCall(_square, n) for n in range(8)]
    assert pool.dispatch(calls) == [n * n for n in range(8)]


def test_single_call(pool):
    assert pool.call(_square, 7) == 49


def test_affinity_pins_to_one_worker(pool):
    pids = pool.dispatch(
        [PoolCall(_pid, None, affinity="session-a") for _ in range(6)]
    )
    assert len(set(pids)) == 1


def test_worker_error_raises_typed(pool):
    with pytest.raises(WorkerPoolError) as excinfo:
        pool.dispatch([PoolCall(_boom, "kaput")])
    assert excinfo.value.remote_type == "ValueError"
    assert "kaput" in str(excinfo.value)
    assert "ValueError" in excinfo.value.remote_trace


def test_return_exceptions_keeps_slots(pool):
    outcomes = pool.dispatch(
        [PoolCall(_square, 3), PoolCall(_boom, "x"), PoolCall(_square, 4)],
        return_exceptions=True,
    )
    assert outcomes[0] == 9
    assert isinstance(outcomes[1], WorkerPoolError)
    assert outcomes[2] == 16


def test_pool_survives_worker_errors(pool):
    with pytest.raises(WorkerPoolError):
        pool.dispatch([PoolCall(_boom, "first")])
    assert pool.dispatch([PoolCall(_square, 5)]) == [25]


def test_dead_worker_respawns(pool):
    pool.dispatch([PoolCall(_square, 1)])
    for proc in pool._procs:
        proc.terminate()
        proc.join(timeout=5.0)
    assert pool.dispatch([PoolCall(_square, 6)]) == [36]


def test_respawn_clears_shipped_payloads(pool):
    workers = pool.plan(1)
    assert pool.needs_payload(workers[0], "fp-1") is True
    assert pool.needs_payload(workers[0], "fp-1") is False
    pool._procs[workers[0]].terminate()
    pool._procs[workers[0]].join(timeout=5.0)
    pool.dispatch([PoolCall(_square, 2)])  # triggers respawn
    assert pool.needs_payload(workers[0], "fp-1") is True


def test_unpicklable_task_raises_before_dispatch(pool):
    started = time.monotonic()
    with pytest.raises(WorkerPoolError, match="not picklable"):
        pool.dispatch([PoolCall(len, lambda: 1)], timeout=5)
    assert time.monotonic() - started < 1.0
    # nothing was enqueued: the next call is served normally
    assert pool.call(_square, 9) == 81


def test_nested_pools_forbidden(pool):
    with pytest.raises(WorkerPoolError) as excinfo:
        pool.dispatch([PoolCall(_nested_pool, None)])
    assert excinfo.value.remote_type == "WorkerPoolError"


def test_shutdown_rejects_further_dispatch():
    p = WorkerPool(max_workers=1)
    p.shutdown()
    with pytest.raises(WorkerPoolError):
        p.dispatch([PoolCall(_square, 1)])


def test_default_worker_count_caps_at_cores():
    cores = os.cpu_count() or 1
    assert default_worker_count(None) == cores
    assert default_worker_count(10_000) == cores
    assert default_worker_count(1) == 1
    assert default_worker_count(0) == cores


def test_shared_pool_reused_and_shut_down():
    first = get_pool(1)
    assert get_pool() is first
    shutdown_pool()
    second = get_pool(1)
    assert second is not first
    shutdown_pool()


# -- artifact bundle protocol ------------------------------------------------


def test_bundle_roundtrip_and_stale_detection():
    payload = pickle.dumps(("topology", "artifacts", "profiles"))
    fingerprint = bundle_fingerprint(payload)
    resolved = resolve_bundle(ArtifactBundle(fingerprint, payload))
    assert resolved == ("topology", "artifacts", "profiles")
    # cached: payload no longer needed
    again = resolve_bundle(ArtifactBundle(fingerprint, None))
    assert again is resolved
    with pytest.raises(StaleArtifactsError):
        resolve_bundle(ArtifactBundle("never-shipped", None))


# -- shared-memory transport -------------------------------------------------


def test_shm_pack_attach_roundtrip():
    arrays = {
        "sig": np.arange(100, dtype=np.int64),
        "weights": np.linspace(0.0, 1.0, 7),
    }
    packed = ShmArrays.pack(arrays, min_bytes=0)
    try:
        views, handle = packed.attach()
        assert np.array_equal(views["sig"], arrays["sig"])
        assert np.array_equal(views["weights"], arrays["weights"])
        ShmArrays.detach(handle)
        owned = packed.arrays()
        assert np.array_equal(owned["sig"], arrays["sig"])
    finally:
        packed.release()


def test_shm_descriptor_pickles_without_owner():
    packed = ShmArrays.pack({"sig": np.arange(10, dtype=np.int64)},
                            min_bytes=0)
    try:
        clone = pickle.loads(pickle.dumps(packed))
        assert clone._owner is None
        assert clone.segment == packed.segment
        assert np.array_equal(clone.arrays()["sig"], np.arange(10))
    finally:
        packed.release()


def test_shm_bytes_gauge_balances():
    with scoped_registry() as registry:
        packed = ShmArrays.pack({"sig": np.arange(64, dtype=np.int64)},
                                min_bytes=0)
        gauges = {
            g["name"]: g["value"] for g in registry.snapshot()["gauges"]
        }
        if packed.segment is not None:  # shm available on this platform
            assert gauges["runtime.shm.bytes"] >= 64 * 8
        packed.release()
        gauges = {
            g["name"]: g["value"] for g in registry.snapshot()["gauges"]
        }
        assert gauges.get("runtime.shm.bytes", 0) == 0


def test_shm_inline_fallback(monkeypatch):
    monkeypatch.setattr("repro.runtime.shm._shm", None)
    packed = ShmArrays.pack({"sig": np.arange(32, dtype=np.int64)},
                            min_bytes=0)
    assert packed.segment is None
    assert packed.inline is not None
    views, handle = packed.attach()
    assert np.array_equal(views["sig"], np.arange(32))
    ShmArrays.detach(handle)
    packed.release()  # no-op without a live segment


def test_shm_small_payloads_ride_inline():
    """Below the size threshold a segment's syscall cost loses to a
    pickle, so small schedules stay in-band."""
    packed = ShmArrays.pack({"sig": np.arange(16, dtype=np.int64)})
    assert packed.segment is None
    assert np.array_equal(packed.arrays()["sig"], np.arange(16))
    from repro.runtime.shm import SHM_MIN_BYTES

    big = np.zeros(SHM_MIN_BYTES, dtype=np.uint8)
    packed_big = ShmArrays.pack({"cols": big})
    try:
        if packed_big.segment is not None:  # shm usable on this platform
            assert packed_big.inline is None
    finally:
        packed_big.release()
