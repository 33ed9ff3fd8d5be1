"""The rack lives in the daemon process, and older state dirs still recover.

Earlier daemons could host the rack in a worker-pool session: their
``config.json`` carries a ``pool`` field and their checkpointed core
carries the rack as pickled bytes next to ``rack=None``. Both must keep
recovering to the digest the original run reached.
"""

import json
import multiprocessing
import pickle
import threading

import pytest

import repro.runtime.pool as pool_mod
from repro.exceptions import LifecycleError, ServeError
from repro.serve import (
    Arrive,
    CheckpointStore,
    Depart,
    InjectFault,
    Scale,
)
from repro.sim.interrack import make_admission_core

COMMANDS = [
    Arrive(chain="dyn0", spec="chain dyn0: ACL -> IPv4Fwd",
           t_min_mbps=500.0, t_max_mbps=4000.0),
    Scale(chain="enterprise", t_min_mbps=1500.0),
    InjectFault(action="degrade_link", target="server0", severity=0.4),
    Depart(chain="dyn0"),
    InjectFault(action="restore_link", target="server0"),
]


def _as_pooled_checkpoint(path):
    """Reshape a checkpoint into the layout a worker-hosted rack wrote."""
    store = CheckpointStore(path)
    state = store.load()
    core = state["core"]
    vars(core).update(
        pool="keep",
        _session_id="core-1-0",
        _rack_seq=core.rack._next_seq,
        _rack_bytes=pickle.dumps(core.rack),
        rack=None,
        traffic=None,
    )
    store.save(state)


def test_pooled_checkpoint_recovers_same_digest(make_config, drive,
                                                tmp_path):
    config = make_config(checkpoint_every=2)
    reference, ref_outcomes = drive(config, tmp_path / "reference",
                                    COMMANDS)
    state = tmp_path / "state"
    drive(config, state, COMMANDS[:2], crash=True)  # checkpoint at seq 2
    _as_pooled_checkpoint(state / "checkpoint.pkl")

    recovered, outcomes = drive(config, state, COMMANDS[2:])
    assert recovered.recovered
    assert [o.digest for o in outcomes] == [
        o.digest for o in ref_outcomes[2:]
    ]
    assert recovered.core.rack is not None
    assert not hasattr(recovered.core, "_rack_bytes")
    assert recovered.report().to_json() == reference.report().to_json()


@pytest.mark.parametrize("pool", ["keep", "per-run"])
def test_config_with_pool_field_verifies(pool, config, drive, tmp_path):
    state = tmp_path / "state"
    state.mkdir()
    stored = json.loads(config.to_json())
    assert "pool" not in stored
    stored["pool"] = pool
    (state / "config.json").write_text(json.dumps(stored))
    daemon, _ = drive(config, state, [])
    assert daemon.config == config


def test_pool_is_validated_but_ignored(config, make_config):
    assert make_config(pool="keep") == make_config(pool="per-run") == config
    with pytest.raises(ServeError, match="pool"):
        make_config(pool="bogus").validate()
    with pytest.raises(LifecycleError, match="pool"):
        make_admission_core(config.build_chains(), pool="bogus")
    core = make_admission_core(config.build_chains(), pool="keep")
    assert not hasattr(core, "pool")


def test_daemon_never_starts_a_worker(make_config, drive, tmp_path):
    pool_mod.shutdown_pool()
    box = {}

    def run():
        box["daemon"], box["outcomes"] = drive(
            make_config(checkpoint_every=2), tmp_path / "state", COMMANDS
        )

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(300)
    assert not thread.is_alive()
    assert [o.seq for o in box["outcomes"]] == [1, 2, 3, 4, 5]
    assert (tmp_path / "state" / "checkpoint.pkl").exists()
    assert multiprocessing.active_children() == []
    assert pool_mod._shared_pool is None
