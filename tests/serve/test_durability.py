"""Durability under I/O and internal failures: nothing acknowledged is lost,
nothing unacknowledged is recovered.

A failure after the core moved but before the command is journaled (the
append, its fsync, or the traffic phase) turns the daemon read-only; a
failed checkpoint after a durable append is harmless. In every case a
restart recovers exactly the digest of the last acknowledged command.
"""

import errno
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import Journal, Scale, run_server
from repro.serve.commands import STATUS_APPLIED, STATUS_ERROR
from repro.sim.admission import AdmissionCore

SCALES = [Scale(chain="enterprise", t_min_mbps=1000.0 + 100.0 * i)
          for i in range(1, 4)]


def _fail_append(fs, monkeypatch):
    fs.fail("write", "journal.jsonl", at=2, code=errno.ENOSPC)


def _fail_fsync(fs, monkeypatch):
    fs.fail("fsync", "journal.jsonl", at=2, code=errno.EIO)


def _fail_phase(fs, monkeypatch):
    real = AdmissionCore.run_phase
    calls = []

    def run_phase(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 3:  # the bootstrap phase, s1, then s2 fails
            raise RuntimeError("traffic phase blew up")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(AdmissionCore, "run_phase", run_phase)


def _fail_checkpoint(fs, monkeypatch):
    # the seq-3 checkpoint; seq 2's stays on disk
    fs.fail("write", "checkpoint.pkl.tmp", at=3, code=errno.ENOSPC)


CASES = {
    "append": (_fail_append, "No space left on device"),
    "fsync": (_fail_fsync, "Input/output error"),
    "run_phase": (_fail_phase, "traffic phase blew up"),
    "checkpoint": (_fail_checkpoint, None),
}


@pytest.mark.parametrize("crash", [False, True], ids=["stop", "crash"])
@pytest.mark.parametrize("case", list(CASES))
def test_restart_recovers_last_acknowledged(case, crash, make_config, drive,
                                            failing_fs, monkeypatch,
                                            tmp_path):
    inject, cause = CASES[case]
    config = make_config(checkpoint_every=1)
    state = tmp_path / "state"
    inject(failing_fs, monkeypatch)
    daemon, outcomes = drive(config, state, SCALES, crash=crash)
    monkeypatch.undo()  # a healthy filesystem and core for the restart

    acked = [o for o in outcomes if o.status == STATUS_APPLIED]
    if cause is None:
        assert len(acked) == 3
        assert not daemon.read_only
        assert not (state / "checkpoint.pkl.tmp").exists()
    else:
        assert [o.status for o in outcomes] == [
            STATUS_APPLIED, STATUS_ERROR, STATUS_ERROR,
        ]
        assert cause in outcomes[1].error
        assert "read-only" in outcomes[2].error
        assert cause in daemon.read_only
        # nothing past the last ack is journaled, nor half-written
        assert [r["seq"] for r in Journal(state / "journal.jsonl")
                .replay()] == [1]
        assert outcomes[2].seq == 1
        assert outcomes[2].digest == acked[-1].digest

    recovered, _ = drive(config, state, [])
    assert recovered.recovered
    assert recovered.seq == len(acked)
    assert recovered.core.state_digest() == acked[-1].digest
    # the journal stayed well-formed: the daemon is writable again
    _, more = drive(config, state, [SCALES[0]])
    assert more[0].status == STATUS_APPLIED
    assert more[0].seq == len(acked) + 1
    assert [r["seq"] for r in Journal(state / "journal.jsonl").replay()] \
        == list(range(1, len(acked) + 2))


def _request(url, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    try:
        with urllib.request.urlopen(urllib.request.Request(url, data=data),
                                    timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_health_reports_read_only(config, failing_fs, monkeypatch,
                                  tmp_path):
    _fail_append(failing_fs, monkeypatch)
    ready = threading.Event()
    url = {}

    def on_ready(server_url):
        url["base"] = server_url
        ready.set()

    thread = threading.Thread(target=run_server, args=(
        config, tmp_path / "state"), kwargs={"ready": on_ready})
    thread.start()
    try:
        assert ready.wait(120), "daemon never became ready"
        base = url["base"]
        _, health = _request(base + "/v1/health")
        assert health["read_only"] is False
        assert health["read_only_reason"] == ""
        codes = [_request(base + "/v1/commands", c.as_dict())[0]
                 for c in SCALES]
        assert codes == [200, 500, 500]
        _, health = _request(base + "/v1/health")
        assert health["read_only"] is True
        assert "No space left on device" in health["read_only_reason"]
        assert health["seq"] == 1
    finally:
        _request(url["base"] + "/v1/shutdown", {})
        thread.join(120)
    assert not thread.is_alive()
