"""Shared fixtures for the control-plane daemon tests."""

import asyncio
import os

import pytest

from repro.serve import ServeConfig, ServeDaemon

SPEC = (
    "chain enterprise: ACL -> Encrypt -> IPv4Fwd\n"
    "chain residential: BPF -> NAT -> IPv4Fwd\n"
)


def _make_config(**overrides) -> ServeConfig:
    defaults = dict(
        spec_text=SPEC,
        slos=((1000.0, 20000.0), (1000.0, 20000.0)),
        packets_per_phase=16,
        flows_per_chain=8,
        batch_size=8,
        checkpoint_every=2,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def _drive(config, state_dir, commands, *, crash=False):
    """Start a daemon, submit ``commands``, stop (or crash) it.

    ``crash=True`` abandons the worker without draining or writing a
    final checkpoint — the closest in-process analogue to SIGKILL; the
    journal is still durable because appends fsync before the ack.
    Returns ``(daemon, outcomes)``.
    """

    async def _run():
        daemon = ServeDaemon(config, state_dir)
        await daemon.start()
        outcomes = [await daemon.submit(c) for c in commands]
        if crash:
            daemon._worker.cancel()
        else:
            await daemon.stop()
        return daemon, outcomes

    return asyncio.run(_run())


@pytest.fixture()
def make_config():
    return _make_config


@pytest.fixture()
def drive():
    return _drive


@pytest.fixture()
def config():
    return _make_config()


class FailingFS:
    """Stands in for ``os`` inside :mod:`repro.serve.journal`.

    ``fail(op, suffix, at, code)`` makes the ``at``-th ``write`` or
    ``fsync`` on a file whose path ends with ``suffix`` raise
    ``OSError(code)``; a failing write first writes half its bytes, the
    way a full disk tears a record. Everything else is the real ``os``.
    """

    def __init__(self):
        self._paths = {}
        self._rules = []

    def __getattr__(self, name):
        return getattr(os, name)

    def fail(self, op, suffix, at, code):
        self._rules.append({"op": op, "suffix": suffix, "at": at,
                            "code": code, "seen": 0})

    def _check(self, op, fd):
        path = self._paths.get(fd, "")
        for rule in self._rules:
            if rule["op"] == op and path.endswith(rule["suffix"]):
                rule["seen"] += 1
                if rule["seen"] == rule["at"]:
                    return OSError(rule["code"], os.strerror(rule["code"]),
                                   path)
        return None

    def open(self, path, flags, mode=0o777):
        fd = os.open(path, flags, mode)
        self._paths[fd] = str(path)
        return fd

    def close(self, fd):
        self._paths.pop(fd, None)
        os.close(fd)

    def write(self, fd, data):
        error = self._check("write", fd)
        if error is not None:
            os.write(fd, bytes(data[:len(data) // 2]))
            raise error
        return os.write(fd, data)

    def fsync(self, fd):
        error = self._check("fsync", fd)
        if error is not None:
            raise error
        os.fsync(fd)


@pytest.fixture()
def failing_fs(monkeypatch):
    import repro.serve.journal as journal

    fs = FailingFS()
    monkeypatch.setattr(journal, "os", fs)
    return fs
