"""Durability for the control-plane daemon: journal + checkpoints.

The daemon's persistence model is write-ahead-of-ack, not
write-ahead-of-apply: a mutating command is applied to the in-memory
:class:`~repro.sim.admission.AdmissionCore` first, then appended to the
journal and fsync'd, and only then acknowledged to the client. The
invariant a tenant can rely on is therefore *acknowledged ⇒ journaled ⇒
recovered*: a crash can lose at most commands that were still in flight
(never acknowledged), and recovery replays exactly the acknowledged
prefix. Because the core is deterministic given (config, command
sequence), replaying that prefix reconstructs a byte-identical rack. A
failed append truncates the journal back to its previous length, and the
daemon, whose core is then ahead of the journal, goes read-only until a
restart.

* :class:`Journal` — append-only JSONL, one record per applied mutating
  command: ``{"seq": N, "command": {...}}`` with sorted keys. Records
  are strictly sequenced; a gap or out-of-order seq on read means the
  file was tampered with or torn, and recovery fails loudly rather than
  silently skipping. A trailing partial line (torn write during a crash)
  is tolerated and ignored — it can only belong to an unacknowledged
  command.
* :class:`CheckpointStore` — periodic pickles of the full daemon state
  (seq, admission core incl. the deployed rack and metrics registry,
  decisions, phases), written atomically (tmp + rename + dir fsync) so a
  crash mid-checkpoint leaves the previous checkpoint intact. Recovery
  loads the checkpoint and replays only journal records with
  ``seq > checkpoint.seq``.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
from pathlib import Path
from typing import Iterator, List, Optional

from repro.exceptions import ServeError


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


class Journal:
    """Append-only, fsync'd JSONL command log."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def append(self, seq: int, command: dict) -> None:
        """Durably append one applied command (fsync before return).

        On any failure the file is truncated back to its previous length
        (best effort) before the error propagates, so a half-written or
        unsynced record never turns into an interior journal entry.
        """
        record = json.dumps(
            {"seq": seq, "command": command}, sort_keys=True
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o644)
        try:
            start = os.lseek(fd, 0, os.SEEK_END)
            try:
                _write_all(fd, (record + "\n").encode())
                os.fsync(fd)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, start)
                raise
        finally:
            os.close(fd)

    def records(self, after: int = 0) -> Iterator[dict]:
        """Yield journal records with ``seq > after``, in order.

        Raises :class:`~repro.exceptions.ServeError` on malformed or
        out-of-sequence records; tolerates exactly one torn trailing
        line (the signature of a crash mid-append).
        """
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        expected = None
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                seq = int(record["seq"])
                command = record["command"]
                if not isinstance(command, dict):
                    raise ValueError("command is not an object")
            except (json.JSONDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                if index == len(lines) - 1:
                    # torn trailing write from a crash mid-append: the
                    # command was never acknowledged, so dropping it
                    # preserves the acked ⇒ recovered invariant.
                    return
                raise ServeError(
                    f"journal {self.path} record {index + 1} is "
                    f"malformed: {exc}"
                ) from exc
            if expected is not None and seq != expected:
                raise ServeError(
                    f"journal {self.path} is out of sequence at record "
                    f"{index + 1}: expected seq {expected}, got {seq}"
                )
            expected = seq + 1
            if seq > after:
                yield record

    def replay(self, after: int = 0) -> List[dict]:
        return list(self.records(after=after))

    def head_seq(self) -> int:
        """The last journaled sequence number (0 for an empty journal)."""
        seq = 0
        for record in self.records():
            seq = int(record["seq"])
        return seq


class CheckpointStore:
    """Atomic pickle checkpoints of the daemon's full state."""

    def __init__(self, path: Path):
        self.path = Path(path)

    def save(self, state: dict) -> None:
        """Write the checkpoint atomically: a crash mid-save leaves the
        previous checkpoint readable."""
        if "seq" not in state:
            raise ServeError("checkpoint state must carry 'seq'")
        data = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            try:
                _write_all(fd, data)
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, self.path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        # persist the rename itself
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def load(self) -> Optional[dict]:
        """The latest checkpoint, or ``None`` if none was ever written."""
        if not self.path.exists():
            return None
        try:
            with open(self.path, "rb") as fh:
                state = pickle.load(fh)
        except (
            pickle.UnpicklingError,
            AttributeError,
            EOFError,
            OSError,
            ValueError,
        ) as exc:
            raise ServeError(
                f"checkpoint {self.path} is unreadable: {exc} "
                "(delete it to force full-journal recovery)"
            ) from exc
        if not isinstance(state, dict) or "seq" not in state:
            raise ServeError(
                f"checkpoint {self.path} has no 'seq' — not a daemon "
                "checkpoint"
            )
        return state


__all__ = ["CheckpointStore", "Journal"]
