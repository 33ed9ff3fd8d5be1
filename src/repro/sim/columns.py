"""Columnar (structure-of-arrays) packet batches for the vectorized dataplane.

The scalar dataplane moves :class:`~repro.net.packet.Packet` objects one
attribute at a time; at high volume the Python object walk dominates. A
:class:`PacketColumns` batch instead refers to a shared
:class:`TemplateSet` — one frozen template packet per flow signature —
plus numpy arrays for everything that is per-packet: the signature id,
injection sequence, cycle charges (total and per device), NSH
``(spi, si)`` labels, and per-hop cycle/latency columns. Because every
packet of a signature is byte-identical, a service-path hop is compiled
once per (device, coordinates, template set) into a signature-indexed
hop table, and a warm hop is a handful of numpy gathers over the column
(see :meth:`repro.sim.runtime.DeployedRack.run_columns`).

Divergent, stateful, or payload-mutating NFs fall back transparently:
:meth:`materialize_packets` rebuilds real ``Packet`` objects mid-flight and
the scalar block loop takes over, bit-identical to a scalar run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.packet import Packet


def vector_fault_mask(seq: np.ndarray, seed: int, loss: float) -> np.ndarray:
    """Vectorized :meth:`DeployedRack._fault_reason` partial-loss decision.

    Bit-exact uint64 replication of the scalar hash: the mask is a
    power-of-two truncation (so modular wrap-around is harmless) and the
    final ``x / 2**32`` is exact in float64 for any 32-bit ``x``.
    """
    x = (seq.astype(np.uint64) * np.uint64(2654435761)
         + np.uint64((seed * 40503 + 0x9E3779B9) & 0xFFFFFFFFFFFFFFFF))
    x &= np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(0x45D9F3B)) & np.uint64(0xFFFFFFFF)
    x ^= x >> np.uint64(16)
    return (x.astype(np.float64) / 4294967296.0) < loss


@dataclass
class HopColumn:
    """Per-hop record column: the vectorized ``hops`` metadata entry."""

    device: str
    platform: str
    cycles: np.ndarray
    exec_us: np.ndarray

    def take(self, index) -> "HopColumn":
        return HopColumn(self.device, self.platform,
                         self.cycles[index], self.exec_us[index])


class TemplateSet:
    """A shared, write-once sequence of frozen flow-template packets.

    Signature ``i`` of a :class:`PacketColumns` batch names ``packets[i]``.
    An entry is written at most once and never mutated, so one set is
    shared by every batch, slice and compressed view that refers to it —
    and its identity is a valid cache key. Input sets are built from a
    caller's flow list; a compiled hop table owns its output set and fills
    entry ``i`` with the transformed template when signature ``i`` first
    survives the hop (dropped signatures stay ``None``).
    """

    __slots__ = ("packets", "dirty", "has_dirty")

    def __init__(self, packets: Sequence[Optional[Packet]]):
        self.packets: List[Optional[Packet]] = list(packets)
        #: templates already carrying per-packet charges or a drop flag
        #: (scalar-path territory; frozen hop outputs never do)
        self.dirty = np.fromiter(
            (_precharged(p) for p in self.packets), dtype=bool,
            count=len(self.packets),
        )
        self.has_dirty = bool(self.dirty.any())

    def __len__(self) -> int:
        return len(self.packets)

    def __getitem__(self, sig: int) -> Packet:
        return self.packets[sig]


def _precharged(packet: Optional[Packet]) -> bool:
    if packet is None:
        return False
    meta = packet.metadata
    return bool(meta.cycles_consumed or meta.cycles_by_device
                or meta.drop_flag)


class PacketColumns:
    """A batch of packets in structure-of-arrays form.

    ``templates`` is the :class:`TemplateSet` the signatures index; a hop
    swaps in its table's output set wholesale (never mutating a set in
    place). The arrays are aligned per packet:

    * ``sig``: signature id of each packet, an index into ``templates``
      (``int64``)
    * ``seq``: rack injection sequence (``int64``; assigned by the rack)
    * ``spi`` / ``si``: current NSH service-path labels (``int64``)
    * ``cycles``: total cycles charged so far (``int64``)
    * ``device_cycles``: device name -> per-packet cycles on that device's
      clock, in first-charge order (``device_order``)
    * ``hops``: one :class:`HopColumn` per completed hop
    """

    __slots__ = ("templates", "sig", "seq", "spi", "si", "cycles",
                 "device_order", "device_cycles", "hops")

    def __init__(self, templates: TemplateSet, sig: np.ndarray,
                 seq: Optional[np.ndarray] = None):
        n = len(sig)
        self.templates = templates
        self.sig = np.asarray(sig, dtype=np.int64)
        self.seq = (seq if seq is not None
                    else np.zeros(n, dtype=np.int64))
        self.spi = np.zeros(n, dtype=np.int64)
        self.si = np.zeros(n, dtype=np.int64)
        self.cycles = np.zeros(n, dtype=np.int64)
        self.device_order: List[str] = []
        self.device_cycles: Dict[str, np.ndarray] = {}
        self.hops: List[HopColumn] = []

    @classmethod
    def for_flows(cls, flows: Sequence[Packet],
                  sig: Sequence[int]) -> "PacketColumns":
        """Batch ``len(sig)`` packets over a fresh template set: packet
        ``i`` is (virtually) a clone of ``flows[sig[i]]``. Callers
        replaying many batches build one :class:`TemplateSet` and pass it
        to the constructor instead, so the rack's compiled hop tables are
        reused across batches."""
        return cls(TemplateSet(flows), sig)

    def __len__(self) -> int:
        return len(self.sig)

    # -- restructuring ------------------------------------------------------

    def slice(self, start: int, end: int) -> "PacketColumns":
        """A consecutive sub-block (the template set is shared)."""
        return self._rebuild(slice(start, end))

    def compress(self, mask: np.ndarray) -> "PacketColumns":
        """Keep only the packets where ``mask`` is True."""
        return self._rebuild(mask)

    def _rebuild(self, index) -> "PacketColumns":
        out = PacketColumns(self.templates, self.sig[index],
                            self.seq[index])
        out.spi = self.spi[index]
        out.si = self.si[index]
        out.cycles = self.cycles[index]
        out.device_order = list(self.device_order)
        out.device_cycles = {
            device: arr[index] for device, arr in self.device_cycles.items()
        }
        out.hops = [hop.take(index) for hop in self.hops]
        return out

    def charge_device(self, device: str, delta: np.ndarray) -> None:
        """Accumulate per-packet cycles on ``device``'s clock."""
        existing = self.device_cycles.get(device)
        if existing is None:
            self.device_order.append(device)
            self.device_cycles[device] = delta.astype(np.int64)
        else:
            self.device_cycles[device] = existing + delta

    # -- scalar bridge ------------------------------------------------------

    def materialize_packets(self, chain_id: Optional[str] = None):
        """Rebuild real ``Packet`` objects (plus their per-hop records) so
        the scalar block loop can take over mid-flight."""
        packets: List[Packet] = []
        hop_records: Dict[int, List[dict]] = {}
        for i in range(len(self.sig)):
            packet = self.templates[int(self.sig[i])].copy()
            meta = packet.metadata
            meta.seq = int(self.seq[i])
            if chain_id is not None:
                meta.chain_id = chain_id
            meta.cycles_consumed = int(self.cycles[i])
            meta.cycles_by_device = {
                device: int(self.device_cycles[device][i])
                for device in self.device_order
                if self.device_cycles[device][i]
            }
            hop_records[meta.seq] = [
                {"device": hop.device, "platform": hop.platform,
                 "cycles": int(hop.cycles[i]),
                 "exec_us": float(hop.exec_us[i])}
                for hop in self.hops
            ]
            packets.append(packet)
        return packets, hop_records


@dataclass
class _FinishedBlock:
    """A delivered block plus its latency columns (stamped lazily)."""

    columns: PacketColumns
    exec_us: np.ndarray
    #: utilization-dependent queueing wait (zeros when queueing is off)
    queue_us: np.ndarray
    latency_us: np.ndarray
    bounce_us: float
    switch_us: float
    #: inter-rack fabric round trip (None when the chain is rack-local;
    #: mirrors the scalar stamp, which only writes the field for chains
    #: with a configured inter-rack hop)
    interrack_us: Optional[float] = None


@dataclass
class ColumnarRunResult:
    """One :meth:`DeployedRack.run_columns` call's outcome.

    Delivery counts are available without materializing packets (the hot
    path the benchmarks measure); :meth:`materialize` rebuilds the full
    per-packet ``RunResult`` view for equivalence checks and tracing.
    """

    chain_id: str
    count: int
    seq_base: int
    #: seq -> delivered packet or None, for packets that went through the
    #: scalar fallback bridge.
    scalar: Dict[int, Optional[Packet]] = field(default_factory=dict)
    blocks: List[_FinishedBlock] = field(default_factory=list)

    @property
    def delivered(self) -> int:
        columnar = sum(len(block.columns) for block in self.blocks)
        scalar = sum(1 for p in self.scalar.values() if p is not None)
        return columnar + scalar

    @property
    def dropped(self) -> int:
        return self.count - self.delivered

    def __len__(self) -> int:
        return self.count

    def materialize(self) -> List[Optional[Packet]]:
        """Per-packet outputs in injection order (``None`` = dropped)."""
        outputs: List[Optional[Packet]] = [None] * self.count
        for seq, packet in self.scalar.items():
            outputs[seq - self.seq_base] = packet
        for block in self.blocks:
            cols = block.columns
            for i in range(len(cols)):
                seq = int(cols.seq[i])
                packet = cols.templates[int(cols.sig[i])].copy()
                meta = packet.metadata
                meta.seq = seq
                meta.chain_id = self.chain_id
                meta.cycles_consumed = int(cols.cycles[i])
                meta.cycles_by_device = {
                    device: int(cols.device_cycles[device][i])
                    for device in cols.device_order
                    if cols.device_cycles[device][i]
                }
                fields = dict(meta.fields)
                fields["exec_us"] = float(block.exec_us[i])
                fields["queue_us"] = float(block.queue_us[i])
                fields["bounce_us"] = block.bounce_us
                fields["switch_us"] = block.switch_us
                if block.interrack_us is not None:
                    fields["interrack_us"] = block.interrack_us
                fields["latency_us"] = float(block.latency_us[i])
                fields["hops"] = [
                    {"device": hop.device, "platform": hop.platform,
                     "cycles": int(hop.cycles[i]),
                     "exec_us": float(hop.exec_us[i])}
                    for hop in cols.hops
                ]
                meta.fields = fields
                outputs[seq - self.seq_base] = packet
        return outputs
