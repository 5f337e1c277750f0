"""Flow specifications: a declarative unit of (possibly malicious) traffic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from repro.attack.spoofing import NoSpoofing, SpoofingStrategy
from repro.errors import ConfigurationError
from repro.network.fabric import Fabric
from repro.network.packet import Packet, PacketKind

__all__ = ["FlowSpec", "Rows", "schedule_flow"]

#: What a generator returns for one ``Fabric.inject_rows`` call: the
#: scheduled packets on the exact fabric, their int64 ids on the columnar
#: (batched and sharded) fabrics.
Rows = Union[List[Packet], np.ndarray]


@dataclass
class FlowSpec:
    """One source-to-destination traffic stream.

    Attributes
    ----------
    source / destination:
        Node indexes.
    rate:
        Packets per time unit (Poisson arrivals).
    start / duration:
        Active window.
    kind:
        Packet type (DATA, SYN, ...).
    spoofing:
        Source-address strategy; default writes the honest address.
    payload_bytes / flow_id:
        Wire size and stream tag.
    """

    source: int
    destination: int
    rate: float
    start: float = 0.0
    duration: float = 1.0
    kind: PacketKind = PacketKind.DATA
    spoofing: SpoofingStrategy = field(default_factory=NoSpoofing)
    payload_bytes: int = 64
    flow_id: int = 0

    def __post_init__(self):
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be > 0, got {self.rate}")
        if self.duration < 0:
            raise ConfigurationError(f"duration must be >= 0, got {self.duration}")
        if self.start < 0:
            raise ConfigurationError(f"start must be >= 0, got {self.start}")


def schedule_flow(fabric: Fabric, spec: FlowSpec,
                  rng: np.random.Generator) -> Rows:
    """Schedule a flow's packets onto the fabric; returns them for scoring.

    Arrival times and spoofed addresses are drawn one row at a time, in the
    same order on every engine, then handed to ``fabric.inject_rows`` in
    one call: the exact fabric returns the scheduled packets, the columnar
    fabrics their ids.
    """
    delays: List[float] = []
    src_ips: List[int] = []
    end = spec.start + spec.duration
    gap = 1.0 / spec.rate
    source_ip = spec.spoofing.source_ip
    addresses = fabric.addresses
    t = spec.start + float(rng.exponential(gap))
    while t < end:
        src_ips.append(source_ip(spec.source, addresses, rng))
        delays.append(t)
        t += float(rng.exponential(gap))
    count = len(delays)
    return fabric.inject_rows(delays, [spec.source] * count, src_ips,
                              [spec.destination] * count, kind=spec.kind,
                              flow_id=spec.flow_id,
                              payload_bytes=spec.payload_bytes)
