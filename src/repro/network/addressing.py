"""IP-to-node-index mapping table (paper §4.1).

"After establishing a mapping table between IP addresses and indexes,
switches look for this index alone" — the cluster assigns each node a unique
private IP; the fabric routes by index; marking schemes decode sources as
indexes and this table translates back to addresses for reporting/blocking.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import AddressingError, ConfigurationError
from repro.network.ip import format_ip

__all__ = ["AddressMap"]

#: 10.0.0.0/8 — the conventional private block for cluster-internal addresses.
DEFAULT_BASE = 0x0A000000


class AddressMap:
    """Bijection between node indexes 0..N-1 and a contiguous IP block.

    Parameters
    ----------
    num_nodes:
        Cluster size.
    base:
        First address; node ``i`` gets ``base + i + 1`` (the ``+ 1`` keeps
        the network address itself unassigned, as real deployments do).
    """

    def __init__(self, num_nodes: int, base: int = DEFAULT_BASE):
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        if base < 0 or base + num_nodes > (1 << 32) - 1:
            raise ConfigurationError(
                f"address block base={base:#x} size={num_nodes} exceeds IPv4 space"
            )
        self.num_nodes = num_nodes
        self.base = base

    def ip_of(self, node: int) -> int:
        """IP address assigned to node ``node``."""
        if not 0 <= node < self.num_nodes:
            raise AddressingError(f"node {node} outside cluster of {self.num_nodes} nodes")
        return self.base + node + 1

    def ips_of(self, nodes: np.ndarray) -> np.ndarray:
        """Column twin of :meth:`ip_of` for node indexes already range-checked."""
        return nodes + (self.base + 1)

    def node_of(self, address: int) -> int:
        """Node index owning ``address``; raises AddressingError for outsiders."""
        node = address - self.base - 1
        if not 0 <= node < self.num_nodes:
            raise AddressingError(
                f"address {format_ip(address)} is not assigned to any cluster node"
            )
        return node

    def contains(self, address: int) -> bool:
        """True when ``address`` belongs to a cluster node."""
        return 0 <= address - self.base - 1 < self.num_nodes

    def addresses(self) -> Iterator[int]:
        """All assigned addresses in node order."""
        return (self.base + i + 1 for i in range(self.num_nodes))

    def __len__(self) -> int:
        return self.num_nodes

    def __repr__(self) -> str:  # pragma: no cover
        return (f"AddressMap({format_ip(self.base + 1)} .. "
                f"{format_ip(self.base + self.num_nodes)})")
