"""Authenticated DDPM — the §6.2 discussion made concrete.

The paper assumes switches cannot be compromised but concedes that "to
prevent even the small probability of compromising switch, we should add an
authentication function working on the switching layer". This module
implements a Song–Perrig-flavored variant: every switch appends a keyed MAC
over (its identity, the marking field it produced, the packet's immutable
tuple) to an audit trail, and the victim — who holds the switch key table —
verifies the chain: every MAC must check out and the claimed MF evolution
must follow legal single-hop deltas ending at the received MF.

The audit trail rides out-of-band in ``packet.payload`` rather than in the
16-bit MF; the paper itself notes (§4.2) that in-band variable-length data
would need IP options and is too expensive — this models the scheme's
*logic* so tamper detection is testable, while the overhead bench (A5)
charges it one MAC per hop.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, IdentificationError
from repro.marking.ddpm import DdpmScheme
from repro.network.packet import Packet
from repro.topology.base import Topology
from repro.util.hashing import hash_bits, splitmix64

__all__ = ["AuthenticatedDdpmScheme", "AuditEntry", "VerificationResult"]

_TRAIL_ATTR = "ddpm_audit_trail"
MAC_BITS = 32


class AuditEntry(NamedTuple):
    """One switch's attestation of its marking write."""

    node: int
    mf_after: int
    mac: int


class VerificationResult(NamedTuple):
    """Outcome of victim-side chain verification."""

    valid: bool
    reason: str
    tampered_at: Optional[int]  # index into the trail, when identifiable


def _mac(key: int, node: int, mf_after: int, packet_id: int) -> int:
    material = splitmix64(key) ^ splitmix64((node << 20) ^ mf_after) ^ splitmix64(packet_id)
    return hash_bits(material, MAC_BITS)


class AuthenticatedDdpmScheme(DdpmScheme):
    """DDPM plus per-hop keyed MACs over the marking write.

    Parameters
    ----------
    keys:
        node -> secret key. Missing nodes raise at attach; in deployment the
        victim (or a trusted monitor) holds the same table.
    """

    name = "ddpm-auth"

    def __init__(self, keys: Dict[int, int], total_bits: int = 16):
        super().__init__(total_bits=total_bits)
        if not keys:
            raise ConfigurationError("keys table must not be empty")
        self.keys = dict(keys)

    @classmethod
    def with_random_keys(cls, topology: Topology, rng) -> "AuthenticatedDdpmScheme":
        """Convenience: one random 64-bit key per node."""
        keys = {n: int(rng.integers(1, 2**63)) for n in topology.nodes()}
        scheme = cls(keys)
        scheme.attach(topology)
        return scheme

    def _on_attach(self, topology: Topology) -> None:
        super()._on_attach(topology)
        missing = [n for n in topology.nodes() if n not in self.keys]
        if missing:
            raise ConfigurationError(
                f"no keys for nodes {missing[:5]}{'...' if len(missing) > 5 else ''}"
            )

    # -- switch side -------------------------------------------------------
    def on_inject(self, packet: Packet, node: int) -> None:
        super().on_inject(packet, node)
        trail: List[AuditEntry] = []
        mf = packet.header.identification
        trail.append(AuditEntry(node, mf, _mac(self.keys[node], node, mf, packet.packet_id)))
        setattr(packet, "payload", {_TRAIL_ATTR: trail, "original": packet.payload})

    def on_hop(self, packet: Packet, from_node: int, to_node: int) -> None:
        super().on_hop(packet, from_node, to_node)
        mf = packet.header.identification
        trail = self._trail_of(packet)
        trail.append(AuditEntry(from_node, mf,
                                _mac(self.keys[from_node], from_node, mf, packet.packet_id)))

    def on_hop_array(self, words: np.ndarray, src: np.ndarray,
                     dst: np.ndarray, ttls: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
        """Refused, not inherited from DDPM: the per-hop audit trail rides
        in packet payloads, which the columnar engines do not carry."""
        raise self._columnar_refusal()

    @staticmethod
    def _trail_of(packet: Packet) -> List[AuditEntry]:
        payload = packet.payload
        if not isinstance(payload, dict) or _TRAIL_ATTR not in payload:
            raise IdentificationError("packet carries no DDPM audit trail")
        return payload[_TRAIL_ATTR]

    # -- victim side -------------------------------------------------------
    def verify(self, packet: Packet, victim: int) -> VerificationResult:
        """Check every MAC and the legality of the claimed MF evolution."""
        topo = self._require_attached()
        try:
            trail = self._trail_of(packet)
        except IdentificationError:
            return VerificationResult(False, "missing audit trail", None)
        if not trail:
            return VerificationResult(False, "empty audit trail", None)

        for i, entry in enumerate(trail):
            key = self.keys.get(entry.node)
            if key is None:
                return VerificationResult(False, f"unknown switch {entry.node}", i)
            if _mac(key, entry.node, entry.mf_after, packet.packet_id) != entry.mac:
                return VerificationResult(False, f"MAC mismatch at switch {entry.node}", i)

        # Trail shape: entry 0 is the injector's zeroing write; entry i >= 1
        # is switch e_i.node's write after forwarding toward the *next*
        # entry's node (the victim, for the final entry). Entry 1 must come
        # from the injector itself — it both zeroes and forwards.
        if len(trail) >= 2 and trail[1].node != trail[0].node:
            return VerificationResult(False, "trail does not start at the injector", 1)
        expected_zero = self.layout.encode(topo.identity_offset())
        if trail[0].mf_after != expected_zero:
            return VerificationResult(False, "injector did not zero the MF", 0)

        for i in range(1, len(trail)):
            cur = trail[i]
            next_node = trail[i + 1].node if i + 1 < len(trail) else victim
            if not topo.is_neighbor(cur.node, next_node, include_failed=True):
                return VerificationResult(
                    False, f"claimed hop {cur.node}->{next_node} is not a link", i)
            before = self.layout.decode(trail[i - 1].mf_after)
            combined = topo.combine_offsets(before, topo.hop_delta(cur.node, next_node))
            if self.layout.encode(combined) != cur.mf_after:
                return VerificationResult(
                    False, f"MF evolution inconsistent at switch {cur.node}", i)

        if trail[-1].mf_after != packet.header.identification:
            return VerificationResult(False, "received MF differs from last attested MF",
                                      len(trail) - 1)
        return VerificationResult(True, "ok", None)

    def identify_verified(self, packet: Packet, victim: int) -> int:
        """Identify the source only when the audit chain verifies."""
        result = self.verify(packet, victim)
        if not result.valid:
            raise IdentificationError(f"audit verification failed: {result.reason}")
        return self.identify(packet, victim)

    def per_hop_operations(self) -> dict:
        ops = super().per_hop_operations()
        ops["mac"] = 1
        return ops
