"""The injection funnel: ``Fabric.inject_rows`` on the exact and columnar fabrics.

Every static traffic generator hands its rows to ``inject_rows`` after
drawing them one at a time. The exact fabric builds and schedules packets;
the batched and sharded fabrics bank one log chunk and build nothing. These
tests pin that the two captures are the same rows, that columnar arming
builds no ``Packet``, and that every per-packet check still rejects a bad
call, before anything is captured.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.scenario import (AckFloodAttackSpec, FloodAttackSpec,
                                   PoissonBackgroundSpec, PulsingAttackSpec,
                                   SynFloodAttackSpec, VolumetricMixSpec)
from repro.core.cluster import Cluster
from repro.errors import ConfigurationError
from repro.marking import DdpmScheme
from repro.network import packet as packet_module
from repro.network.colqueue import BatchedFabric, ShardedFabric
from repro.network.fabric import Fabric
from repro.routing import MinimalAdaptiveRouter
from repro.topology import Torus

#: one spec per static kind, small enough to arm in milliseconds
STATIC_SPECS = {
    "flood": FloodAttackSpec(num_attackers=4, rate_per_attacker=60.0,
                             duration=0.5, background_rate=3.0),
    "syn-flood": SynFloodAttackSpec(num_attackers=3, rate_per_attacker=50.0,
                                    duration=0.5, spoofing="random"),
    "ack-flood": AckFloodAttackSpec(num_attackers=3, rate_per_attacker=50.0,
                                    duration=0.5, start_jitter=0.1,
                                    spoofing="victim"),
    "pulsing": PulsingAttackSpec(num_attackers=3, rate_per_attacker=120.0,
                                 period=0.2, duty_cycle=0.4, duration=0.7),
    "benign-poisson": PoissonBackgroundSpec(pattern="hotspot", rate=4.0,
                                            duration=0.5),
    "mix": VolumetricMixSpec(
        components=(FloodAttackSpec(num_attackers=2, rate_per_attacker=40.0,
                                    duration=0.5),
                    PoissonBackgroundSpec(rate=3.0, duration=0.5)),
        weights=(1.0, 0.5)),
}


def _cluster(engine: str) -> Cluster:
    return Cluster(Torus((8, 8)), MinimalAdaptiveRouter(),
                   marking=DdpmScheme(), seed=11, engine=engine)


def _exact_rows(cluster: Cluster) -> dict:
    """Injection rows read off the exact fabric's scheduled inject events."""
    entries = sorted((entry for entry in cluster.sim.queue._heap
                      if entry[-1] == "inject"), key=lambda e: e[:3])
    packets = [entry[5][0] for entry in entries]
    return {
        "times": np.array([entry[0] for entry in entries]),
        "nodes": np.array([entry[5][1] for entry in entries]),
        "sources": np.array([p.header.src for p in packets]),
        "dests": np.array([p.destination_node for p in packets]),
        "dst_ips": np.array([p.header.dst for p in packets]),
        "sizes": np.array([p.size_bytes for p in packets]),
        "ids": np.array([p.packet_id for p in packets]),
    }


@pytest.mark.parametrize("kind", sorted(STATIC_SPECS))
def test_columnar_capture_equals_exact_schedule(kind):
    spec = STATIC_SPECS[kind]
    exact = _cluster("exact")
    exact_truth = exact.launch_attack(spec)
    batched = _cluster("batched")
    batched_truth = batched.launch_attack(spec)

    want = _exact_rows(exact)
    got = batched.fabric.log.columns()
    assert want["times"].size > 0
    for name in ("times", "nodes", "sources", "dests", "dst_ips", "sizes"):
        assert np.array_equal(got[name], want[name]), name
    assert np.array_equal(got["ids"] - got["ids"].min(),
                          want["ids"] - want["ids"].min())
    assert got["times"].tobytes() == want["times"].tobytes()
    # Ground truth agrees up to the id offset, counts exactly.
    assert len(batched_truth.attack_packets) == len(exact_truth.attack_packets)
    assert len(batched_truth.background_packets) \
        == len(exact_truth.background_packets)
    offset = int(got["ids"].min() - want["ids"].min())
    assert batched_truth.attack_packet_ids == {
        i + offset for i in exact_truth.attack_packet_ids}


@pytest.mark.parametrize("engine", ["batched", "sharded"])
def test_columnar_arming_builds_no_packet(engine, monkeypatch):
    built = []
    init = packet_module.Packet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(packet_module.Packet, "__init__", counting_init)
    cluster = _cluster(engine)
    truth = cluster.launch_ddos(num_attackers=4, attack_rate_per_node=80.0,
                                duration=0.5, background_rate=4.0)
    assert len(cluster.fabric.log) > 0
    assert len(truth.attack_packets) + len(truth.background_packets) \
        == len(cluster.fabric.log)
    assert built == []


# ----------------------------------------------------------------------
# Every per-row check rejects the whole call before any row is captured
# ----------------------------------------------------------------------
def _fabric(kind: str) -> Fabric:
    cls = {"exact": Fabric, "batched": BatchedFabric,
           "sharded": ShardedFabric}[kind]
    return cls(Torus((4, 4)), MinimalAdaptiveRouter())


def _captured(fabric: Fabric) -> int:
    log = getattr(fabric, "log", None)
    return len(fabric.sim.queue) if log is None else len(log)


FABRIC_KINDS = ["exact", "batched", "sharded"]


@pytest.mark.parametrize("kind", FABRIC_KINDS)
@pytest.mark.parametrize("nodes,dsts", [([0, 16], [5, 5]), ([0, -1], [5, 5]),
                                        ([0, 1], [5, 16]), ([0, 1], [-2, 5]),
                                        ([0, 1], [5, 1 << 70])],
                         ids=["src-high", "src-negative", "dst-high",
                              "dst-negative", "dst-beyond-int64"])
def test_rejects_node_outside_topology(kind, nodes, dsts):
    fabric = _fabric(kind)
    with pytest.raises(ConfigurationError, match="outside topology"):
        fabric.inject_rows([0.1, 0.2], nodes, None, dsts)
    assert _captured(fabric) == 0


@pytest.mark.parametrize("kind", FABRIC_KINDS)
@pytest.mark.parametrize("bad_ip", [-1, 1 << 32, 1 << 70],
                         ids=["negative", "33-bit", "beyond-int64"])
def test_rejects_source_ip_beyond_32_bits(kind, bad_ip):
    fabric = _fabric(kind)
    with pytest.raises(ConfigurationError, match=f"{bad_ip} is not a 32-bit"):
        fabric.inject_rows([0.1, 0.2], [0, 1], [0x0A000001, bad_ip], [5, 5])
    assert _captured(fabric) == 0


@pytest.mark.parametrize("kind", FABRIC_KINDS)
def test_rejects_total_length_below_header(kind):
    fabric = _fabric(kind)
    with pytest.raises(ConfigurationError, match="below header size"):
        fabric.inject_rows([0.1], [0], None, [5], payload_bytes=-1)
    assert _captured(fabric) == 0


@pytest.mark.parametrize("kind", FABRIC_KINDS)
def test_rejects_ragged_columns(kind):
    fabric = _fabric(kind)
    with pytest.raises(ConfigurationError, match="length"):
        fabric.inject_rows([0.1, 0.2], [0], None, [5, 6])
    assert _captured(fabric) == 0


def test_exact_rows_match_make_packet():
    """The exact funnel is make_packet + inject, seq numbered by row."""
    fabric = _fabric("exact")
    packets = fabric.inject_rows([0.3, 0.1], [2, 3], [7, 0x0A000004], [9, 9],
                                 flow_id=42, payload_bytes=100)
    assert [p.seq for p in packets] == [0, 1]
    assert [p.header.src for p in packets] == [7, 0x0A000004]
    assert {p.flow_id for p in packets} == {42}
    assert {p.size_bytes for p in packets} == {120}
    assert len(fabric.sim.queue) == 2
