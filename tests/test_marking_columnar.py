"""The two halves of the marking contract agree, row for row.

Every scheme's columnar half (``inject_array`` / ``on_hop_array``, what the
batched and sharded engines call) must write the words its per-packet half
(``on_inject`` / ``on_hop``, what the exact engine calls) writes. Rows are
random walks over a mesh, a torus and a hypercube, so the words carried
into the compared hop are ones the scheme really produces. DDPM and DPM
draw nothing and must agree at any probability; the PPM family is compared
on its deterministic branches, at p=0 (every row continues) and p=1 (every
row starts a mark). Schemes with no column transform refuse by name.
"""

import re

import numpy as np
import pytest

from repro import registry
from repro.core.config import MarkingSpec, TopologySpec
from repro.errors import ConfigurationError
from repro.network.ip import IPHeader
from repro.network.packet import Packet
from repro.topology.hybrid import ClusterMesh

TOPOLOGIES = [("mesh", (4, 4)), ("torus", (4, 4)), ("hypercube", (4,))]

#: schemes with a columnar transform
COLUMNAR = ["ddpm", "dpm", "ppm-advanced", "ppm-bitdiff", "ppm-fragment",
            "ppm-full", "ppm-xor"]

#: schemes that draw no marking randomness
DETERMINISTIC = {"ddpm", "dpm"}

#: (scheme, probability): the PPM family only at its deterministic ends
HOP_CASES = [(name, p) for name in COLUMNAR
             for p in ((0.0, 0.5, 1.0) if name in DETERMINISTIC
                       else (0.0, 1.0))]

ROWS = 300


class _ScriptedRng:
    """Per-packet stand-in: a fixed coin and scripted fragment offsets."""

    def __init__(self, offsets=()):
        self._offsets = iter(offsets)

    def random(self):
        return 0.5

    def integers(self, high):
        return int(next(self._offsets))


def _scheme(name, topo, probability=0.5):
    scheme = MarkingSpec(name, probability=probability).build(
        np.random.default_rng(7), topo)
    scheme.attach(topo)
    return scheme


def _packet(word, ttl, src, dst):
    return Packet(IPHeader(1, 2, identification=int(word), ttl=int(ttl)),
                  int(src), int(dst))


def _walk_rows(scheme, topo, seed):
    """Random-walk rows: (words, src, dst, ttls) of one hop to compare."""
    rng = np.random.default_rng(seed)
    words, src, dst, ttls = [], [], [], []
    for _ in range(ROWS):
        node = int(rng.integers(topo.num_nodes))
        packet = _packet(0, 64, node, node)
        scheme.on_inject(packet, node)
        for _ in range(int(rng.integers(0, 6))):
            nxt = int(rng.choice(topo.neighbors(node)))
            packet.header.ttl -= 1
            scheme.on_hop(packet, node, nxt)
            node = nxt
        words.append(packet.header.identification)
        src.append(node)
        dst.append(int(rng.choice(topo.neighbors(node))))
        ttls.append(int(rng.integers(1, 64)))
    return tuple(np.array(column, dtype=np.int64)
                 for column in (words, src, dst, ttls))


def _per_packet(scheme, words, src, dst, ttls):
    out = []
    for word, s, d, ttl in zip(words, src, dst, ttls):
        packet = _packet(word, ttl, s, d)
        scheme.on_hop(packet, int(s), int(d))
        out.append(packet.header.identification)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("topo_kind,dims", TOPOLOGIES)
@pytest.mark.parametrize("name", COLUMNAR + ["ddpm-auth"])
def test_inject_array_matches_on_inject(name, topo_kind, dims):
    topo = TopologySpec(topo_kind, dims).build()
    scheme = _scheme(name, topo)
    words = scheme.inject_array(topo.num_nodes)
    assert words.dtype == np.int64 and words.shape == (topo.num_nodes,)
    for node in topo.nodes():
        packet = _packet(0xFFFF, 64, node, node)
        scheme.on_inject(packet, node)
        assert words[node] == packet.header.identification


@pytest.mark.parametrize("topo_kind,dims", TOPOLOGIES)
@pytest.mark.parametrize("name,probability", HOP_CASES)
def test_on_hop_array_matches_on_hop(name, probability, topo_kind, dims):
    topo = TopologySpec(topo_kind, dims).build()
    scheme = _scheme(name, topo)
    words, src, dst, ttls = _walk_rows(scheme, topo, seed=11)
    before = words.copy()
    scheme.probability = probability
    columnar = scheme.on_hop_array(words, src, dst, ttls,
                                   np.random.default_rng(5))
    if name not in DETERMINISTIC:
        # Replay the column's draws: one coin per row, then (fragment PPM
        # only) one offset per marking row — fed to the per-packet half.
        replay = np.random.default_rng(5)
        marked = int(np.count_nonzero(replay.random(words.size)
                                      < probability))
        offsets = (replay.integers(scheme.encoder.num_fragments, size=marked)
                   if name == "ppm-fragment" and marked else ())
        scheme.rng = _ScriptedRng(offsets)
    expected = _per_packet(scheme, words, src, dst, ttls)
    assert columnar.dtype == np.int64
    np.testing.assert_array_equal(columnar, expected)
    np.testing.assert_array_equal(words, before)  # input left untouched


@pytest.mark.parametrize("name", COLUMNAR)
def test_memoized_probes_repeat_exactly(name):
    topo = TopologySpec("mesh", (4, 4)).build()
    scheme = _scheme(name, topo, probability=1.0 if name == "ppm-fragment"
                     else 0.0)
    words, src, dst, ttls = _walk_rows(scheme, topo, seed=3)
    first = scheme.on_hop_array(words, src, dst, ttls,
                                np.random.default_rng(9))
    again = scheme.on_hop_array(words, src, dst, ttls,
                                np.random.default_rng(9))
    np.testing.assert_array_equal(first, again)


def _empty():
    return np.empty(0, dtype=np.int64)


def test_authenticated_ddpm_refuses_by_name():
    topo = TopologySpec("mesh", (4, 4)).build()
    scheme = _scheme("ddpm-auth", topo)
    with pytest.raises(ConfigurationError,
                       match=r"'ddpm-auth'.*engine='exact'"):
        scheme.on_hop_array(_empty(), _empty(), _empty(), _empty(),
                            np.random.default_rng(0))


def test_hierarchical_ddpm_refuses_by_name():
    topo = ClusterMesh((2, 2), 2)
    scheme = registry.MARKING.create("hddpm", np.random.default_rng(0),
                                     topo, 0.5)
    scheme.attach(topo)
    with pytest.raises(ConfigurationError,
                       match=re.escape(repr(scheme.name)) + ".*engine='exact'"):
        scheme.on_hop_array(_empty(), _empty(), _empty(), _empty(),
                            np.random.default_rng(0))
