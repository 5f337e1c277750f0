"""Bit-for-bit golden pins for the columnar (batched and sharded) engines.

``tests/golden/batched_stream.json`` holds, per case, a digest of everything
a cohort run makes observable:

* every delivery sink's ``MarkBatch`` columns (times, sources, words, ttls,
  hops) in stream order;
* the same sinks' packet ids, relative to the run's first allocated id
  (ids come from a process-global counter, so absolute ids depend on what
  ran before in the process);
* per-NIC delivered counts, drop reasons, latency mean and max;
* the number of rounds (sync windows for the sharded engine).

Any refactor of the cohort round must leave every pin unchanged: admission
order, draw order, float accumulation order and delivery order all reach
these digests. The cases are small hot floods, so channels saturate and
rows queue behind full channels for many rounds.

Regenerate (only when a change is *meant* to alter results, and say so)::

    PYTHONPATH=src:. python -c "import tests.test_batched_golden as m; m.regenerate()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import (ExperimentConfig, MarkingSpec, RoutingSpec,
                               SelectionSpec, TopologySpec)
from repro.network.packet import allocate_packet_ids

GOLDEN_PATH = Path(__file__).parent / "golden" / "batched_stream.json"

_TORUS16 = dict(kind="torus", dims=(16, 16), routing="minimal-adaptive")

#: name -> case parameters (see ``run_case``)
CASES: Dict[str, Dict[str, Any]] = {
    "torus16_ddpm_random": dict(_TORUS16, marking="ddpm", selection="random"),
    "torus16_dpm_random": dict(_TORUS16, marking="dpm", selection="random"),
    "torus16_fragment_random": dict(_TORUS16, marking="ppm-fragment",
                                    selection="random"),
    "torus16_advanced_random": dict(_TORUS16, marking="ppm-advanced",
                                    selection="random"),
    "torus16_ddpm_congested": dict(_TORUS16, marking="ddpm",
                                   selection="least-congested"),
    "torus16_ddpm_first": dict(_TORUS16, marking="ddpm", selection="first"),
    "torus16_ddpm_ttl12": dict(_TORUS16, marking="ddpm", selection="random",
                               ttl=12),
    "torus8_ppmfull_random": dict(kind="torus", dims=(8, 8),
                                  routing="minimal-adaptive",
                                  marking="ppm-full", selection="random"),
    "mesh8_xy_ddpm": dict(kind="mesh", dims=(8, 8), routing="xy",
                          marking="ddpm", selection="first"),
    "hypercube8_ddpm_random": dict(kind="hypercube", dims=(8,),
                                   routing="minimal-adaptive", marking="ddpm",
                                   selection="random"),
    "torus16_ddpm_segmented": dict(_TORUS16, marking="ddpm",
                                   selection="random",
                                   segments=(0.3, 0.6, 1.1)),
    "torus8_sharded2_first": dict(kind="torus", dims=(8, 8),
                                  routing="minimal-adaptive", marking="ddpm",
                                  selection="first", engine="sharded",
                                  shards=2),
}


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()[:24]


def run_case(kind, dims, routing, marking, selection, *, seed=5,
             engine="batched", shards=None, ttl=None, segments=()) -> dict:
    """One hot flood on the columnar engine; returns the pinned digests."""
    config = ExperimentConfig(
        topology=TopologySpec(kind, tuple(dims)),
        routing=RoutingSpec(routing),
        marking=MarkingSpec(marking, probability=0.2),
        selection=SelectionSpec(selection),
        seed=seed, num_attackers=8, attack_rate_per_node=300.0,
        background_rate=6.0, duration=0.5, engine=engine, shards=shards)
    cluster = Cluster.from_config(config)
    fabric = cluster.fabric
    if shards is not None:
        fabric.shard_mode = "serial"
    if ttl is not None:
        fabric.config.default_ttl = ttl
    victim = cluster.default_victim()
    sink_nodes = sorted({victim, 0, cluster.topology.num_nodes // 2})
    streams: Dict[int, list] = {node: [] for node in sink_nodes}
    first_id = allocate_packet_ids(0)

    def sink_for(node):
        def consume(batch):
            streams[node].append(tuple(
                np.array(column, copy=True) for column in
                (batch.times, batch.sources, batch.words, batch.ttls,
                 batch.hops, np.asarray(batch.ids) - first_id)))
        return consume

    for node in sink_nodes:
        fabric.attach_delivery_sink(node, sink_for(node))
    cluster.launch_ddos(victim=victim, num_attackers=config.num_attackers,
                        attack_rate_per_node=config.attack_rate_per_node,
                        duration=config.duration,
                        background_rate=config.background_rate)
    for horizon in segments:
        cluster.run(until=horizon)
    cluster.run()

    sinks = {}
    for node, parts in streams.items():
        columns = [np.concatenate(cols) if cols else np.empty(0)
                   for cols in zip(*parts)] if parts else []
        sinks[str(node)] = {
            "rows": int(columns[0].size) if columns else 0,
            "marks": _digest(columns[:5]),
            "ids": _digest(columns[5:]),
        }
    stats = fabric.stats_summary()
    return {
        "sinks": sinks,
        "delivered_per_nic": _digest(
            [np.array([nic.n_delivered for nic in fabric.nics],
                      dtype=np.int64)]),
        "delivered": int(stats.get("delivered", 0)),
        "dropped": int(stats.get("dropped", 0)),
        "drop_reasons": {reason: int(count) for reason, count
                         in sorted(fabric._drop_reasons.items())},
        "latency_mean": float(fabric.latency.mean),
        "latency_max": float(fabric.latency.max),
        "rounds": int(cluster.sim.events_executed),
    }


def regenerate() -> None:  # pragma: no cover - maintenance helper
    golden = {name: run_case(**params) for name, params in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_stream_pinned(golden, name):
    assert run_case(**CASES[name]) == golden[name]


def test_pins_exercise_queueing_and_drops(golden):
    """The pins are only meaningful if rows wait behind full channels and
    some rows drop: a queue-free run could not tell admission orders apart.
    Unqueued, no 16x16-torus row takes longer than its 16 hops of 0.08 s
    plus injection serialization (~1.4 s)."""
    assert golden["torus16_ddpm_ttl12"]["drop_reasons"].get("ttl_expired", 0)
    assert golden["torus16_ddpm_random"]["latency_max"] > 4.0
