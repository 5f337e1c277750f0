"""Simulator-engineering benchmark: batched cohort-engine throughput.

Companion to ``bench_fabric_throughput.py`` (the exact per-packet engine's
regression guard): measures the ``engine='batched'`` cohort-advance path on
two workloads and writes ``benchmarks/results/BENCH_throughput_batched.json``
for ``check_throughput.py``:

* ``matched`` — the *same* workload shape as the exact benchmark (8x8 torus,
  uniform Poisson background at rate 25 for 2 time units, adaptive routing,
  DDPM marking), so the two JSON artifacts are directly comparable. The
  check script enforces the batched mode's reason to exist here: >= 10x the
  exact engine's packets/s (tolerance-scaled; see ``check_throughput.py``).
* ``torus64`` — a 64x64-torus DDoS flood plus background under a
  :class:`~repro.engine.watchdog.Watchdog`, the scale target the cohort
  engine was built for. Gated on completing at all (a per-packet engine
  takes minutes here); its packets/s is regression-checked against the
  committed baseline like every other metric.

Background rows come from :func:`uniform_background`, this harness's
array-drawn Poisson workload (the law of
:func:`~repro.attack.traffic.schedule_background` with uniform
destinations, drawn as whole arrays), so arming stays a small share of the
timed run.
"""

import json
from pathlib import Path

import numpy as np

from repro.attack.traffic import UniformRandomPattern, schedule_background
from repro.core.cluster import Cluster
from repro.engine.watchdog import Watchdog
from repro.marking import DdpmScheme
from repro.network.colqueue import BatchedFabric
from repro.routing import (LeastCongestedPolicy, MinimalAdaptiveRouter)
from repro.topology import Torus

RESULTS_JSON = Path(__file__).parent / "results" / "BENCH_throughput_batched.json"


def _merge_results(key, entry):
    """Read-modify-write one section of the shared results artifact."""
    RESULTS_JSON.parent.mkdir(exist_ok=True)
    data = (json.loads(RESULTS_JSON.read_text())
            if RESULTS_JSON.exists() else {})
    data[key] = entry
    RESULTS_JSON.write_text(json.dumps(data, indent=2) + "\n")


def uniform_background(fabric, *, rate, duration, rng):
    """Poisson background with uniform destinations, drawn as arrays.

    Order-statistics construction: each node sends ``Poisson(rate *
    duration)`` packets at i.i.d. uniform times over ``[0, duration)``, the
    law :func:`schedule_background` draws gap by gap, to a uniformly random
    other node. Returns the ids ``fabric.inject_rows`` allocated.
    """
    num_nodes = fabric.topology.num_nodes
    counts = rng.poisson(rate * duration, size=num_nodes)
    srcs = np.repeat(np.arange(num_nodes, dtype=np.int64), counts)
    delays = rng.random(srcs.size) * duration
    drawn = rng.integers(num_nodes - 1, size=srcs.size)
    dests = drawn + (drawn >= srcs)
    return fabric.inject_rows(delays, srcs, None, dests, payload_bytes=64)


def _build_matched_fabric(seed=0):
    """The exact benchmark's workload, captured columnarly."""
    topology = Torus((8, 8))
    fabric = BatchedFabric(topology, MinimalAdaptiveRouter(),
                           marking=DdpmScheme())
    fabric.selection = LeastCongestedPolicy(fabric.congestion,
                                            np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    uniform_background(fabric, rate=25.0, duration=2.0, rng=rng)
    return fabric


def test_batched_fabric_throughput(benchmark, report):
    def run():
        fabric = _build_matched_fabric()
        fabric.run()
        return fabric.counters["delivered"], fabric.sim.events_executed

    delivered, rounds = benchmark(run)
    mean_s = benchmark.stats.stats.mean
    report("Engineering - batched cohort engine throughput (64-node torus, "
           "adaptive routing, DDPM marking)",
           f"{delivered} packets delivered across {rounds} cohort rounds per "
           f"run; {delivered / mean_s:,.0f} packets/s (wall clock) vs the "
           "exact engine's committed baseline in BENCH_throughput.json")
    _merge_results("matched", {
        "delivered": int(delivered),
        "rounds": int(rounds),
        "mean_seconds": mean_s,
        "packets_per_sec": delivered / mean_s,
    })
    assert delivered > 0 and rounds > 0


def test_batched_fabric_torus64_flood(benchmark, report):
    """64x64 adaptive-torus flood: the scale the cohort engine targets."""

    def run():
        watchdog = Watchdog(wall_clock_limit=300.0)
        cluster = Cluster(Torus((64, 64)), MinimalAdaptiveRouter(),
                          marking=DdpmScheme(), seed=0, engine="batched",
                          watchdog=watchdog)
        victim = cluster.default_victim()
        cluster.launch_ddos(victim=victim, num_attackers=16,
                            attack_rate_per_node=100.0, duration=2.0)
        uniform_background(cluster.fabric, rate=2.0, duration=2.0,
                           rng=np.random.default_rng(1))
        cluster.run()
        fabric = cluster.fabric
        return (fabric.counters["delivered"], fabric.counters["dropped"],
                fabric.sim.events_executed)

    delivered, dropped, rounds = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    mean_s = benchmark.stats.stats.mean
    report("Engineering - batched cohort engine at scale (4096-node torus "
           "flood, adaptive routing, DDPM marking)",
           f"{delivered} delivered / {dropped} dropped across {rounds} "
           f"cohort rounds in {mean_s:.2f}s; "
           f"{delivered / mean_s:,.0f} packets/s (wall clock)")
    _merge_results("torus64", {
        "delivered": int(delivered),
        "dropped": int(dropped),
        "rounds": int(rounds),
        "mean_seconds": mean_s,
        "packets_per_sec": delivered / mean_s,
    })
    assert delivered > 0


def test_bulk_background_matches_scalar_law(report):
    """Sanity: the harness's array draws produce the scalar workload.

    Not a timing benchmark — a statistical guard that the order-statistics
    construction in :func:`uniform_background` is the same Poisson process
    ``schedule_background`` builds packet by packet (counts within a few
    standard deviations, times inside the window).
    """
    from repro.network.fabric import Fabric

    topology = Torus((8, 8))
    exact = Fabric(topology, MinimalAdaptiveRouter(), marking=DdpmScheme())
    packets = schedule_background(exact, UniformRandomPattern(), rate=25.0,
                                  duration=2.0,
                                  rng=np.random.default_rng(7))
    batched = BatchedFabric(topology, MinimalAdaptiveRouter(),
                            marking=DdpmScheme())
    ids = uniform_background(batched, rate=25.0, duration=2.0,
                             rng=np.random.default_rng(7))
    expected = 25.0 * 2.0 * topology.num_nodes
    sigma = expected ** 0.5
    assert abs(len(packets) - expected) < 6 * sigma
    assert abs(len(ids) - expected) < 6 * sigma
    columns = batched.log.columns()
    assert columns["times"].size == len(ids)
    assert float(columns["times"].min()) >= 0.0
    assert float(columns["times"].max()) < 2.0
    report("Engineering - bulk background generator law check",
           f"scalar {len(packets)} packets vs bulk {len(ids)} packets "
           f"(expected {expected:.0f} +/- {sigma:.0f})")
