"""Drive benchmark workloads through the public ``repro`` API.

:func:`drive` runs one :class:`ExperimentConfig` in the same order as
:func:`repro.core.experiment.run_identification_experiment` —
``Cluster.from_config``, victim analysis, ``launch_ddos``, delivery sink or
handler, ``Cluster.run``, ``suspects``, ``score_identification`` — and times
the phases. Given a :class:`Tracer` it also wraps each public call in a span,
attaches an :class:`EventProfiler`, and derives the per-layer numbers.

The module imports ``repro``; put the repository's ``src`` directory on
``sys.path`` first.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.cluster import Cluster
from repro.core.config import ExperimentConfig
from repro.core.results import ExperimentResult
from repro.defense.metrics import score_identification
from repro.engine.profile import EventProfiler
from repro.engine.watchdog import Watchdog
from repro.marking.dpm import DpmScheme, build_signature_table
from repro.routing.dor import DimensionOrderRouter

from spans import Tracer, self_times

WORKLOADS_JSON = Path(__file__).with_name("workloads.json")

#: host seconds one config may run before the watchdog fails it
WATCHDOG_SECONDS = 150.0


def load_workloads(path: Path = WORKLOADS_JSON) -> Dict[str, List[dict]]:
    """Workload name -> serialised configs (``ExperimentConfig.to_dict``)."""
    return json.loads(path.read_text())


def workload_configs(name: str, seed: int,
                     workloads: Optional[Dict[str, List[dict]]] = None
                     ) -> List[ExperimentConfig]:
    """The workload's configs, each carrying the benchmark seed."""
    workloads = load_workloads() if workloads is None else workloads
    return [ExperimentConfig.from_dict(data).with_seed(seed)
            for data in workloads[name]]


def victim_analysis(cluster: Cluster, victim: int):
    """Scheme-appropriate victim analysis, as the experiment runner builds it.

    DPM gets a signature table built against the deployment's router when
    that is deterministic, else against dimension-order routing. Rebuilt
    here from public calls so that refactoring the runner's private helper
    cannot break the benchmark; the traced run's comparison with
    ``run_identification_experiment`` catches any drift.
    """
    scheme = cluster.marking
    if isinstance(scheme, DpmScheme):
        router = (cluster.router if cluster.router.is_deterministic
                  else DimensionOrderRouter())
        table = build_signature_table(scheme, cluster.topology, router, victim,
                                      cluster.fabric.config.default_ttl)
        return scheme.new_victim_analysis(victim, table)
    return scheme.new_victim_analysis(victim)


@dataclass
class ConfigRun:
    """One config driven to a scored result, with its host timings."""

    result: ExperimentResult
    setup_s: float
    run_s: float
    wall_s: float
    injected: int
    fingerprint: Dict[str, Any]
    layers: Dict[str, float] = field(default_factory=dict)


def drive(config: ExperimentConfig,
          tracer: Optional[Tracer] = None) -> ConfigRun:
    """Run one config to a scored result; trace it when given a tracer."""
    if config.faults is not None or config.attacks is not None:
        raise ValueError("benchmark configs use the flat flood fields only")
    span: Callable[[str], Any] = (
        tracer.span if tracer is not None else lambda name: nullcontext())
    profile = EventProfiler() if tracer is not None else None
    first_span = len(tracer.spans) if tracer is not None else 0
    observed = [0]

    start = perf_counter()
    with span("config"):
        if tracer is not None:
            with span("topology.build"):
                config.topology.build().distance_oracle()
        with span("cluster.from_config"):
            cluster = Cluster.from_config(
                config, profile=profile,
                watchdog=Watchdog(wall_clock_limit=WATCHDOG_SECONDS))
        victim = (config.victim if config.victim is not None
                  else cluster.default_victim())
        with span("defense.analysis_init"):
            analysis = victim_analysis(cluster, victim)
        with span("attack.arm"):
            truth = cluster.launch_ddos(
                victim=victim, attackers=config.attackers,
                num_attackers=config.num_attackers,
                attack_rate_per_node=config.attack_rate_per_node,
                duration=config.duration,
                background_rate=config.background_rate)
        if cluster.engine in ("batched", "sharded"):
            attack_ids = np.fromiter(truth.attack_packet_ids, dtype=np.int64,
                                     count=len(truth.attack_packet_ids))
            attack_ids.sort()

            def on_batch(batch: Any) -> None:
                mask = np.isin(batch.ids, attack_ids)
                if mask.any():
                    rows = batch.compress(mask)
                    with span("defense.observe"):
                        analysis.observe_batch(rows)
                    observed[0] += len(rows.ids)

            cluster.fabric.attach_delivery_sink(victim, on_batch)
        else:
            def on_delivery(event: Any) -> None:
                if truth.is_attack_packet(event.packet):
                    with span("defense.observe"):
                        analysis.observe(event.packet)
                    observed[0] += 1

            cluster.fabric.add_delivery_handler(victim, on_delivery)
        setup_end = perf_counter()
        with span("engine.run"):
            cluster.run()
        run_end = perf_counter()
        with span("defense.suspects"):
            suspects = analysis.suspects()
        score = score_identification(suspects, truth.attackers)
        stats = cluster.fabric.stats_summary()
        result = ExperimentResult(
            topology=f"{config.topology.kind}{config.topology.dims}",
            routing=config.routing.name,
            marking=config.marking.name,
            seed=config.seed,
            victim=victim,
            attackers=tuple(truth.attackers),
            score=score,
            suspects=tuple(sorted(suspects)),
            packets_analyzed=analysis.packets_observed,
            packets_delivered=int(stats.get("delivered", 0)),
            packets_dropped=int(stats.get("dropped", 0)),
            mean_latency=float(stats.get("mean_latency", float("nan"))),
            mean_hops=float(stats.get("mean_hops", float("nan"))),
            extra={},
        )
    end = perf_counter()

    fingerprint: Dict[str, Any] = {
        "delivered": result.packets_delivered,
        "dropped": result.packets_dropped,
        "suspects": list(result.suspects),
        "events": int(cluster.sim.events_executed),
    }
    run = ConfigRun(result=result, setup_s=setup_end - start,
                    run_s=run_end - setup_end, wall_s=end - start,
                    injected=int(stats.get("injected", 0)),
                    fingerprint=fingerprint)
    if tracer is not None:
        run.layers = _layers(tracer.spans[first_span:], profile, run,
                             observed[0])
        fingerprint["rounds"] = int(run.layers["engine.rounds"])
        fingerprint["rows_examined"] = int(run.layers["engine.rows_examined"])
    return run


def _layers(spans, profile: EventProfiler, run: ConfigRun,
            rows_observed: int) -> Dict[str, float]:
    """Per-layer numbers of one traced config (see README.md for the map)."""
    duration: Dict[str, float] = {}
    for span in spans:
        duration[span.name] = duration.get(span.name, 0.0) + span.duration
    run_span = next(span for span in spans if span.name == "engine.run")
    run_self = self_times(spans)[run_span.id]
    observe_s = duration.get("defense.observe", 0.0)
    advance = profile.advance_stats()
    rounds = int(advance["advances"])
    result = run.result
    events = run.fingerprint["events"]
    if rounds:
        # Cohort rounds (batched) or sync windows (sharded); the sink flush
        # that feeds the analysis runs outside them.
        advance_s = float(advance["total_time"])
        steps = rounds
    else:
        # Exact engine: event callbacks, minus the victim handler they call.
        advance_s = profile.total_time - observe_s
        steps = events
    rows = int(advance["rows"])
    hops = int(round(result.packets_delivered * result.mean_hops))
    shard = profile.shard_window_stats()
    topology_s = duration["topology.build"]
    return {
        "topology.build_s": topology_s,
        "network.fabric_build_s": duration["cluster.from_config"] - topology_s,
        "attack.arm_s": duration["attack.arm"],
        "attack.packets_injected": run.injected,
        "engine.run_self_s": run_self,
        "engine.advance_s": advance_s,
        "engine.steps": steps,
        "engine.rounds": rounds,
        "engine.lazy_build_s": run_self - advance_s,
        "engine.rows_examined": rows,
        "engine.hops": hops,
        "engine.events": events,
        "engine.delivered": result.packets_delivered,
        "engine.dropped": result.packets_dropped,
        "sharded.windows": shard["windows"],
        "sharded.boundary_rows": shard["boundary_rows"],
        "sharded.max_boundary_occupancy": shard["max_boundary_occupancy"],
        "sharded.sync_stalls": shard["sync_stalls"],
        "defense.analysis_init_s": duration["defense.analysis_init"],
        "defense.observe_s": observe_s,
        "defense.rows_observed": rows_observed,
        "defense.suspects_s": duration["defense.suspects"],
        "defense.suspects": len(result.suspects),
        "defense.true_positives": result.score.true_positives,
    }


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def config_errors(run: ConfigRun) -> List[str]:
    """Checks one config's own outputs; an empty list means it passed."""
    errors = []
    result = run.result
    if run.injected != result.packets_delivered + result.packets_dropped:
        errors.append(f"injected {run.injected} != delivered "
                      f"{result.packets_delivered} + dropped "
                      f"{result.packets_dropped}")
    if result.marking == "ddpm" and (result.score.recall != 1.0
                                     or result.score.precision != 1.0):
        errors.append(f"ddpm identification not exact: {result.score}")
    return errors


def fingerprint_errors(fingerprint: Dict[str, Any],
                       reference: Dict[str, Any]) -> List[str]:
    """Fields present in both fingerprints that differ."""
    return [f"{key}: {fingerprint[key]!r} != {reference[key]!r}"
            for key in sorted(set(fingerprint) & set(reference))
            if fingerprint[key] != reference[key]]


# ----------------------------------------------------------------------
# Aggregation over repetitions
# ----------------------------------------------------------------------
def rep_samples(reps: List[List[ConfigRun]]) -> Dict[str, List[float]]:
    """Per-repetition timings, each summed over the workload's configs."""
    return {
        "setup_s": [sum(r.setup_s for r in rep) for rep in reps],
        "run_s": [sum(r.run_s for r in rep) for rep in reps],
        "wall_s": [sum(r.wall_s for r in rep) for rep in reps],
        "packets_per_s": [sum(r.result.packets_delivered for r in rep)
                          / sum(r.run_s for r in rep) for rep in reps],
    }


def end_to_end(reps: List[List[ConfigRun]]) -> Dict[str, float]:
    """End-to-end metrics: timings are medians over repetitions."""
    first = reps[0]
    out = {name: median(values)
           for name, values in rep_samples(reps).items()}
    out["recall"] = sum(r.result.score.recall for r in first) / len(first)
    out["precision"] = sum(r.result.score.precision for r in first) / len(first)
    return out


#: per-layer host times: median over traced reps of the per-rep sum
LAYER_TIMES = ("topology.build_s", "network.fabric_build_s", "attack.arm_s",
               "engine.run_self_s", "engine.advance_s", "engine.lazy_build_s",
               "defense.analysis_init_s", "defense.observe_s",
               "defense.suspects_s")
#: per-layer counts: summed over configs, identical in every traced rep
LAYER_COUNTS = ("attack.packets_injected", "engine.rounds",
                "engine.rows_examined", "engine.hops", "engine.events",
                "engine.delivered", "engine.dropped", "sharded.windows",
                "sharded.boundary_rows", "sharded.sync_stalls",
                "defense.rows_observed", "defense.suspects",
                "defense.true_positives")
#: per-layer counts of the sharded engine's window loop
SHARDED_COUNTS = ("sharded.windows", "sharded.boundary_rows",
                  "sharded.max_boundary_occupancy", "sharded.sync_stalls")


#: unit of every per-layer metric
LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "sharded.max_boundary_occupancy": "count",
    "engine.round_us": "us",
    "engine.us_per_event": "us",
    "engine.useful_ratio": "fraction",
    "sharded.speedup": "x",
    "trace.overhead_frac": "fraction",
}


def per_layer(traced: List[List[ConfigRun]]) -> Dict[str, float]:
    """Per-layer metrics of the traced reps."""
    out: Dict[str, float] = {
        name: median(sum(r.layers[name] for r in rep) for rep in traced)
        for name in LAYER_TIMES}
    first = traced[0]
    for name in LAYER_COUNTS:
        out[name] = sum(r.layers[name] for r in first)
    out["sharded.max_boundary_occupancy"] = max(
        r.layers["sharded.max_boundary_occupancy"] for r in first)
    steps = sum(r.layers["engine.steps"] for r in first)
    out["engine.round_us"] = out["engine.advance_s"] / steps * 1e6
    out["engine.us_per_event"] = (out["engine.run_self_s"]
                                  / out["engine.events"] * 1e6)
    rows = out["engine.rows_examined"]
    out["engine.useful_ratio"] = out["engine.hops"] / rows if rows else 0.0
    return out
