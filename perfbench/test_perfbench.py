"""Tests of the benchmark itself: workloads, output checks, span arithmetic.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

import run as bench_run  # puts the repository's src on sys.path
import harness
from repro.core.config import ExperimentConfig
from repro.core.experiment import run_identification_experiment
from spans import Span, Tracer, covered, self_times

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_workloads_round_trip_and_match_benchmark_json():
    workloads = harness.load_workloads()
    assert list(workloads) == [w["name"] for w in BENCHMARK["workloads"]]
    for name, configs in workloads.items():
        assert configs, name
        for data in configs:
            assert ExperimentConfig.from_dict(data).to_dict() == data
        seeded = harness.workload_configs(name, 7, workloads)
        assert [c.seed for c in seeded] == [7] * len(configs)


def test_metric_names_and_units_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == bench_run.UNITS
    assert layers == harness.LAYER_UNITS


def _run(**fingerprint):
    base = {"delivered": 10, "dropped": 1, "suspects": [3, 5], "events": 42}
    base.update(fingerprint)
    return SimpleNamespace(fingerprint=base)


def test_tampered_fingerprint_fails_the_repeat_check():
    bench = bench_run.Bench("torus64_flood", 1)
    bench.check_repeats([[_run()], [_run()]], [[_run().fingerprint]])
    assert bench.failed == 0

    bench.check_repeats([[_run()], [_run(delivered=11)]], [])
    assert bench.failed == 1

    bench.check_repeats([[_run()]], [[_run(suspects=[3]).fingerprint]])
    assert bench.failed == 2

    # Traced reps add counts; later traced reps are held to the first.
    merged = bench.check_repeats(
        [[_run()], [_run(rows_examined=5)], [_run(rows_examined=6)]], [])
    assert bench.failed == 3
    assert merged == [dict(_run().fingerprint, rows_examined=5)]


def test_fingerprints_compare_only_shared_fields():
    traced = dict(_run().fingerprint, rounds=9, rows_examined=100)
    assert harness.fingerprint_errors(traced, _run().fingerprint) == []
    assert harness.fingerprint_errors(
        dict(traced, rows_examined=101),
        dict(_run().fingerprint, rows_examined=100)) != []


def test_config_checks_catch_conservation_and_ddpm_errors():
    score = SimpleNamespace(recall=1.0, precision=1.0)
    result = SimpleNamespace(packets_delivered=9, packets_dropped=1,
                             marking="ddpm", score=score)
    assert harness.config_errors(SimpleNamespace(result=result,
                                                 injected=10)) == []
    assert len(harness.config_errors(SimpleNamespace(result=result,
                                                     injected=11))) == 1
    result.score = SimpleNamespace(recall=0.75, precision=1.0)
    assert len(harness.config_errors(SimpleNamespace(result=result,
                                                     injected=10))) == 1


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),      # overlaps a: union 1..6 covers 5
        Span(3, 1, "a.child", 1.5, 2.0),
        Span(4, 0, "late", 9.0, 12.0),  # clipped to the parent: covers 1
        Span(5, None, "other", 20.0, 21.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)
    assert selfs[4] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(1.0)
    assert covered([(0.0, 1.0), (2.0, 3.0), (2.5, 4.0)]) == pytest.approx(3.0)
    assert covered([]) == 0.0


def test_tracer_records_parents_and_self_time():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    spans = {span.id: span for span in tracer.spans}
    assert spans[inner].parent == outer and spans[outer].parent is None
    selfs = self_times(tracer.spans)
    assert selfs[outer] == pytest.approx(
        spans[outer].duration - spans[inner].duration)
    assert [s["name"] for s in tracer.to_json()] == ["outer", "inner"]


@pytest.mark.parametrize("marking,engine", [("ddpm", "exact"),
                                            ("dpm", "exact"),
                                            ("ddpm", "batched")])
def test_traced_drive_matches_the_experiment_entry_point(marking, engine):
    config = ExperimentConfig.from_dict(
        harness.load_workloads()["paper_matrix"][0])
    config = dataclasses.replace(
        config, marking=dataclasses.replace(config.marking, name=marking),
        duration=0.5, engine=engine, seed=3)
    runs = [harness.drive(config), harness.drive(config, Tracer())]
    expected = run_identification_experiment(config)
    for run in runs:
        assert run.result == expected
        assert harness.config_errors(run) == []
        assert 0 < run.setup_s < run.wall_s and 0 < run.run_s < run.wall_s
    assert harness.fingerprint_errors(runs[1].fingerprint,
                                      runs[0].fingerprint) == []
    layers = harness.per_layer([[runs[1]]])
    assert set(layers) | {"sharded.speedup", "trace.overhead_frac"} \
        == set(harness.LAYER_UNITS)
    assert layers["engine.delivered"] == expected.packets_delivered
    assert layers["defense.rows_observed"] == expected.packets_analyzed
    assert layers["engine.rounds"] == (0 if engine == "exact"
                                       else layers["engine.events"])
