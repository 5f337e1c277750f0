"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload torus64_hot --seed 1 --seconds 30 --trace 0

Repeats the workload's configs (``workloads.json``, seed from ``--seed``)
with tracing off until ``--seconds`` are spent, checks every output, and
prints the end-to-end metrics. ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics instead, writing the spans to
``perfbench/traces/``. Every result is appended to ``perfbench/history.jsonl``.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if __name__ == "__main__" and not (SRC / "repro").is_dir():
    sys.exit(f"benchmark: no program sources at {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import harness  # noqa: E402
from repro.core.experiment import run_identification_experiment  # noqa: E402
from repro.engine.watchdog import Watchdog  # noqa: E402
from spans import Tracer  # noqa: E402

HISTORY = HERE / "history.jsonl"
TRACES = HERE / "traces"
#: workload -> shard count of the sharded-engine twin run beside it
SHARDED_TWINS = {"torus64_hot": 2}

UNITS = {
    "setup_s": "s", "run_s": "s", "wall_s": "s", "packets_per_s": "packets/s",
    "peak_rss_mb": "MiB", "recall": "fraction", "precision": "fraction",
}


def git_sha() -> Optional[str]:
    """HEAD's commit id read from ``.git``, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha() -> str:
    """Hash of every ``.py`` file under ``src``: the program's identity."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Bench:
    """Runs one workload's configs and keeps the tally of operations."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.configs = harness.workload_configs(name, seed)
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"FAILED: {message}", file=sys.stderr)

    def run_one(self, index: int, config, tracer=None):
        """One operation: a config run plus its own output checks."""
        self.attempted += 1
        try:
            run = harness.drive(config, tracer)
        except Exception:  # an operation that raises is counted, not fatal
            self.fail(f"config {index} raised:\n{traceback.format_exc()}")
            return None
        errors = harness.config_errors(run)
        if errors:
            self.fail(f"config {index}: {'; '.join(errors)}")
        return run

    def rep(self, tracer=None) -> Optional[List[Any]]:
        """Every config once; None if any operation raised."""
        gc.collect()
        runs = [self.run_one(i, config, tracer)
                for i, config in enumerate(self.configs)]
        return None if any(run is None for run in runs) else runs

    def check_repeats(self, reps: List[List[Any]],
                      history: List[List[Dict[str, Any]]]
                      ) -> List[Dict[str, Any]]:
        """Each config's fingerprint repeats across reps and past runs.

        Returns the merged fingerprint of each config: every field seen in
        any rep, as first seen (traced reps add the profiler counts).
        """
        merged = [dict(run.fingerprint) for run in reps[0]]
        for rep in reps[1:]:
            for i, run in enumerate(rep):
                errors = harness.fingerprint_errors(run.fingerprint,
                                                    merged[i])
                if errors:
                    self.fail(f"config {i} differs across reps: {errors}")
                merged[i] = {**run.fingerprint, **merged[i]}
        for past in history:
            for i, fingerprint in enumerate(merged):
                errors = harness.fingerprint_errors(fingerprint, past[i])
                if errors:
                    self.fail(f"config {i} differs from an earlier run of "
                              f"this seed: {errors}")
        return merged

    def sharded_twin(self, runs: List[Any], shards: int,
                     tracer=None) -> Optional[List[Any]]:
        """Each config on the sharded engine; results must equal ``runs``."""
        twins = []
        keys = ("delivered", "dropped", "suspects")
        for i, config in enumerate(self.configs):
            twin = self.run_one(i, dataclasses.replace(
                config, engine="sharded", shards=shards), tracer)
            if twin is None:
                return None
            twins.append(twin)
            ours, ref = twin.fingerprint, runs[i].fingerprint
            if any(ours[k] != ref[k] for k in keys):
                self.fail(f"config {i}: sharded {[ours[k] for k in keys]} != "
                          f"batched {[ref[k] for k in keys]}")
        return twins

    def check_entry_point(self, traced: List[Any]) -> None:
        """Traced results equal ``run_identification_experiment``'s."""
        for i, config in enumerate(self.configs):
            self.attempted += 1
            try:
                expected = run_identification_experiment(
                    config, watchdog=Watchdog(
                        wall_clock_limit=harness.WATCHDOG_SECONDS))
            except Exception:
                self.fail(f"config {i} raised in run_identification_"
                          f"experiment:\n{traceback.format_exc()}")
                continue
            if expected != traced[i].result:
                self.fail(f"config {i}: traced result {traced[i].result} != "
                          f"run_identification_experiment {expected}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def history_key(bench: Bench, meta: Dict[str, Any]) -> Dict[str, Any]:
    """What must match for two runs' fingerprints to be comparable."""
    configs = json.dumps([c.to_dict() for c in bench.configs], sort_keys=True)
    return {
        "workload": bench.name,
        "configs_sha": hashlib.sha256(configs.encode()).hexdigest()[:16],
        "src_sha": meta["src_sha"],
        "python": meta["python"],
        "numpy": meta["numpy"],
    }


def past_fingerprints(key: Dict[str, Any]) -> List[List[Dict[str, Any]]]:
    if not HISTORY.exists():
        return []
    out = []
    for line in HISTORY.read_text().splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        if (entry.get("key") == key and entry.get("correct")
                and entry.get("fingerprints")):
            out.append(entry["fingerprints"])
    return out


def measure(bench: Bench, seconds: float, trace: bool
            ) -> Tuple[List[List[Any]], List[List[Any]], Tracer]:
    """Repeat the workload until ``seconds`` are spent.

    With ``trace`` each repetition is an untraced run followed by a traced
    one. A repetition is not started when, at the pace so far, it would end
    past the budget; at least one always runs.
    """
    tracer = Tracer()
    reps: List[List[Any]] = []
    traced: List[List[Any]] = []
    start = perf_counter()
    while True:
        rep = bench.rep()
        if rep is None:
            break
        reps.append(rep)
        if trace:
            rep = bench.rep(tracer)
            if rep is None:
                break
            traced.append(rep)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    return reps, traced, tracer


def spread(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(harness.load_workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    meta = {
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "src_sha": src_sha(),
    }
    bench = Bench(args.workload, args.seed)
    trace = bool(args.trace)
    reps, traced, tracer = measure(bench, args.seconds, trace)
    if not reps or (trace and not traced):
        print(f"{bench.failed} operation(s) failed before any repetition "
              "completed", file=sys.stderr)
        return 1

    key = history_key(bench, meta)
    fingerprints = bench.check_repeats(reps + traced, past_fingerprints(key))
    twins = None
    if args.workload in SHARDED_TWINS:
        twins = bench.sharded_twin(reps[0], SHARDED_TWINS[args.workload],
                                   tracer if trace else None)
    if trace:
        bench.check_entry_point(traced[0])

    e2e = harness.end_to_end(reps)
    e2e["peak_rss_mb"] = peak_rss_mb()
    if trace:
        metrics = harness.per_layer(traced)
        untraced_wall = e2e["wall_s"]
        traced_wall = median(sum(r.wall_s for r in rep) for rep in traced)
        metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
        metrics["sharded.speedup"] = 0.0
        if twins:
            # The sharded layer runs only in the twin: its counters, and
            # the batched engine's traced run_s over the sharded one's.
            sharded = harness.per_layer([twins])
            for name in harness.SHARDED_COUNTS:
                metrics[name] = sharded[name]
            metrics["sharded.speedup"] = (
                median(sum(r.run_s for r in rep) for rep in traced)
                / sum(r.run_s for r in twins))
        unit = harness.LAYER_UNITS.__getitem__
    else:
        metrics = e2e
        unit = UNITS.__getitem__

    samples = harness.rep_samples(reps)
    print(f"workload {args.workload} seed {args.seed}: {len(reps)} reps"
          + (f", {len(traced)} traced" if trace else "")
          + f", {len(bench.configs)} config(s) each, host "
          f"{meta['cpu_count']} cpu(s), src {meta['src_sha']}")
    for name in sorted(metrics):
        line = f"  {name:32s} {metrics[name]:>14.6g} {unit(name)}"
        if not trace and name in samples:
            line += f"  (median; {spread(samples[name])})"
        print(line)

    if trace:
        TRACES.mkdir(exist_ok=True)
        out = TRACES / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"meta": meta, "workload": args.workload,
                                   "spans": tracer.to_json()}))
        print(f"  spans: {len(tracer.spans)} written to "
              f"{out.relative_to(ROOT)}")

    correct = bench.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in sorted(metrics.items())},
    }
    entry = {"key": key, "meta": meta, "trace": trace,
             "seconds": args.seconds, "reps": len(reps), **result,
             "samples": samples, "fingerprints": fingerprints}
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
