#!/usr/bin/env python3
"""Benchmark regression gate.

Diffs freshly produced ``BENCH_<name>.json`` sidecars (written by the bench
binaries via bench_report::MetricSink) against the committed baselines in
``bench/baselines/`` and fails on a >10% regression.

Every baseline file gates its bench: a missing fresh sidecar or a metric
that disappeared is itself a failure (a bench silently dropping a metric is
how regressions hide). Direction is inferred from the metric name —
latency/time metrics regress upward, throughput/scaling metrics regress
downward — and can be overridden per metric by an optional ``"gate"``
section in the baseline file:

    {
      "bench": "rollout",
      "metrics": { "time_to_full_promotion_ms": 419.2, ... },
      "gate": {
        "rollout_guest_ops": {"direction": "exact", "tolerance": 0.0},
        "time_to_full_promotion_ms": {"direction": "skip"}
      }
    }

``direction`` is one of ``lower`` (lower is better), ``higher``, ``exact``
(any change beyond tolerance fails in either direction), or ``skip``
(informational only). ``tolerance`` is a fraction; the default is 0.10
(the 10% bar). Raw wall-time metrics are machine-dependent and no
tolerance both holds across hosts and catches a regression, so committed
baselines mark them ``skip`` and gate only deterministic counts and
dimensionless ratios.

Exit status: 0 when every gated metric holds, 1 on any regression or
missing artifact, 2 on usage errors.
"""

import argparse
import json
import math
import sys
from pathlib import Path

DEFAULT_TOLERANCE = 0.10

# Name-based direction inference, first match wins. Benches overwhelmingly
# name metrics with their unit; anything unrecognized is skipped loudly so
# a typo'd gate entry can't silently pass.
LOWER_IS_BETTER = ("latency", "_ns", "_ms", "time_", "dropped", "failures")
HIGHER_IS_BETTER = ("_per_s", "scaling_", "speedup", "throughput",
                    "bandwidth", "_ops")


def infer_direction(name: str) -> str:
    lowered = name.lower()
    for marker in LOWER_IS_BETTER:
        if marker in lowered:
            return "lower"
    for marker in HIGHER_IS_BETTER:
        if marker in lowered:
            return "higher"
    return "skip"


def load_metrics(path: Path):
    with path.open() as f:
        doc = json.load(f)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{path}: no 'metrics' object")
    gate = doc.get("gate", {})
    if not isinstance(gate, dict):
        raise ValueError(f"{path}: 'gate' must be an object")
    return metrics, gate


def check_metric(name, base, cur, direction, tolerance, failures, rows):
    if direction == "skip":
        rows.append((name, base, cur, "-", "info"))
        return
    if base == 0:
        # A zero baseline has no meaningful relative delta; only an exact
        # gate can hold it (0 -> 0), anything else is a change.
        delta = math.inf if cur != 0 else 0.0
    else:
        delta = (cur - base) / abs(base)
    if direction == "lower":
        regressed = delta > tolerance
    elif direction == "higher":
        regressed = -delta > tolerance
    else:  # exact
        regressed = abs(delta) > tolerance
    shown = f"{delta:+.1%}" if math.isfinite(delta) else "inf"
    rows.append((name, base, cur, shown, "FAIL" if regressed else "ok"))
    if regressed:
        failures.append(
            f"{name}: {base:g} -> {cur:g} ({shown}, direction={direction}, "
            f"tolerance={tolerance:.0%})")


def gate_bench(baseline_path: Path, current_dir: Path, tolerance: float):
    failures = []
    rows = []
    base_metrics, gate = load_metrics(baseline_path)
    current_path = current_dir / baseline_path.name
    if not current_path.is_file():
        return [f"{baseline_path.name}: no fresh sidecar in {current_dir} "
                "(bench not run or stopped emitting it)"], rows
    cur_metrics, _ = load_metrics(current_path)

    for name in sorted(base_metrics):
        if name not in cur_metrics:
            failures.append(f"{name}: present in baseline, missing from "
                            f"{current_path.name}")
            continue
        overrides = gate.get(name, {})
        direction = overrides.get("direction", infer_direction(name))
        if direction not in ("lower", "higher", "exact", "skip"):
            raise ValueError(f"{baseline_path}: bad direction {direction!r} "
                             f"for {name}")
        check_metric(name, float(base_metrics[name]),
                     float(cur_metrics[name]), direction,
                     float(overrides.get("tolerance", tolerance)),
                     failures, rows)
    return failures, rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", type=Path, required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--current-dir", type=Path, required=True,
                        help="directory holding freshly produced sidecars")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="default regression tolerance (fraction)")
    args = parser.parse_args()

    baselines = sorted(args.baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        print(f"bench_gate: no BENCH_*.json baselines in "
              f"{args.baseline_dir}", file=sys.stderr)
        return 2

    all_failures = []
    for baseline in baselines:
        failures, rows = gate_bench(baseline, args.current_dir,
                                    args.tolerance)
        print(f"== {baseline.name} ==")
        for name, base, cur, delta, verdict in rows:
            print(f"  {verdict:>4}  {name:<44} {base:>14g} -> {cur:<14g} "
                  f"{delta}")
        for failure in failures:
            print(f"  FAIL  {failure}")
        all_failures.extend(failures)

    if all_failures:
        print(f"\nbench_gate: {len(all_failures)} regression(s)",
              file=sys.stderr)
        return 1
    print("\nbench_gate: all gated metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
