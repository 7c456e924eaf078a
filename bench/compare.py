"""Compare two sets of benchmark runs metric by metric.

    python bench/compare.py SET_A/ SET_B/

Each set is a directory of ``run-*.json`` files written by
``bench/run.py`` (copy ``bench/out/run-*.json`` aside between sets).  For
every workload and end-to-end metric it prints each set's median and
quartiles and a verdict against the metric's bound in BENCHMARK.json:

* ``same``       -- the medians differ by no more than the bound;
* ``better`` / ``worse`` -- they differ by more, in that direction;
* ``unresolved`` -- a set's own quartile spread is wider than the bound,
  so no verdict is possible (unless every B run beats every A run).

Runs with the same workload and seed in both sets must also agree on
every exact statistic.  The exit status is 1 on any ``worse``, on a
higher failed share (``failed`` over ``attempted``) in B, on an incorrect
run in B, or on an exact mismatch.  Per-layer metrics of traced runs are
listed without verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[str, List[Dict[str, Any]]]


def load_set(directory: Path) -> Runs:
    """Every workload result in a directory of run files, by workload."""
    runs: Runs = {}
    for path in sorted(directory.glob("run-*.json")):
        payload = json.loads(path.read_text())
        for name, result in payload["workloads"].items():
            runs.setdefault(name, []).append(result)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def verdict(
    a: Sequence[float], b: Sequence[float], *, better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for B against A, and B's relative change (signed, raw)."""
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    gain = change if better == "higher" else -change
    spread = max(
        (a_q3 - a_q1) / a_med if a_med else 0.0,
        (b_q3 - b_q1) / b_med if b_med else 0.0,
    )
    if spread > bound:
        beats = min(b) > max(a) if better == "higher" else max(b) < min(a)
        return ("better" if beats else "unresolved"), change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "same", change


def failed_share(runs: List[Dict[str, Any]]) -> float:
    """Median over runs of failed operations over attempted ones."""
    return statistics.median(run["failed"] / run["attempted"] for run in runs)


def exact_mismatches(a: Runs, b: Runs) -> List[str]:
    problems = []
    for name in sorted(set(a) & set(b)):
        first = {run["seed"]: run["exact"] for run in a[name]}
        for run in b[name]:
            reference = first.get(run["seed"])
            if reference is not None and reference != run["exact"]:
                keys = sorted(k for k in reference if reference[k] != run["exact"].get(k))
                problems.append(f"{name} seed {run['seed']}: {', '.join(keys)}")
    return sorted(set(problems))


def compare(a: Runs, b: Runs, spec: Dict[str, Any]) -> int:
    failures: List[str] = []
    print(f"{'workload':16} {'metric':18} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8} {'bound':>6}  verdict")
    for name in sorted(set(a) & set(b)):
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values_a = [run["metrics"][key] for run in a[name]]
            values_b = [run["metrics"][key] for run in b[name]]
            result, change = verdict(
                values_a, values_b, better=metric["better"], bound=metric["bound"]
            )
            qa, qb = quartiles(values_a), quartiles(values_b)
            print(
                f"{name:16} {key:18} {_spread(qa):>34} {_spread(qb):>34} "
                f"{change:+8.2%} {metric['bound']:6.0%}  {result}"
            )
            if result == "worse":
                failures.append(f"{name} {key} worse by {abs(change):.1%}")
        failed_a, failed_b = failed_share(a[name]), failed_share(b[name])
        if failed_b > failed_a:
            failures.append(f"{name} failed more operations ({failed_b:.6g} > {failed_a:.6g})")
        incorrect = [run["seed"] for run in b[name] if not run["correct"]]
        if incorrect:
            failures.append(f"{name}: incorrect runs in B (seeds {incorrect})")
        traced = [run for run in a[name] + b[name] if "trace" in run]
        if traced:
            print_layers(name, a[name], b[name], spec)
    failures += [f"exact statistics differ: {problem}" for problem in exact_mismatches(a, b)]
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


def print_layers(name: str, a: List[Dict[str, Any]], b: List[Dict[str, Any]], spec: Dict[str, Any]) -> None:
    def median(runs: List[Dict[str, Any]], key: str) -> Optional[float]:
        values = [run["trace"]["metrics"][key] for run in runs if "trace" in run]
        return statistics.median(values) if values else None

    for metric in spec["per_layer"]:
        key = metric["name"]
        ma, mb = median(a, key), median(b, key)
        if ma or mb:
            print(f"{name:16} {key:48} A {ma!r:>24}  B {mb!r:>24}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(args.set_a), load_set(args.set_b)
    if not a or not b:
        print("compare: each set needs at least one run-*.json file", file=sys.stderr)
        return 2
    return compare(a, b, spec)


if __name__ == "__main__":
    raise SystemExit(main())
