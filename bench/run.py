"""Run the repro benchmark: whole user-facing paths, timed from outside.

    PYTHONPATH=src python bench/run.py [--workload NAME ...] [--seed N]
                                       [--seconds S] [--trace [0|1]]

The workloads default to those BENCHMARK.json lists; ``--workload`` also
takes ``contended_lossy`` and ``hmy``.  Each runs in its own child
process (``bench/harness.py``), one after another, with numeric
libraries pinned to one thread and the compiled planner backend cached
under ``bench/out/cache``.  ``--seconds`` (default: ``run_seconds`` of
BENCHMARK.json) is how long each workload's timed repeats run; it
changes no simulated statistic.  Every metric is printed as ``workload
metric value unit``; the full result goes to
``bench/out/run-<timestamp>.json`` and, with ``--trace``, each
workload's spans to ``bench/out/trace-<workload>.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace`` its per-layer metrics).  The exit status is non-zero when a
correctness check fails or a child process does not finish.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOAD_NAMES = ("contended", "contended_lossy", "roaming", "service", "hmy")

#: Wall-clock limit for one child process.
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["REPRO_CACHE_DIR"] = str(OUT / "cache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name: str, seed: Optional[int], seconds: float, *options: str) -> Dict[str, Any]:
    """Run ``bench/harness.py`` on one workload and return its result.

    The child gets a process group of its own, so that on a timeout or an
    interrupt the set-up-only processes it starts are stopped with it.
    """
    command = [
        sys.executable, str(BENCH / "harness.py"),
        "--workload", name, "--seconds", str(seconds), *options,
    ]
    if seed is not None:
        command += ["--seed", str(seed)]
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise ChildFailed(f"{name} exceeded {CHILD_TIMEOUT_S:.0f} s") from error
    finally:
        if child.returncode is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.communicate()
    lines = stdout.decode(errors="replace").strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{name} exited with status {child.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as error:
        raise ChildFailed(f"{name} printed no result") from error


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=30, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.decode().strip() or "unknown"


def report_lines(name: str, result: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [
        f"{name} {metric} {value!r} {units[metric]}"
        for metric, value in result["metrics"].items()
    ]
    lines += [f"{name} {key} {value!r} -" for key, value in result["extras"].items()]
    lines += [f"{name} exact.{key} {value!r} -" for key, value in result["exact"].items()]
    trace = result.get("trace")
    if trace:
        lines += [
            f"{name} {metric} {value!r} {units[metric]}"
            for metric, value in trace["metrics"].items()
        ]
        lines += [f"{name} {key} {value!r} s" for key, value in trace["layer_seconds"].items()]
        lines.append(f"{name} trace.self_sum_ratio {trace['self_sum_ratio']!r} ratio")
        for hook in trace["unhooked"]:
            lines.append(f"{name} trace.unhooked {hook} -")
    for check in result["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        lines.append(f"{name} check {status}: {check['name']} ({check['detail']})")
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOAD_NAMES, default=None)
    parser.add_argument("--seed", type=int, default=None, help="override every workload's default seed")
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="timed seconds per workload (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="also run each workload once with layer hooks and report per-layer metrics",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"bench: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
    workloads = args.workload or [workload["name"] for workload in spec["workloads"]]
    OUT.mkdir(parents=True, exist_ok=True)

    results: Dict[str, Dict[str, Any]] = {}
    for name in workloads:
        trace = ["--trace-out", str(OUT / f"trace-{name}.json")] if args.trace else []
        try:
            results[name] = run_child(name, args.seed, seconds, *trace)
        except ChildFailed as error:
            print(f"bench: {error}", file=sys.stderr)
            return 1
        for line in report_lines(name, results[name], spec):
            print(line, flush=True)

    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S-%f")
    env = dict(next(iter(results.values()))["env"], commit=commit())
    env["backend"] = sorted({result["backend"] for result in results.values()})
    (OUT / f"run-{stamp}.json").write_text(json.dumps({
        "schema": "repro-bench-run/1",
        "created": stamp,
        "seconds": seconds,
        "trace": bool(args.trace),
        "env": env,
        "workloads": results,
    }, indent=1) + "\n")

    reported = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, result in results.items():
        values = result["trace"]["metrics"] if args.trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{name}."
        for metric in reported:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
