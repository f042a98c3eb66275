#!/usr/bin/env python3
"""Collect the benchmark into one record, BENCH_<n>.json at the repo root.

Runs ``perfbench/run.py`` of a checkout (``--root``, by default this one) on
every workload that checkout's BENCHMARK.json names, for its
``run_seconds``, once per seed (0–4) with ``--trace 0`` (the end-to-end metrics)
and once with ``--trace 1`` (the per-layer metrics), each run in its own
process. It keeps no timer of its own: every number is read from the JSON
line a run prints. The record holds, per workload and metric, the median and
the quartiles over the seeds and each seed's value, the summed ``attempted``
and ``failed`` check counts, and the machine: ``nproc``, numpy, python, the
checkout's ``git rev-parse HEAD`` and whether its tree had uncommitted
changes. Bad input exits with status 2 and one stderr line, before any run.

    PYTHONPATH=src python3 scripts/collect_bench.py --root ../parent --out BENCH_0.json
    PYTHONPATH=src python3 scripts/collect_bench.py
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from labeltransfer.cli import machine, one_line_errors
from labeltransfer.errors import InputError

REPO = Path(__file__).resolve().parents[1]
# the seeds every record runs, so that any two records compare seed by seed
SEEDS = (0, 1, 2, 3, 4)


def next_record(root: Path) -> Path:
    n = 0
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    return root / f"BENCH_{n}.json"


def check_args(args):
    """(checkout root, workload names, run seconds, output path), or InputError."""
    root = Path(args.root).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise InputError(f"no perfbench/run.py under {root}")
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        try:
            benchmark = json.load(fh)
            workloads = [w["name"] for w in benchmark["workloads"]]
            seconds = benchmark["run_seconds"]
        except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise InputError(f"{fh.name} is not a benchmark declaration "
                             f"({type(exc).__name__}: {exc})") from None
    out = Path(args.out) if args.out else next_record(REPO)
    if out.exists():
        raise InputError(f"{out} exists; a record is never overwritten")
    if not out.parent.is_dir():
        raise InputError(f"no directory {out.parent} for the record")
    return root, workloads, seconds, out


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON line one ``perfbench/run.py`` process prints last."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        sys.exit(f"collect_bench: {workload} seed {seed} trace {trace} failed: {last}")
    return json.loads(lines[-1])


def summarize(runs: list[dict]) -> dict:
    """Per metric: unit, median, inclusive quartiles and the per-seed values."""
    out = {}
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "values": values}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(REPO), help="checkout to benchmark (default: this one)")
    parser.add_argument("--out", help="record path (default: the next free BENCH_<n>.json here)")
    args = parser.parse_args(argv)
    with one_line_errors("collect_bench"):
        root, workloads, seconds, out = check_args(args)
    record = {"machine": machine(root), "seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        runs = {0: [], 1: []}
        for seed in SEEDS:
            for trace in (0, 1):
                runs[trace].append(run_once(root, workload, seed, seconds, trace))
                print(f"{workload} seed {seed} trace {trace} done", file=sys.stderr)
        every = runs[0] + runs[1]
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "end_to_end": summarize(runs[0]),
            "per_layer": summarize(runs[1]),
        }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
