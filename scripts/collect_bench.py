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

``--compare A.json B.json`` reads two records and starts no run: per
workload and end-to-end metric it prints both medians and the relative
change from A to B, marking each change larger than that metric's bound in
the ``--root`` checkout's BENCHMARK.json as ``better`` or ``WORSE``.

    PYTHONPATH=src python3 scripts/collect_bench.py --root ../parent --out BENCH_0.json
    PYTHONPATH=src python3 scripts/collect_bench.py
    PYTHONPATH=src python3 scripts/collect_bench.py --compare BENCH_3.json BENCH_4.json
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


def read_json(path, what: str, read):
    """``read(the JSON object at path)``; InputError if the file is not JSON or ``read`` fails."""
    with open(path, encoding="utf-8") as fh:
        try:
            return read(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise InputError(f"{fh.name} is not {what} ({type(exc).__name__}: {exc})") from None


def check_args(args):
    """(checkout root, workload names, run seconds, output path), or InputError."""
    root = Path(args.root).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise InputError(f"no perfbench/run.py under {root}")
    workloads, seconds = read_json(root / "BENCHMARK.json", "a benchmark declaration", lambda b: (
        [w["name"] for w in b["workloads"]], b["run_seconds"]))
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


def compare(args) -> list[str]:
    """The ``--compare`` table of two records, or InputError before any line."""
    if args.out:
        raise InputError("--compare starts no run and writes no record; drop --out")
    metrics = read_json(Path(args.root) / "BENCHMARK.json", "a benchmark declaration", lambda b: {
        m["name"]: (m["bound"], {"lower": 1, "higher": -1}[m["better"]]) for m in b["end_to_end"]})

    def medians(record):
        return {(w, m): entry["end_to_end"][m]["median"]
                for w, entry in record["workloads"].items() for m in metrics}

    a, b = (read_json(path, "a benchmark record", medians) for path in args.compare)
    if a.keys() != b.keys():
        raise InputError(f"the records hold other workloads: {sorted({w for w, _ in a})} "
                         f"and {sorted({w for w, _ in b})}")
    lines = [f"{'workload':<16}{'metric':<14}{'A median':>12}{'B median':>12}{'change':>9}"]
    for (workload, metric), before in a.items():
        after = b[workload, metric]
        change = (after - before) / before if before else float("nan")
        bound, sign = metrics[metric]
        mark = ""
        if abs(change) > bound:
            mark = f"  beyond {bound:.0%}: {'WORSE' if sign * change > 0 else 'better'}"
        lines.append(f"{workload:<16}{metric:<14}{before:>12.5g}{after:>12.5g}{change:>+9.1%}{mark}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(REPO),
                        help="checkout to benchmark, or whose bounds --compare uses (default: this one)")
    parser.add_argument("--out", help="record path (default: the next free BENCH_<n>.json here)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the change of each end-to-end median from record A to record B")
    args = parser.parse_args(argv)
    if args.compare:
        with one_line_errors("collect_bench"):
            lines = compare(args)
        print("\n".join(lines))
        return
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
