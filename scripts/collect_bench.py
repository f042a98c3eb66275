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

``--pair PARENT_ROOT`` times a change against its parent in alternating
pairs, so that both sides of a pair meet the same machine load. Per
workload of the ``--root`` checkout's BENCHMARK.json it runs ``--pairs``
pairs (default 10) of seed 0 with ``--trace 0``, one run on each checkout,
the parent first in odd pairs and the change first in even ones. The
record, ``PAIR_<n>.json`` by default, holds per workload and end-to-end
metric both sides' values and medians, the median of the per-pair ratios
change / parent, the change's wins and losses, a two-sided sign-test
p-value, a verdict: the metric's bound, unchanged, applied to the median
ratio, the parent's interquartile range and ``resolved``: whether the
change is better in at least nine tenths of the pairs and the two medians
differ by more than that range, the rule a claimed gain must meet. A metric
whose parent range exceeds its bound cannot resolve a regression of that
size either; the table prints the range as a share of the parent's median.
``f1_equal`` says whether F1 was equal in every pair. ``cpu_s`` holds
each run's median per-round CPU time, read from the record the run wrote
under its checkout's ``perfbench/out/``, with both sides' medians and the
median ratio: CPU time leaves out time the machine gave to other guests, so
it is context for reading ``run_s``, with no bound and no verdict.

Every record also holds ``machine_index_s``: the wall seconds of a fixed
loop of small numpy dot products and dict lookups (about 50 ms, no package
code), timed before the first run and after the last. Where both records
hold one, ``--compare`` also prints each time's change divided by the ratio
of the two records' indices (B / A, each the mean of its two loops), and
each rate's change multiplied by it: the change as on a machine as fast as
A's. That column is context for records taken on other days or machines,
with no verdict.

    PYTHONPATH=src python3 scripts/collect_bench.py --root ../parent --out BENCH_0.json
    PYTHONPATH=src python3 scripts/collect_bench.py
    PYTHONPATH=src python3 scripts/collect_bench.py --compare BENCH_3.json BENCH_4.json
    PYTHONPATH=src python3 scripts/collect_bench.py --pair ../parent --pairs 10
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from labeltransfer.cli import machine, one_line_errors
from labeltransfer.errors import InputError

REPO = Path(__file__).resolve().parents[1]
# the seeds every record runs, so that any two records compare seed by seed
SEEDS = (0, 1, 2, 3, 4)
# the seed of every --pair run: both sides of a pair, and every pair, time the same work
PAIR_SEED = 0
# pairs per workload in --pair mode, unless --pairs says otherwise
PAIRS = 10
# iterations of the machine-index loop, about 50 ms on a 2 vCPU guest
INDEX_LOOPS = 20_000


def next_record(root: Path, prefix: str = "BENCH") -> Path:
    n = 0
    while (root / f"{prefix}_{n}.json").exists():
        n += 1
    return root / f"{prefix}_{n}.json"


def read_json(path, what: str, read):
    """``read(the JSON object at path)``; InputError if the file is not JSON or ``read`` fails."""
    with open(path, encoding="utf-8") as fh:
        try:
            return read(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
            raise InputError(f"{fh.name} is not {what} ({type(exc).__name__}: {exc})") from None


def checkout(path) -> Path:
    """``path`` resolved, or InputError if it holds no ``perfbench/run.py``."""
    root = Path(path).resolve()
    if not (root / "perfbench" / "run.py").is_file():
        raise InputError(f"no perfbench/run.py under {root}")
    return root


def workloads_of(root: Path) -> tuple[list[str], float]:
    """(workload names, run seconds) of the checkout's BENCHMARK.json."""
    return read_json(root / "BENCHMARK.json", "a benchmark declaration", lambda b: (
        [w["name"] for w in b["workloads"]], b["run_seconds"]))


def new_record(out, prefix: str) -> Path:
    """The path a record goes to, or InputError if it exists or its directory does not."""
    out = Path(out) if out else next_record(REPO, prefix)
    if out.exists():
        raise InputError(f"{out} exists; a record is never overwritten")
    if not out.parent.is_dir():
        raise InputError(f"no directory {out.parent} for the record")
    return out


def check_args(args):
    """(checkout root, workload names, run seconds, output path), or InputError."""
    root = checkout(args.root)
    workloads, seconds = workloads_of(root)
    return root, workloads, seconds, new_record(args.out, "BENCH")


def machine_index() -> float:
    """Wall seconds of ``INDEX_LOOPS`` 16 x 16 dot products and 64-key dict lookups, after a warm-up."""
    a = np.linspace(0.0, 1.0, 256).reshape(16, 16)
    table = {i: i * i for i in range(64)}
    keys = range(64)
    for loops in (INDEX_LOOPS // 20, INDEX_LOOPS):
        start = perf_counter()
        for _ in range(loops):
            a.dot(a)
            sum(map(table.__getitem__, keys))
    return perf_counter() - start


def index_of(record: dict) -> float | None:
    """A record's machine index, the mean of its two loops; None for a record without one."""
    index = record.get("machine_index_s")
    return None if index is None else (index["before"] + index["after"]) / 2


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


def run_cpu_s(root: Path, workload: str, seed: int) -> float:
    """The median per-round ``cpu_s`` of the record the last untraced run wrote under ``root``."""
    path = root / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    try:
        return read_json(path, "a perfbench run record",
                         lambda r: statistics.median(note["cpu_s"] for note in r["notes"]))
    except (OSError, InputError) as exc:
        sys.exit(f"collect_bench: {workload} seed {seed}: no per-round cpu_s: {exc}")


def summarize(runs: list[dict]) -> dict:
    """Per metric: unit, median, inclusive quartiles and the per-seed values."""
    out = {}
    for name in sorted(runs[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "values": values}
    return out


def end_to_end_bounds(root) -> dict[str, tuple[float, int]]:
    """End-to-end metric -> (bound, sign): sign 1 where lower is better, -1 where higher is."""
    return read_json(Path(root) / "BENCHMARK.json", "a benchmark declaration", lambda b: {
        m["name"]: (m["bound"], {"lower": 1, "higher": -1}[m["better"]]) for m in b["end_to_end"]})


def verdict(change: float, bound: float, sign: int) -> str:
    """``change`` (relative, after / before - 1) against its bound: within, better or WORSE."""
    if abs(change) <= bound:
        return "within"
    return "WORSE" if sign * change > 0 else "better"


def compare(args) -> list[str]:
    """The ``--compare`` table of two records, or InputError before any line."""
    if args.out:
        raise InputError("--compare starts no run and writes no record; drop --out")
    metrics = end_to_end_bounds(args.root)
    # time metrics scale with the machine index, rates with its inverse
    scaling = read_json(Path(args.root) / "BENCHMARK.json", "a benchmark declaration", lambda b: {
        m["name"]: {"s": -1, "1/s": 1}.get(m["unit"]) for m in b["end_to_end"]})

    def medians(record):
        return {(w, m): entry["end_to_end"][m]["median"]
                for w, entry in record["workloads"].items() for m in metrics}, index_of(record)

    (a, index_a), (b, index_b) = (read_json(path, "a benchmark record", medians)
                                  for path in args.compare)
    if a.keys() != b.keys():
        raise InputError(f"the records hold other workloads: {sorted({w for w, _ in a})} "
                         f"and {sorted({w for w, _ in b})}")
    indexed = bool(index_a and index_b)
    lines = [f"{'workload':<16}{'metric':<14}{'A median':>12}{'B median':>12}{'change':>9}"
             + (f"{'per index':>11}" if indexed else "")]
    for (workload, metric), before in a.items():
        after = b[workload, metric]
        change = (after - before) / before if before else float("nan")
        bound, sign = metrics[metric]
        mark = ""
        if abs(change) > bound:
            mark = f"  beyond {bound:.0%}: {verdict(change, bound, sign)}"
        scaled = ""
        if indexed:
            power = scaling[metric]
            scaled = "-" if power is None else f"{(1 + change) * (index_b / index_a) ** power - 1:+.1%}"
        lines.append(f"{workload:<16}{metric:<14}{before:>12.5g}{after:>12.5g}{change:>+9.1%}"
                     + (f"{scaled:>11}" if indexed else "") + mark)
    if indexed:
        lines.append(f"machine index: A {index_a:.4g} s, B {index_b:.4g} s, B / A {index_b / index_a:.3f}")
    return lines


def sign_test(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses``; ties are left out."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def ratios(parent: list[float], change: list[float]) -> dict:
    """Both sides' medians and the median per-pair ratio change / parent (None if a parent value is 0)."""
    ratio = statistics.median(c / p for p, c in zip(parent, change)) if all(parent) else None
    return {"parent_median": statistics.median(parent), "change_median": statistics.median(change),
            "median_ratio": ratio, "parent": parent, "change": change}


def iqr(values: list[float]) -> float:
    """The distance between the inclusive quartiles of ``values`` (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def paired(parent: list[float], change: list[float], bound: float, sign: int) -> dict:
    """One metric's pairs: `ratios`, wins, losses, sign test, verdict, parent IQR, resolved."""
    diffs = [sign * (c - p) for p, c in zip(parent, change)]  # < 0: the change is better
    wins, losses = sum(d < 0 for d in diffs), sum(d > 0 for d in diffs)
    entry = ratios(parent, change)
    ratio = entry["median_ratio"]
    spread = iqr(parent)
    return {**entry, "wins": wins, "losses": losses, "sign_test_p": sign_test(wins, losses),
            "verdict": None if ratio is None else verdict(ratio - 1.0, bound, sign),
            "parent_iqr": spread,
            "resolved": 10 * wins >= 9 * len(parent)
            and abs(entry["change_median"] - entry["parent_median"]) > spread}


def ratio_row(workload: str, metric: str, entry: dict) -> str:
    """The start of a ``--pair`` table line: both medians and the median ratio of `ratios`."""
    ratio = "-" if entry["median_ratio"] is None else f"{entry['median_ratio']:.3f}"
    return (f"{workload:<16}{metric:<14}{entry['parent_median']:>12.5g}"
            f"{entry['change_median']:>12.5g}{ratio:>8}")


def check_pair_args(args):
    """(roots by side, pairs, workload names, run seconds, metric bounds, output path), or InputError."""
    if not args.pair:
        raise InputError("--pairs counts the pairs of --pair PARENT_ROOT, which is missing")
    if args.compare:
        raise InputError("--pair and --compare are two modes; give one")
    pairs = PAIRS if args.pairs is None else args.pairs
    if pairs < 1:
        raise InputError(f"--pairs must be at least 1, not {pairs}")
    roots = {"parent": checkout(args.pair), "change": checkout(args.root)}
    workloads, seconds = workloads_of(roots["change"])
    missing = set(workloads) - set(workloads_of(roots["parent"])[0])
    if missing:
        raise InputError(f"the parent declares no workload {sorted(missing)}")
    bounds = end_to_end_bounds(roots["change"])
    if "f1" not in bounds:
        raise InputError("the benchmark declares no end-to-end f1, which every pair compares")
    return roots, pairs, workloads, seconds, bounds, new_record(args.out, "PAIR")


def pair_main(args):
    """Run the alternating pairs and write their record (``--pair``)."""
    with one_line_errors("collect_bench"):
        roots, pairs, workloads, seconds, bounds, out = check_pair_args(args)
    record = {"machine": {side: machine(root) for side, root in roots.items()},
              "machine_index_s": {"before": machine_index()},
              "seed": PAIR_SEED, "seconds": seconds, "pairs": pairs, "workloads": {}}
    lines = [f"{'workload':<16}{'metric':<14}{'parent':>12}{'change':>12}{'ratio':>8}"
             f"{'wins':>7}{'p':>8}  {'verdict':<8}{'IQR':>7}  resolved"]
    for workload in workloads:
        runs = {"parent": [], "change": []}
        cpu = {"parent": [], "change": []}
        order = []
        for i in range(pairs):
            first = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            order.append(first[0])
            for side in first:
                runs[side].append(run_once(roots[side], workload, PAIR_SEED, seconds, 0))
                cpu[side].append(run_cpu_s(roots[side], workload, PAIR_SEED))
            print(f"{workload} pair {i + 1} of {pairs} done", file=sys.stderr)
        values = {side: {m: [r["metrics"][m]["value"] for r in rs] for m in bounds}
                  for side, rs in runs.items()}
        metrics = {m: paired(values["parent"][m], values["change"][m], *bounds[m]) for m in bounds}
        every = runs["parent"] + runs["change"]
        record["workloads"][workload] = {
            "first": order,
            "f1_equal": values["parent"]["f1"] == values["change"]["f1"],
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "end_to_end": metrics,
            "cpu_s": ratios(cpu["parent"], cpu["change"]),
        }
        for m, entry in metrics.items():
            iqr_share = entry["parent_iqr"] / entry["parent_median"] if entry["parent_median"] else 0.0
            lines.append(ratio_row(workload, m, entry) + f"{entry['wins']:>4}/{pairs:<2}"
                         f"{entry['sign_test_p']:>8.3g}  {entry['verdict']!s:<8}{iqr_share:>7.1%}  "
                         + ("yes" if entry["resolved"] else "no"))
        lines.append(ratio_row(workload, "cpu_s", record["workloads"][workload]["cpu_s"])
                     + "  (context, no verdict)")
    record["machine_index_s"]["after"] = machine_index()
    lines.append("machine index: {before:.4g} s before, {after:.4g} s after".format(
        **record["machine_index_s"]))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("\n".join(lines))
    print(f"wrote {out}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=str(REPO),
                        help="checkout to benchmark, or whose bounds --compare uses (default: this one)")
    parser.add_argument("--out", help="record path (default: the next free BENCH_<n>.json, "
                                      "or PAIR_<n>.json with --pair, here)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="print the change of each end-to-end median from record A to record B")
    parser.add_argument("--pair", metavar="PARENT_ROOT",
                        help="time --root against the checkout PARENT_ROOT in alternating pairs")
    parser.add_argument("--pairs", type=int,
                        help=f"pairs per workload in --pair mode (default: {PAIRS})")
    args = parser.parse_args(argv)
    if args.pair or args.pairs is not None:
        pair_main(args)
        return
    if args.compare:
        with one_line_errors("collect_bench"):
            lines = compare(args)
        print("\n".join(lines))
        return
    with one_line_errors("collect_bench"):
        root, workloads, seconds, out = check_args(args)
    record = {"machine": machine(root), "machine_index_s": {"before": machine_index()},
              "seeds": SEEDS, "seconds": seconds, "workloads": {}}
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
    record["machine_index_s"]["after"] = machine_index()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
