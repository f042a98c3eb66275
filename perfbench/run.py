#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload transfer_full --seed 0 --seconds 15 --trace 0

Builds the workload's inputs from ``--seed`` (set-up, repeated and timed),
then runs whole rounds of the timed part until ``--seconds`` have passed and
checks every round's outputs. The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count the output checks,
and ``metrics`` holds the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``). A fuller record goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

import os

# one BLAS thread: the variables are read when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "tokens_per_s": "1/s", "f1": "score", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_share", "share")):
        if metric.endswith(suffix):
            return unit
    return "count"


def import_package():
    """Import ``labeltransfer`` from this checkout's ``src``, and nowhere else."""
    package = ROOT / "src" / "labeltransfer"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import labeltransfer

    if Path(labeltransfer.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: labeltransfer imported from {labeltransfer.__file__}")


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    import_package()
    import numpy as np

    import layers
    import tracing
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))

    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer(f"{tag}-pid{os.getpid()}") if args.trace else None
    solves = []
    # the checks run unpatched, so neither spans nor GW captures come from them
    instruments = layers.replacements(tracer, solves)
    setup_times, rounds, layer_rounds = [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            with tracing.patched(instruments):
                inputs = workload.setup(args.seed, str(workdir))
            setup_times.append(perf_counter() - t0)
        setup_spans = tracer.summary() if tracer else {}
        start = perf_counter()
        while True:
            if tracer:
                tracer.start_round(len(rounds) + 1)
            solves.clear()
            cpu = process_time()
            with tracing.patched(instruments):
                result = workload.run(inputs)
            # CPU time leaves out time the machine gave to other guests
            result.notes["cpu_s"] = process_time() - cpu
            if tracer:
                layer_rounds.append(layers.round_metrics(tracer, result.seconds))
            workload.check(inputs, result, solves)
            result.outputs = None  # keep no models alive between rounds
            rounds.append(result)
            elapsed = perf_counter() - start
            # start another round only if half of it still fits
            if elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        values = layers.median_metrics(layer_rounds)
        generate = setup_spans.get("synth.generate", {"incl_s": 0.0, "calls": 1})
        values["synth.generate_ms"] = 1e3 * generate["incl_s"] / generate["calls"]
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(values.items())}
        tracer.write(str(OUT_DIR / f"spans-{tag}.jsonl"))
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(r.seconds for r in rounds),
            "tokens_per_s": statistics.median(r.tokens / r.seconds for r in rounds),
            "f1": statistics.median(r.f1 for r in rounds),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    for message in errors[:10]:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "numpy": np.__version__, "python": platform.python_version(),
        "setup_times_s": setup_times, "round_times_s": [r.seconds for r in rounds],
        "notes": [r.notes for r in rounds],
        "errors": errors[:50], "metrics": metrics,
    }
    with open(OUT_DIR / f"result-{tag}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
