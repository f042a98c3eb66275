#!/usr/bin/env python3
"""Time one per-batch GW solve: ms per `gromov_wasserstein_distances` call.

Solves random n x n problems (distances between points drawn in R^3) with
the solver arguments fine-tuning passes for each batch of the transfer
experiment (`pipeline.batch_gw_solver`), at n = 4, 8 and 12, the label
counts of fine-tuning batches.
Prints one JSON line per n with the median ms per call over --repeats
passes of --problems problems, plus the machine (`labeltransfer.cli.machine`).
Bad input exits with status 2 and one stderr line.

    PYTHONPATH=src python3 scripts/gw_bench.py
"""

import os

# one BLAS thread, as in the benchmark harness: read when numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from labeltransfer.cli import machine, one_line_errors
from labeltransfer.errors import InputError
from labeltransfer.gw import gromov_wasserstein_distances
from labeltransfer.pipeline import TrainConfig, batch_gw_solver
from labeltransfer.synth import TRANSFER_CONFIG


def distance_matrix(rng, n):
    pts = rng.normal(size=(n, 3))
    return np.linalg.norm(pts[:, None] - pts[None], axis=-1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--problems", type=int, default=20, help="problems per n (default 20)")
    parser.add_argument("--repeats", type=int, default=5, help="timed passes (default 5)")
    args = parser.parse_args(argv)
    with one_line_errors("gw_bench"):
        for flag, value in (("--problems", args.problems), ("--repeats", args.repeats)):
            if value < 1:
                raise InputError(f"{flag} must be at least 1, got {value}")
    host = machine(Path(__file__).resolve().parents[1])
    solver = batch_gw_solver(TrainConfig(**TRANSFER_CONFIG))
    for n in (4, 8, 12):
        rng = np.random.default_rng(n)
        problems = [(distance_matrix(rng, n), distance_matrix(rng, n)) for _ in range(args.problems)]
        for d_s, d_t in problems:  # warm-up pass, untimed
            gromov_wasserstein_distances(d_s, d_t, **solver)
        passes = []
        for _ in range(args.repeats):
            start = perf_counter()
            for d_s, d_t in problems:
                gromov_wasserstein_distances(d_s, d_t, **solver)
            passes.append((perf_counter() - start) * 1e3 / len(problems))
        print(json.dumps({
            "n": n,
            "ms_per_call": round(statistics.median(passes), 4),
            "solver": solver,
            "machine": host,
        }))


if __name__ == "__main__":
    main()
