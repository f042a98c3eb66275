#!/usr/bin/env python3
"""Hyperparameter sweep on the synthetic transfer task.

Generates the transfer task of the acceptance gate and of run_ablation.py
(`synth.TRANSFER_MIX`, `TRANSFER_SPEC` and `TRANSFER_CONFIG`, seed 0), trains
the source tagger once, then sweeps one hyperparameter (temperature T, edge
threshold delta, or a loss weight) over a list of values, fine-tuning and
evaluating per value. ``--epochs`` overrides the task's epoch count. Emits
the CSV produced by the sweep driver. Bad input exits with status 2 and one
stderr line, before any work.
"""

import argparse
import sys

from labeltransfer.cli import check_seeds, one_line_errors, sweep_values
from labeltransfer.data import greedy_sample
from labeltransfer.errors import InputError
from labeltransfer.pipeline import SWEEP_PARAMS, TrainConfig, sweep, train_source
from labeltransfer.synth import TRANSFER_CONFIG, TRANSFER_MIX, TRANSFER_SPEC, SynthSpec, generate


def run(args) -> str:
    values = sweep_values(args.values)
    check_seeds(args.seeds)
    if args.k < 1:
        raise InputError(f"--k must be at least 1, got {args.k}")
    base = TrainConfig(seed=0, **dict(TRANSFER_CONFIG, epochs=args.epochs))
    task = generate(SynthSpec(seed=0, target_mixtures=TRANSFER_MIX, **TRANSFER_SPEC))
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, args.k, seed=0)
    return sweep(args.param, values, f0, few, task.target_test, base, seeds=range(args.seeds))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    parser.add_argument("--values", required=True, help="comma-separated values")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=TRANSFER_CONFIG["epochs"])
    args = parser.parse_args(argv)
    with one_line_errors("run_sweep"):
        csv_text = run(args)
    sys.stdout.write(csv_text)


if __name__ == "__main__":
    main()
