#!/usr/bin/env python3
"""Hyperparameter sweep on the synthetic transfer task.

Generates a synthetic task, trains the source tagger once, then sweeps one
hyperparameter (temperature T, edge threshold delta, or a loss weight) over a
list of values, fine-tuning and evaluating per value. Emits the CSV produced
by the sweep driver.
"""

import argparse
import sys

from labeltransfer.data import greedy_sample
from labeltransfer.pipeline import SWEEP_PARAMS, TrainConfig, sweep, train_source
from labeltransfer.synth import SynthSpec, generate


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--param", required=True, choices=sorted(SWEEP_PARAMS))
    parser.add_argument("--values", required=True, help="comma-separated values")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--k", type=int, default=20)
    parser.add_argument("--epochs", type=int, default=40)
    args = parser.parse_args()

    task = generate(SynthSpec(seed=0, source_sentences=200))
    base = TrainConfig(seed=0, learning_rate=0.3, epochs=args.epochs, batch_size=8,
                       inner_iter=50, outer_iter=10)
    f0 = train_source(task.source_train, base)
    few = greedy_sample(task.target_train, args.k, seed=0)
    values = [float(v) for v in args.values.split(",")]
    csv_text = sweep(args.param, values, f0, few, task.target_test, base,
                     seeds=range(args.seeds))
    sys.stdout.write(csv_text)


if __name__ == "__main__":
    main()
