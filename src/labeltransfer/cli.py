"""Command-line interface.

Subcommands: train-source, finetune, evaluate, sample, export-graph, sweep,
synth. Config files are JSON mirroring TrainConfig; CLI flags override file
values and the LST_SEED environment variable overrides the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import subprocess
import sys

import numpy as np

from . import pipeline, synth
from .data import greedy_sample, parse_conll
from .errors import InputError, LabelTransferError
from .gw import gromov_wasserstein, plan_to_csv
from .pipeline import Model, TrainConfig, aggregate, build_source_graph, evaluate, finetune, train_source


@contextlib.contextmanager
def one_line_errors(prog: str):
    """End a package error or OSError with one ``prog: error:`` stderr line and exit status 2."""
    try:
        yield
    except (LabelTransferError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        sys.exit(2)


def machine(root) -> dict:
    """The machine and checkout a record was taken on.

    ``nproc`` is ``os.cpu_count()``, as in every committed record; ``git_head``
    and ``git_dirty`` (uncommitted changes, so HEAD does not hold the code that
    ran) are None where git fails in ``root``.
    """
    def git(*argv):
        try:
            proc = subprocess.run(["git", *argv], cwd=root, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return proc.stdout.strip()

    status = git("status", "--porcelain")
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "python": platform.python_version(),
            "git_head": git("rev-parse", "HEAD"), "git_dirty": None if status is None else bool(status)}


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_config(path: str | None, overrides: dict | None = None) -> TrainConfig:
    config = TrainConfig.from_json(_read_text(path)) if path else TrainConfig()
    fields = dataclasses.asdict(config)
    if overrides:
        fields.update({k: v for k, v in overrides.items() if v is not None})
    if "LST_SEED" in os.environ:
        try:
            fields["seed"] = int(os.environ["LST_SEED"])
        except ValueError as exc:
            raise InputError(f"LST_SEED must be an integer, got {os.environ['LST_SEED']!r}") from exc
    return TrainConfig(**fields)


def _read_corpus(path: str):
    with open(path, "rb") as fh:
        return parse_conll(fh.read())


def check_seeds(seeds: int | None):
    if seeds is not None and seeds < 1:
        raise InputError(f"--seeds must be at least 1, got {seeds}")


def sweep_values(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"--values must be comma-separated numbers, got {text!r}") from None


def cmd_train_source(args):
    config = load_config(args.config)
    corpus = _read_corpus(args.train)
    model = train_source(corpus, config)
    model.save(args.out)
    print(json.dumps({"labels": list(model.labels), "out": args.out}))


def cmd_finetune(args):
    overrides = {"ablate_gw": args.ablate_gw or None, "ablate_aux": args.ablate_aux or None}
    config = load_config(args.config, overrides)
    f0 = Model.load(args.source_model)
    corpus = _read_corpus(args.train)
    model, log = finetune(f0, corpus, config)
    model.save(args.out)
    print(json.dumps({"labels": list(model.labels), "out": args.out, "log": log}))


def cmd_evaluate(args):
    check_seeds(args.seeds)
    if args.seeds and "{seed}" not in args.model:
        raise InputError("--seeds needs a --model path containing {seed}")
    corpus = _read_corpus(args.test)
    paths = [args.model]
    if args.seeds:
        paths = [args.model.replace("{seed}", str(s)) for s in range(args.seeds)]
    results = []
    for path in paths:
        p, r, f1 = evaluate(Model.load(path), corpus)
        results.append({"precision": p, "recall": r, "f1": f1})
    out = {"runs": results, "f1": aggregate(r["f1"] for r in results)}
    print(json.dumps(out, indent=2))


def cmd_sample(args):
    corpus = _read_corpus(args.train)
    sampled = greedy_sample(corpus, args.k, args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(sampled.to_conll())
    print(json.dumps({"sentences": len(sampled.sentences), "out": args.out}))


def cmd_export_graph(args):
    """Write the source graph (and the plan); every input is read and the plan solved first."""
    if args.plan and not args.target_model:
        raise InputError("--plan requires --target-model")
    for flag, path in (("--out", args.out), ("--plan", args.plan)):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise InputError(f"{flag}: no directory for {path}")
    config = load_config(args.config)
    f0 = Model.load(args.source_model)
    corpus = _read_corpus(args.train)
    graph = build_source_graph(f0, corpus, config)
    if args.plan:
        tgraph = build_source_graph(Model.load(args.target_model), corpus, config)
        gs = graph.subgraph(list(tgraph.labels))
        result = gromov_wasserstein(
            gs, tgraph, epsilon=config.epsilon,
            outer_iter=config.outer_iter, inner_iter=config.inner_iter, tol=config.gw_tol,
        )
        if result is None:
            raise InputError("graphs degenerate; no plan to export")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(graph.to_json())
    if args.plan:
        with open(args.plan, "w", encoding="utf-8") as fh:
            fh.write(plan_to_csv(gs.labels, tgraph.labels, result.plan.matrix))
    print(json.dumps({"out": args.out, "plan": args.plan}))


def cmd_sweep(args):
    values = sweep_values(args.values)
    check_seeds(args.seeds)
    seeds = list(range(args.seeds)) if args.seeds else None
    config = load_config(args.config)
    f0 = Model.load(args.source_model)
    train_corpus = _read_corpus(args.train)
    test_corpus = _read_corpus(args.test)
    csv_text = pipeline.sweep(args.param, values, f0, train_corpus, test_corpus, config, seeds=seeds)
    sys.stdout.write(csv_text)


def cmd_synth(args):
    spec = synth.SynthSpec.from_json(_read_text(args.spec)) if args.spec else synth.SynthSpec()
    task = synth.generate(spec)
    synth.write_task(task, args.out_dir)
    print(json.dumps({"out_dir": args.out_dir, "target_labels": sorted(spec.target_parents)}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="labeltransfer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-source", help="train the source-domain tagger")
    p.add_argument("--train", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_source)

    p = sub.add_parser("finetune", help="fine-tune on target data with graph matching")
    p.add_argument("--source-model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--ablate-gw", action="store_true")
    p.add_argument("--ablate-aux", action="store_true")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="micro P/R/F1 of a checkpoint on a test set")
    p.add_argument("--model", required=True, help="checkpoint path; may contain {seed}")
    p.add_argument("--test", required=True)
    p.add_argument("--seeds", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sample", help="greedy few-shot sampling of a training set")
    p.add_argument("--train", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("export-graph", help="export the source label graph (and a transport plan)")
    p.add_argument("--source-model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--plan", help="also export the transport plan CSV to this path")
    p.add_argument("--target-model", help="fine-tuned checkpoint used for the plan")
    p.set_defaults(func=cmd_export_graph)

    p = sub.add_parser("sweep", help="hyperparameter sweep; CSV to stdout")
    p.add_argument("--param", required=True, choices=sorted(pipeline.SWEEP_PARAMS))
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--source-model", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--config")
    p.add_argument("--seeds", type=int)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate a synthetic two-domain corpus")
    p.add_argument("--spec", help="JSON synth spec (defaults used when omitted)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None):
    """Run one subcommand; bad input exits with status 2 and one stderr line."""
    args = build_parser().parse_args(argv)
    with one_line_errors("labeltransfer"):
        args.func(args)


if __name__ == "__main__":
    main()
