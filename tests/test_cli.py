"""End-to-end command-line workflow on a small synthetic task."""

import contextlib
import hashlib
import io
import json
import runpy
import shutil
import subprocess
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from labeltransfer import fusion as fu
from labeltransfer import gw, pipeline, synth
from labeltransfer.cli import main
from labeltransfer.data import TaggedCorpus, entity_counts, parse_conll
from labeltransfer.pipeline import Model, evaluate


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Run the full CLI flow once; individual tests inspect the artifacts."""
    root = tmp_path_factory.mktemp("cliflow")
    spec = {
        "seed": 0,
        "source_sentences": 60,
        "source_test_sentences": 20,
        "target_train_sentences": 40,
        "target_test_sentences": 20,
    }
    (root / "spec.json").write_text(json.dumps(spec))
    config = {"d_h": 16, "d_p": 8, "epochs": 40, "learning_rate": 0.3, "seed": 0}
    (root / "config.json").write_text(json.dumps(config))
    fast = dict(config, epochs=2)
    (root / "fast.json").write_text(json.dumps(fast))

    main(["synth", "--spec", str(root / "spec.json"), "--out-dir", str(root / "data")])
    main([
        "train-source",
        "--train", str(root / "data" / "source_train.conll"),
        "--config", str(root / "config.json"),
        "--out", str(root / "f0.ckpt"),
    ])
    main([
        "sample",
        "--train", str(root / "data" / "target_train.conll"),
        "--k", "5", "--seed", "0",
        "--out", str(root / "fewshot.conll"),
    ])
    main([
        "finetune",
        "--source-model", str(root / "f0.ckpt"),
        "--train", str(root / "fewshot.conll"),
        "--config", str(root / "fast.json"),
        "--out", str(root / "fused.ckpt"),
    ])
    return root


def test_synth_writes_four_splits(workdir):
    for name in ("source_train", "source_test", "target_train", "target_test"):
        assert (workdir / "data" / f"{name}.conll").exists()


def test_train_source_checkpoint_loads(workdir):
    model = Model.load(str(workdir / "f0.ckpt"))
    assert model.kind == "source"
    assert model.labels == ("L1", "L2")


def test_sample_meets_quota(workdir):
    sampled = parse_conll((workdir / "fewshot.conll").read_text())
    counts = entity_counts(sampled)
    assert all(c >= 5 for c in counts.values())


def test_sample_negative_seed_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["sample", "--train", str(workdir / "data" / "target_train.conll"),
              "--k", "5", "--seed", "-1", "--out", str(workdir / "never.conll")])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "never.conll").exists()


def test_finetune_config_d_h_other_than_the_source_models_exits_2(workdir, capsys):
    # f0.ckpt has d_h 16
    (workdir / "d_h6.json").write_text(json.dumps({"d_h": 6, "d_p": 8, "epochs": 1}))
    with pytest.raises(SystemExit) as exc_info:
        main(["finetune", "--source-model", str(workdir / "f0.ckpt"),
              "--train", str(workdir / "fewshot.conll"), "--config", str(workdir / "d_h6.json"),
              "--out", str(workdir / "never.ckpt")])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "never.ckpt").exists()


def test_finetune_checkpoint_has_graph(workdir):
    model = Model.load(str(workdir / "fused.ckpt"))
    assert model.kind == "fused"
    assert model.source_graph is not None
    assert model.source_graph.labels == ("L1A", "L1B", "L2A", "L2B")


def test_evaluate_outputs_json(workdir, capsys):
    main([
        "evaluate",
        "--model", str(workdir / "fused.ckpt"),
        "--test", str(workdir / "data" / "target_test.conll"),
    ])
    out = json.loads(capsys.readouterr().out)
    assert "f1" in out and 0.0 <= out["f1"]["mean"] <= 1.0


def test_export_graph_and_plan(workdir, capsys):
    main([
        "export-graph",
        "--source-model", str(workdir / "f0.ckpt"),
        "--train", str(workdir / "data" / "target_train.conll"),
        "--config", str(workdir / "config.json"),
        "--out", str(workdir / "graph.json"),
        "--plan", str(workdir / "plan.csv"),
        "--target-model", str(workdir / "fused.ckpt"),
    ])
    capsys.readouterr()
    graph = json.loads((workdir / "graph.json").read_text())
    assert set(graph) == {"labels", "nodes", "edges"}
    plan_lines = (workdir / "plan.csv").read_text().strip().splitlines()
    assert plan_lines[0].startswith(",")
    assert len(plan_lines) == len(graph["labels"]) + 1


def test_sweep_csv_format(workdir, capsys):
    main([
        "sweep",
        "--param", "lambda2",
        "--values", "0.0,0.01",
        "--source-model", str(workdir / "f0.ckpt"),
        "--train", str(workdir / "fewshot.conll"),
        "--test", str(workdir / "data" / "target_test.conll"),
        "--config", str(workdir / "fast.json"),
    ])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "value,mean_f1,std_f1"
    assert len(lines) == 3
    for line in lines[1:]:
        value, mean_f1, std_f1 = line.split(",")
        assert 0.0 <= float(mean_f1) <= 1.0


def test_seed_env_override(workdir, capsys, monkeypatch):
    monkeypatch.setenv("LST_SEED", "1")
    main([
        "finetune",
        "--source-model", str(workdir / "f0.ckpt"),
        "--train", str(workdir / "fewshot.conll"),
        "--config", str(workdir / "fast.json"),
        "--out", str(workdir / "fused_seed1.ckpt"),
    ])
    capsys.readouterr()
    model = Model.load(str(workdir / "fused_seed1.ckpt"))
    assert model.config.seed == 1
    base = Model.load(str(workdir / "fused.ckpt"))
    assert model.save_bytes() != base.save_bytes()


def test_ablation_flags_reach_config(workdir, capsys):
    main([
        "finetune",
        "--source-model", str(workdir / "f0.ckpt"),
        "--train", str(workdir / "fewshot.conll"),
        "--config", str(workdir / "fast.json"),
        "--ablate-gw", "--ablate-aux",
        "--out", str(workdir / "fused_ablate.ckpt"),
    ])
    capsys.readouterr()
    model = Model.load(str(workdir / "fused_ablate.ckpt"))
    assert model.config.ablate_gw and model.config.ablate_aux


def _assert_one_line_error(capsys, exc_info) -> str:
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("labeltransfer: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def test_evaluate_truncated_checkpoint_exits_2(workdir, capsys):
    raw = (workdir / "fused.ckpt").read_bytes()
    (workdir / "truncated.ckpt").write_bytes(raw[:-5])
    with pytest.raises(SystemExit) as exc_info:
        main([
            "evaluate",
            "--model", str(workdir / "truncated.ckpt"),
            "--test", str(workdir / "data" / "target_test.conll"),
        ])
    err = _assert_one_line_error(capsys, exc_info)
    assert err.startswith(f"labeltransfer: error: {workdir / 'truncated.ckpt'}: ")


def test_evaluate_seeds_names_the_truncated_checkpoint(workdir, capsys):
    raw = (workdir / "fused.ckpt").read_bytes()
    (workdir / "trunc0.ckpt").write_bytes(raw)
    (workdir / "trunc1.ckpt").write_bytes(raw[:-5])
    with pytest.raises(SystemExit) as exc_info:
        main(["evaluate", "--model", str(workdir / "trunc{seed}.ckpt"),
              "--test", str(workdir / "data" / "target_test.conll"), "--seeds", "2"])
    err = _assert_one_line_error(capsys, exc_info)
    assert err.startswith(f"labeltransfer: error: {workdir / 'trunc1.ckpt'}: ")
    assert "cut short" in err


def test_non_integer_seed_env_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.setenv("LST_SEED", "abc")
    with pytest.raises(SystemExit) as exc_info:
        main([
            "train-source",
            "--train", str(workdir / "data" / "source_train.conll"),
            "--out", str(workdir / "never.ckpt"),
        ])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "never.ckpt").exists()


@pytest.mark.parametrize(
    "text",
    [
        '{"epochs": 2,',
        '{"temperature": "x"}',
        '{"epochs": "x"}',
        '{"d_h": 2.5}',
        '{"ablate_gw": "no"}',
        '{"batch_size": 0}',
        '{"seed": -3}',
    ],
    ids=["truncated", "str_temperature", "str_epochs", "float_d_h", "str_ablate_gw",
         "zero_batch_size", "negative_seed"],
)
def test_malformed_config_json_exits_2(workdir, capsys, text):
    (workdir / "broken.json").write_text(text)
    with pytest.raises(SystemExit) as exc_info:
        main([
            "train-source",
            "--train", str(workdir / "data" / "source_train.conll"),
            "--config", str(workdir / "broken.json"),
            "--out", str(workdir / "never.ckpt"),
        ])
    _assert_one_line_error(capsys, exc_info)


def test_negative_seed_env_exits_2(workdir, capsys, monkeypatch):
    monkeypatch.setenv("LST_SEED", "-1")
    with pytest.raises(SystemExit) as exc_info:
        main([
            "train-source",
            "--train", str(workdir / "data" / "source_train.conll"),
            "--out", str(workdir / "never.ckpt"),
        ])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "never.ckpt").exists()


def test_evaluate_seeds_without_seed_template_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["evaluate", "--model", str(workdir / "fused.ckpt"),
              "--test", str(workdir / "data" / "target_test.conll"), "--seeds", "3"])
    _assert_one_line_error(capsys, exc_info)


def test_evaluate_seed_template_evaluates_one_checkpoint_per_seed(workdir, capsys):
    # other braces in the path are literal
    test = workdir / "data" / "target_test.conll"
    (workdir / "run{x}0.ckpt").write_bytes((workdir / "fused.ckpt").read_bytes())
    main([
        "finetune",
        "--source-model", str(workdir / "f0.ckpt"),
        "--train", str(workdir / "fewshot.conll"),
        "--config", str(workdir / "fast.json"),
        "--ablate-gw",
        "--out", str(workdir / "run{x}1.ckpt"),
    ])
    capsys.readouterr()
    paths = [str(workdir / f"run{{x}}{seed}.ckpt") for seed in range(2)]
    assert Model.load(paths[0]).save_bytes() != Model.load(paths[1]).save_bytes()
    main(["evaluate", "--model", str(workdir / "run{x}{seed}.ckpt"), "--test", str(test),
          "--seeds", "2"])
    runs = json.loads(capsys.readouterr().out)["runs"]
    corpus = parse_conll(test.read_text())
    expected = [evaluate(Model.load(path), corpus) for path in paths]
    assert [(r["precision"], r["recall"], r["f1"]) for r in runs] == expected


def test_train_source_malformed_embedding_file_exits_2(workdir, capsys):
    (workdir / "bad_emb.jsonl").write_text('{"tokens": ["a"], "vectors": [[1.0, 2.0]]\n')
    (workdir / "file_encoder.json").write_text(json.dumps(
        {"d_h": 2, "d_p": 2, "epochs": 1, "encoder_mode": "file",
         "embedding_file": str(workdir / "bad_emb.jsonl")}))
    with pytest.raises(SystemExit) as exc_info:
        main(["train-source", "--train", str(workdir / "data" / "source_train.conll"),
              "--config", str(workdir / "file_encoder.json"), "--out", str(workdir / "never.ckpt")])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "never.ckpt").exists()


def test_export_plan_without_target_model_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["export-graph", "--source-model", str(workdir / "f0.ckpt"),
              "--train", str(workdir / "data" / "target_train.conll"),
              "--out", str(workdir / "graph_only.json"), "--plan", str(workdir / "never.csv")])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "graph_only.json").exists()
    assert not (workdir / "never.csv").exists()


@pytest.mark.parametrize("failure", ["corrupt_target", "missing_target", "one_label_corpus",
                                     "plan_in_missing_dir"])
def test_export_graph_writes_nothing_when_it_fails(workdir, tmp_path, capsys, failure):
    target, train = workdir / "fused.ckpt", workdir / "data" / "target_train.conll"
    out, plan = tmp_path / "graph.json", tmp_path / "plan.csv"
    if failure == "corrupt_target":
        target = tmp_path / "corrupt.ckpt"
        target.write_bytes((workdir / "fused.ckpt").read_bytes()[:-5])
    elif failure == "missing_target":
        target = tmp_path / "missing.ckpt"
    elif failure == "one_label_corpus":
        corpus = parse_conll(train.read_text())
        keep = corpus.label_set[0]
        sentences = tuple((tokens, tuple(t if t[2:] == keep else "O" for t in tags))
                          for tokens, tags in corpus.sentences)
        train = tmp_path / "one_label.conll"
        train.write_text(TaggedCorpus(sentences).to_conll())
    else:
        plan = tmp_path / "no_such_dir" / "plan.csv"
    with pytest.raises(SystemExit) as exc_info:
        main(["export-graph", "--source-model", str(workdir / "f0.ckpt"), "--train", str(train),
              "--config", str(workdir / "config.json"), "--out", str(out), "--plan", str(plan),
              "--target-model", str(target)])
    _assert_one_line_error(capsys, exc_info)
    assert not out.exists() and not plan.exists()


@pytest.mark.parametrize(
    "spec",
    [
        {"sentence_length": 5},
        {"source_sentences": "x"},
        {"target_parents": {"X": "Q"}},
        {"entity_words_per_label": 0},
        {"cue_scheme": "bogus"},
        {"source_sentences": -3},
        {"entity_word_noise": 0.1},
        {"cross_parent_noise": 0.1},
        {"ambiguous_words": 2},
        {"ambiguous_prob": 0.5},
        {"cue_placement": "far"},
        {"target_parents": {"L1": "L1", "L2": "L2"}, "target_mixtures": {"L1": {"L2": 1.0}}},
        {"source_labels": ["A", "a"], "target_parents": {"X": "A", "Y": "a"}},
    ],
    ids=["int_sentence_length", "str_count", "unknown_parent", "no_entity_words", "bogus_scheme",
         "negative_count", "retired_entity_word_noise", "retired_cross_parent_noise",
         "retired_ambiguous_words", "retired_ambiguous_prob", "retired_cue_placement",
         "target_label_is_source_label", "labels_differ_in_case"],
)
def test_malformed_synth_spec_exits_2(tmp_path, capsys, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc_info:
        main(["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "out")])
    _assert_one_line_error(capsys, exc_info)
    assert not (tmp_path / "out").exists()


def _sweep_args(workdir, *extra, param="lambda2"):
    return [
        "sweep",
        "--param", param,
        "--source-model", str(workdir / "f0.ckpt"),
        "--train", str(workdir / "fewshot.conll"),
        "--test", str(workdir / "data" / "target_test.conll"),
        "--config", str(workdir / "fast.json"),
        *extra,
    ]


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seeds_below_one_exits_2(workdir, capsys, command, seeds):
    if command == "evaluate":
        argv = ["evaluate", "--model", str(workdir / "fused.ckpt"),
                "--test", str(workdir / "data" / "target_test.conll"), "--seeds", seeds]
    else:
        argv = _sweep_args(workdir, "--values", "0.01", "--seeds", seeds)
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    _assert_one_line_error(capsys, exc_info)


@pytest.mark.parametrize("values", ["1,x", "", "0.01,,0.02"])
def test_sweep_non_numeric_values_exit_2(workdir, capsys, values):
    with pytest.raises(SystemExit) as exc_info:
        main(_sweep_args(workdir, "--values", values))
    _assert_one_line_error(capsys, exc_info)


@pytest.mark.parametrize("values", ["2,0", "2,nan"])
def test_sweep_out_of_range_value_exits_2_before_finetuning(workdir, capsys, monkeypatch, values):
    def no_finetune(*args, **kwargs):
        raise AssertionError("fine-tuning started before every value was checked")

    monkeypatch.setattr(pipeline, "finetune", no_finetune)
    with pytest.raises(SystemExit) as exc_info:
        main(_sweep_args(workdir, "--values", values, param="T"))
    _assert_one_line_error(capsys, exc_info)


# this checkout, and the end-to-end metrics of its benchmark
REPO = str(Path(__file__).resolve().parents[1])
BENCHMARK = json.loads((Path(REPO) / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
# a benchmark record of one workload whose every end-to-end median is 1
RECORD = json.dumps({"workloads": {"tag": {"end_to_end": {m: {"median": 1.0} for m in END_TO_END}}}})


@pytest.mark.parametrize(
    "script, argv, files",
    [
        ("run_ablation", ["--seeds", "1", "--k", "0"], {}),
        ("run_ablation", ["--seeds", "0"], {}),
        ("run_ablation", ["--seeds", "1", "--json-out", "no_such_dir/ABLATION_0.json"], {}),
        ("run_ablation", ["--seeds", "1", "--save", "no_such_dir"], {}),
        ("run_ablation", ["--seeds", "1", "--save", __file__], {}),
        ("run_ablation", ["--seeds", "1", "--against", __file__], {}),
        ("run_ablation", ["--seeds", "1", "--against", "no_such_dir"], {}),
        ("run_ablation", ["--seeds", "1", "--against", "{tmp}"], {}),
        ("run_ablation", ["--seeds", "1", "--against", "{tmp}"], {"0-f0.ckpt": "LTCK"}),
        ("run_ablation", ["--param", "nonsense", "--values", "1"], {}),
        ("run_ablation", ["--param", "T"], {}),
        ("run_ablation", ["--values", "1"], {}),
        ("run_ablation", ["--param", "T", "--values", "1,x"], {}),
        ("run_ablation", ["--param", "T", "--values", "2,0"], {}),
        ("run_ablation", ["--param", "T", "--values", "2,nan"], {}),
        ("gw_bench", ["--problems", "0"], {}),
        ("gw_bench", ["--repeats", "0"], {}),
        ("collect_bench", ["--out", "no_such_dir/BENCH_0.json"], {}),
        ("collect_bench", ["--root", str(Path(__file__).parent)], {}),
        ("collect_bench", ["--root", "{tmp}"], {"perfbench/run.py": "", "BENCHMARK.json": "{"}),
        ("collect_bench", ["--root", "{tmp}"],
         {"perfbench/run.py": "", "BENCHMARK.json": '{"run_seconds": 15}'}),
        ("collect_bench", ["--compare", "{tmp}/A.json", "{tmp}/B.json"], {"A.json": RECORD}),
        ("collect_bench", ["--compare", "{tmp}/A.json", "{tmp}/B.json"],
         {"A.json": RECORD, "B.json": "{"}),
        ("collect_bench", ["--compare", "{tmp}/A.json", "{tmp}/B.json"],
         {"A.json": RECORD, "B.json": '{"workloads": {"tag": {}}}'}),
        ("collect_bench", ["--compare", "{tmp}/A.json", "{tmp}/B.json"],
         {"A.json": RECORD, "B.json": '{"workloads": {}}'}),
        ("collect_bench", ["--compare", "{tmp}/A.json", "{tmp}/B.json", "--out", "{tmp}/C.json"],
         {"A.json": RECORD, "B.json": RECORD}),
        ("collect_bench", ["--root", "{tmp}", "--compare", "{tmp}/A.json", "{tmp}/A.json"],
         {"A.json": RECORD, "BENCHMARK.json": '{"end_to_end": [{"name": "run_s"}]}'}),
        ("collect_bench", ["--pairs", "3"], {}),
        ("collect_bench", ["--pair", "{tmp}"], {}),
        ("collect_bench", ["--pair", REPO, "--pairs", "0"], {}),
        ("collect_bench", ["--pair", REPO, "--compare", "{tmp}/A.json", "{tmp}/A.json"],
         {"A.json": RECORD}),
        ("collect_bench", ["--pair", "{tmp}"],
         {"perfbench/run.py": "", "BENCHMARK.json": '{"workloads": [], "run_seconds": 15}'}),
        ("collect_bench", ["--pair", REPO, "--out", "no_such_dir/PAIR_0.json"], {}),
    ],
    ids=["run_ablation_zero_k", "run_ablation_zero_seeds", "run_ablation_json_out_in_missing_dir",
         "run_ablation_save_in_missing_dir", "run_ablation_save_is_a_file",
         "run_ablation_against_a_file", "run_ablation_against_missing",
         "run_ablation_against_no_checkpoints", "run_ablation_against_malformed_checkpoint",
         "run_ablation_unknown_param", "run_ablation_param_without_values",
         "run_ablation_values_without_param", "run_ablation_non_numeric_values",
         "run_ablation_out_of_range_value", "run_ablation_nan_value",
         "gw_bench_zero_problems", "gw_bench_zero_repeats",
         "collect_bench_out_in_missing_dir",
         "collect_bench_no_perfbench", "collect_bench_benchmark_not_json",
         "collect_bench_benchmark_without_workloads", "collect_bench_compare_missing_record",
         "collect_bench_compare_record_not_json", "collect_bench_compare_record_without_medians",
         "collect_bench_compare_other_workloads", "collect_bench_compare_with_out",
         "collect_bench_compare_benchmark_without_bounds", "collect_bench_pairs_without_pair",
         "collect_bench_pair_no_perfbench", "collect_bench_pair_zero_pairs",
         "collect_bench_pair_with_compare", "collect_bench_pair_parent_lacks_the_workloads",
         "collect_bench_pair_out_in_missing_dir"],
)
def test_script_bad_input_exits_2_before_any_work(capsys, monkeypatch, tmp_path, script, argv, files):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the input was checked")

    for name, text in files.items():  # a checkout for --root or --against, under {tmp}
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    # the scripts bind these names when they load
    monkeypatch.setattr(synth, "generate", no_work)
    monkeypatch.setattr(pipeline, "train_source", no_work)
    monkeypatch.setattr(pipeline, "finetune", no_work)
    monkeypatch.setattr(gw, "gromov_wasserstein_distances", no_work)
    monkeypatch.setattr(subprocess, "run", no_work)  # collect_bench's benchmark runs
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # gw_bench sets them; restored afterwards
    namespace = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / f"{script}.py"))
    with pytest.raises(SystemExit) as exc_info:
        namespace["main"]([arg.replace("{tmp}", str(tmp_path)) for arg in argv])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{script}: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _stub_checkout(root: Path) -> Path:
    """A directory that passes for a checkout: a perfbench/run.py and this BENCHMARK.json."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return root


def _stub_benchmark_runs(monkeypatch, values, cpu=lambda cwd, i: [1.0]):
    """Make ``subprocess.run`` answer perfbench runs with ``values(cwd, run index)``; returns the cwds.

    ``values`` gives the end-to-end metrics of one run, and ``cpu`` its
    rounds' ``cpu_s``, which go to the run's record under the cwd's
    perfbench/out/, as perfbench writes it; git calls fail, as outside a
    checkout.
    """
    cwds = []

    def run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            raise OSError("no git here")
        assert argv[1:3] == ["perfbench/run.py", "--workload"] and argv[-2:] == ["--trace", "0"]
        cwds.append(str(cwd))
        i = len(cwds) - 1
        out = Path(cwd) / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        notes = [{"cpu_s": c} for c in cpu(str(cwd), i)]
        (out / f"result-{argv[3]}-seed{argv[5]}-trace0.json").write_text(json.dumps({"notes": notes}))
        metrics = {m: {"value": v, "unit": "-"} for m, v in values(str(cwd), i).items()}
        line = json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, stdout=f"progress\n{line}\n", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    return cwds


def test_collect_bench_pair_of_a_checkout_against_itself(capsys, monkeypatch, tmp_path):
    root = str(_stub_checkout(tmp_path / "checkout"))
    cwds = _stub_benchmark_runs(monkeypatch, lambda cwd, i: {m: 1.0 + (i // 2) for m in END_TO_END})
    namespace = runpy.run_path(str(Path(REPO) / "scripts" / "collect_bench.py"))
    out = tmp_path / "PAIR_0.json"
    namespace["main"](["--root", root, "--pair", root, "--pairs", "3", "--out", str(out)])
    record = json.loads(out.read_text())
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert list(record["workloads"]) == workloads
    assert len(cwds) == 2 * 3 * len(workloads) and set(cwds) == {root}
    assert record["pairs"] == 3 and record["seconds"] == BENCHMARK["run_seconds"]
    for entry in record["workloads"].values():
        assert entry["first"] == ["parent", "change", "parent"]
        assert entry["f1_equal"] is True
        assert (entry["attempted"], entry["failed"]) == (12, 0)
        assert sorted(entry["end_to_end"]) == sorted(END_TO_END)
        for metric in entry["end_to_end"].values():
            assert metric["parent"] == metric["change"]
            assert metric["median_ratio"] == 1.0
            assert (metric["wins"], metric["losses"], metric["sign_test_p"]) == (0, 0, 1.0)
            assert metric["verdict"] == "within"
            assert metric["parent_iqr"] == 1.0 and metric["resolved"] is False  # parent: 1, 2, 3
        assert entry["cpu_s"] == {"parent_median": 1.0, "change_median": 1.0, "median_ratio": 1.0,
                                  "parent": [1.0] * 3, "change": [1.0] * 3}
    index = record["machine_index_s"]
    assert sorted(index) == ["after", "before"] and all(s > 0 for s in index.values())
    stdout = capsys.readouterr().out
    assert stdout.count("(context, no verdict)") == len(workloads)
    assert "machine index: " in stdout and stdout.rstrip().endswith(f"wrote {out}")


def test_collect_bench_record_times_the_machine_index_around_its_runs(capsys, monkeypatch, tmp_path):
    root = str(_stub_checkout(tmp_path / "checkout"))
    calls = []

    def run(argv, cwd=None, **kwargs):
        if argv[0] == "git":
            raise OSError("no git here")
        calls.append(argv)
        metrics = {m: {"value": 1.0, "unit": "-"} for m in END_TO_END}
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(subprocess, "run", run)
    namespace = runpy.run_path(str(Path(REPO) / "scripts" / "collect_bench.py"))
    loops = []
    index = namespace["machine_index"]
    namespace["main"].__globals__["machine_index"] = lambda: loops.append(len(calls)) or index()
    out = tmp_path / "BENCH_0.json"
    namespace["main"](["--root", root, "--out", str(out)])
    record = json.loads(out.read_text())
    assert loops == [0, len(calls)] and len(calls) == 2 * 5 * len(BENCHMARK["workloads"])
    assert sorted(record["machine_index_s"]) == ["after", "before"]
    assert all(0 < s < 10 for s in record["machine_index_s"].values())


def test_collect_bench_pair_alternates_and_applies_the_bounds(capsys, monkeypatch, tmp_path):
    parent, change = _stub_checkout(tmp_path / "parent"), str(_stub_checkout(tmp_path / "change"))

    def values(cwd, i):
        pair = i // 2  # runs 2k and 2k + 1 are pair k, whichever side went first
        if cwd == str(parent):
            return {"setup_s": 1.0, "run_s": 1.0, "tokens_per_s": 100.0, "f1": 0.5, "peak_rss_mb": 40.0}
        return {"setup_s": 1.0, "run_s": 1.2 if pair == 1 else 0.7,  # loses pair 2 only
                "tokens_per_s": 100.0 / 0.7, "f1": 0.4 if pair == 3 else 0.5, "peak_rss_mb": 48.0}

    def cpu(cwd, i):  # a run's median round: 2 on the parent, 1 + pair on the change
        return [2.0, 1.0, 9.0] if cwd == str(parent) else [0.5, 1.0 + i // 2, 9.0]

    cwds = _stub_benchmark_runs(monkeypatch, values, cpu)
    namespace = runpy.run_path(str(Path(REPO) / "scripts" / "collect_bench.py"))
    out = tmp_path / "PAIR_0.json"
    namespace["main"](["--root", change, "--pair", str(parent), "--pairs", "5", "--out", str(out)])
    first = [cwds[i] for i in range(0, 10, 2)]  # the first workload's pairs
    assert first == [str(parent), change, str(parent), change, str(parent)]
    entry = json.loads(out.read_text())["workloads"][BENCHMARK["workloads"][0]["name"]]
    assert entry["first"] == ["parent", "change", "parent", "change", "parent"]
    assert entry["f1_equal"] is False
    metrics = entry["end_to_end"]
    run_s = metrics["run_s"]
    assert run_s["parent"] == [1.0] * 5 and run_s["change"] == [0.7, 1.2, 0.7, 0.7, 0.7]
    assert (run_s["wins"], run_s["losses"]) == (4, 1)
    assert run_s["median_ratio"] == pytest.approx(0.7)
    assert run_s["sign_test_p"] == pytest.approx(2 * (1 + 5) / 2**5)
    assert run_s["verdict"] == "better"  # 30 % faster, beyond the 25 % bound
    assert metrics["tokens_per_s"]["verdict"] == "better" and metrics["tokens_per_s"]["wins"] == 5
    assert metrics["peak_rss_mb"]["verdict"] == "WORSE"  # 20 % more, beyond the 10 % bound
    assert metrics["peak_rss_mb"]["sign_test_p"] == pytest.approx(2 / 2**5)
    assert metrics["setup_s"]["verdict"] == "within" and metrics["setup_s"]["sign_test_p"] == 1.0
    assert (metrics["f1"]["wins"], metrics["f1"]["losses"]) == (0, 1)
    # a gain is resolved in at least 9 of 10 pairs: 5 of 5, but not 4 of 5
    assert {m: e["resolved"] for m, e in metrics.items()} == {
        "setup_s": False, "run_s": False, "tokens_per_s": True, "f1": False, "peak_rss_mb": False}
    assert all(e["parent_iqr"] == 0.0 for e in metrics.values())
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert table[0][-2:] == ["IQR", "resolved"]
    rows = {row[1]: row for row in table[1:] if row[0] == BENCHMARK["workloads"][0]["name"]}
    assert rows["tokens_per_s"][-3:] == ["better", "0.0%", "yes"]
    assert rows["run_s"][-3:] == ["better", "0.0%", "no"]
    assert entry["cpu_s"] == {"parent_median": 2.0, "change_median": 3.0, "median_ratio": 1.5,
                              "parent": [2.0] * 5, "change": [1.0, 2.0, 3.0, 4.0, 5.0]}


def test_collect_bench_resolves_a_gain_only_beyond_the_parent_spread():
    paired = runpy.run_path(str(Path(REPO) / "scripts" / "collect_bench.py"))["paired"]
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]  # quartiles 1.1 and 1.3
    spread = paired(parent, [p - 0.1 for p in parent], 0.25, 1)
    assert spread["wins"] == 10 and spread["parent_iqr"] == pytest.approx(0.2)
    assert spread["resolved"] is False  # every pair better, but by less than the spread
    beyond = paired(parent, [p - 0.3 for p in parent], 0.25, 1)
    assert beyond["resolved"] is True
    one_loss = paired(parent, [p - 0.3 for p in parent[:9]] + [1.5], 0.25, 1)
    assert one_loss["wins"] == 9 and one_loss["resolved"] is True
    two_losses = paired(parent, [p - 0.3 for p in parent[:8]] + [1.5, 1.5], 0.25, 1)
    assert two_losses["resolved"] is False
    higher = paired([100.0] * 3, [120.0] * 3, 0.25, -1)  # higher is better
    assert higher["wins"] == 3 and higher["resolved"] is True


def test_collect_bench_compare_marks_changes_beyond_the_bound(capsys, monkeypatch, tmp_path):
    def no_run(*args, **kwargs):
        raise AssertionError("--compare started a benchmark run")

    after = json.loads(RECORD)
    medians = after["workloads"]["tag"]["end_to_end"]
    medians["run_s"]["median"] = 0.7  # 30 % faster, beyond the 25 % bound
    medians["peak_rss_mb"]["median"] = 1.05  # 5 % more, within the 10 % bound
    medians["tokens_per_s"]["median"] = 0.7  # 30 % slower
    (tmp_path / "A.json").write_text(RECORD)
    (tmp_path / "B.json").write_text(json.dumps(after))
    monkeypatch.setattr(subprocess, "run", no_run)
    namespace = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "collect_bench.py"))
    namespace["main"](["--compare", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
    rows = {tuple(line.split()[:2]): line for line in capsys.readouterr().out.splitlines()[1:]}
    assert sorted(rows) == sorted(("tag", m) for m in END_TO_END)
    assert rows["tag", "run_s"].endswith("-30.0%  beyond 25%: better")
    assert rows["tag", "tokens_per_s"].endswith("-30.0%  beyond 25%: WORSE")
    assert rows["tag", "peak_rss_mb"].endswith("+5.0%")
    assert rows["tag", "f1"].endswith("+0.0%")


def test_collect_bench_compare_scales_times_and_rates_by_the_machine_index(capsys, tmp_path):
    before, after = json.loads(RECORD), json.loads(RECORD)
    before["machine_index_s"] = {"before": 0.04, "after": 0.06}  # mean 0.05
    after["machine_index_s"] = {"before": 0.1, "after": 0.1}  # a machine twice as slow
    medians = after["workloads"]["tag"]["end_to_end"]
    medians["run_s"]["median"] = 2.4  # 20 % slower than twice the time
    medians["tokens_per_s"]["median"] = 0.5  # exactly half the rate
    (tmp_path / "A.json").write_text(json.dumps(before))
    (tmp_path / "B.json").write_text(json.dumps(after))
    namespace = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "collect_bench.py"))
    namespace["main"](["--compare", str(tmp_path / "A.json"), str(tmp_path / "B.json")])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[-2:] == ["per", "index"]
    assert lines[-1] == "machine index: A 0.05 s, B 0.1 s, B / A 2.000"
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in lines[1:-1]}
    assert rows["tag", "run_s"][2:4] == ["+140.0%", "+20.0%"]
    assert rows["tag", "run_s"][-1] == "WORSE"  # the verdict reads the unscaled change
    assert rows["tag", "tokens_per_s"][2:] == ["-50.0%", "+0.0%", "beyond", "25%:", "WORSE"]
    assert rows["tag", "f1"][2:] == ["+0.0%", "-"]  # neither a time nor a rate
    assert rows["tag", "peak_rss_mb"][2:] == ["+0.0%", "-"]


# the transfer task of `_run_ablation`, with small corpora
SMALL_TRANSFER_SPEC = dict(synth.TRANSFER_SPEC, source_sentences=40, source_test_sentences=10,
                           target_train_sentences=40, target_test_sentences=20)


def _run_ablation(monkeypatch, argv) -> list[dict]:
    """The per-seed hash lines of `scripts/run_ablation.py` on a shrunken transfer task."""
    monkeypatch.setattr(synth, "TRANSFER_SPEC", SMALL_TRANSFER_SPEC)
    monkeypatch.setattr(synth, "TRANSFER_CONFIG", dict(synth.TRANSFER_CONFIG, epochs=2))
    namespace = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_ablation.py"))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        namespace["main"](["--seeds", "2", "--k", "2", *argv])
    return [json.loads(line) for line in out.getvalue().splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory):
    """(directory, hash lines) of a shrunken two-seed `run_ablation.py --save`."""
    directory = tmp_path_factory.mktemp("saved_run")
    with pytest.MonkeyPatch.context() as monkeypatch:
        return directory, _run_ablation(monkeypatch, ["--save", str(directory)])


def test_run_ablation_save_then_against_reproduces_every_seed(saved_run, tmp_path, monkeypatch):
    directory, first = saved_run
    models = ("f0", "full", "no_gw", "no_aux", "none")
    assert sorted(p.name for p in directory.iterdir()) == sorted(
        f"{seed}-{name}.ckpt" for seed in (0, 1) for name in models)
    second = _run_ablation(monkeypatch, ["--against", str(directory),
                                         "--json-out", str(tmp_path / "record.json")])
    assert [line["seed"] for line in first] == [0, 1]
    deltas = [line.pop("max_abs_delta") for line in second]
    assert second == first
    assert deltas == [dict.fromkeys(models, 0.0)] * 2
    record = json.loads((tmp_path / "record.json").read_text())
    assert [h.pop("max_abs_delta") for h in record["hashes"]] == deltas and record["hashes"] == first
    assert set(record["machine"]) == {"nproc", "numpy", "python", "git_head", "git_dirty"}


def test_run_ablation_saved_models_are_checkpoints_of_the_printed_run(saved_run, tmp_path, capsys):
    directory, lines = saved_run
    for line in lines:
        seed = line["seed"]
        f0 = Model.load(str(directory / f"{seed}-f0.ckpt"))
        assert hashlib.sha256(f0.params.flat_data.tobytes()).hexdigest() == line["f0"]
        task = synth.generate(synth.SynthSpec(seed=seed, target_mixtures=synth.TRANSFER_MIX,
                                              **SMALL_TRANSFER_SPEC))
        test = tmp_path / f"target_test_{seed}.conll"
        test.write_text(task.target_test.to_conll())
        for name in ("full", "no_gw", "no_aux", "none"):
            path = directory / f"{seed}-{name}.ckpt"
            model = Model.load(str(path))
            assert hashlib.sha256(model.params.flat_data.tobytes()).hexdigest() == line[name]["params"]
            main(["evaluate", "--model", str(path), "--test", str(test)])
            assert json.loads(capsys.readouterr().out)["runs"][0]["f1"] == line[name]["f1"]


def _other_dims(path: Path, **dims):
    """Rewrite the checkpoint at ``path`` as a zero model of its kind with other ``dims``."""
    model = Model.load(str(path))
    config = replace(model.config, **dims)
    params = fu.ModelParams(d_h=config.d_h, d_p=config.d_p, n_types=model.params.n_types,
                            n_tags=model.params.n_tags, encoder_mode=config.encoder_mode)
    fused = model.kind == "fused"
    params.set_blocks({name: np.zeros(shape)
                       for name, shape in params.block_shapes(len(model.vocab), fused).items()})
    Model(model.kind, params, model.vocab, model.labels, config, model.source_graph).save(str(path))


@pytest.mark.parametrize(
    "edit, name, message",
    [
        ("d_p", "0-full", "block 5 is ('label_reps', (4, 33)), not ('label_reps', (4, 32))"),
        ("file_encoder", "1-no_aux", "block 0 is ('label_reps', (4, 32)), not ('embed', "),
        ("truncate", "1-none", "parameter block 'aux_b' is cut short"),
        ("delete", "0-f0", "No such file or directory"),
    ],
    ids=["other_d_p", "file_encoder", "truncated", "missing"],
)
def test_run_ablation_against_a_bad_saved_model_exits_2_before_training(
        saved_run, tmp_path, monkeypatch, capsys, edit, name, message):
    def no_training(*args, **kwargs):
        raise AssertionError("training started before the saved run was checked")

    directory = tmp_path / "saved"
    shutil.copytree(saved_run[0], directory)
    path = directory / f"{name}.ckpt"
    if edit == "d_p":
        _other_dims(path, d_p=33)
    elif edit == "file_encoder":
        _other_dims(path, encoder_mode="file")
    elif edit == "truncate":
        path.write_bytes(path.read_bytes()[:-5])
    else:
        path.unlink()
    monkeypatch.setattr(pipeline, "train_source", no_training)  # bound when the script loads
    with pytest.raises(SystemExit) as exc_info:
        _run_ablation(monkeypatch, ["--against", str(directory)])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("run_ablation: error: ") and str(path) in err and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_run_ablation_against_a_run_of_another_task_names_the_first_other_block(
        saved_run, tmp_path, monkeypatch, capsys):
    # seed 0's source model where seed 1's belongs: a model of this tree, of another vocabulary
    directory = tmp_path / "saved"
    shutil.copytree(saved_run[0], directory)
    shutil.copyfile(directory / "0-f0.ckpt", directory / "1-f0.ckpt")
    sizes = [len(Model.load(str(saved_run[0] / f"{seed}-f0.ckpt")).vocab) for seed in (0, 1)]
    assert sizes[0] != sizes[1]
    with pytest.raises(SystemExit) as exc_info:
        _run_ablation(monkeypatch, ["--against", str(directory)])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    expected = f"block 0 is ('embed', ({sizes[0]}, 32)), not ('embed', ({sizes[1]}, 32))"
    assert err.startswith("run_ablation: error: ") and str(directory / "1-f0.ckpt") in err
    assert expected in err and err.count("\n") == 1


def test_run_ablation_sweep_at_the_base_value_reproduces_full(tmp_path, monkeypatch):
    assert synth.TRANSFER_CONFIG["lambda2"] == 0.02
    sweep = ["--param", "lambda2", "--values", "0.02"]
    first = _run_ablation(monkeypatch, [*sweep, "--save", str(tmp_path),
                                        "--json-out", str(tmp_path / "record.json")])
    for line in first:
        assert line["lambda2=0.02"] == line["full"]
    record = json.loads((tmp_path / "record.json").read_text())
    assert record["paired"]["lambda2=0.02-full"] == {
        "mean": 0.0, "se": 0.0, "ci95": [0.0, 0.0], "wins": 0, "ties": 2, "losses": 0}
    second = _run_ablation(monkeypatch, [*sweep, "--against", str(tmp_path)])
    assert [line["max_abs_delta"]["lambda2=0.02"] for line in second] == [0.0, 0.0]


def test_run_ablation_paired_differences():
    paired = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_ablation.py"))["paired"]
    # mean 0.01; squared deviations sum to 0.001, so SE = sqrt(0.001 / 3) / 2
    stats = paired([0.02, -0.01, 0.0, 0.03])
    assert stats["mean"] == pytest.approx(0.01)
    assert stats["se"] == pytest.approx(np.sqrt(0.001 / 3) / 2)
    assert (stats["wins"], stats["ties"], stats["losses"]) == (2, 1, 1)
    assert -0.01 <= stats["ci95"][0] < 0.01 < stats["ci95"][1] <= 0.03
    assert paired([0.02, -0.01, 0.0, 0.03]) == stats  # a fixed-seed bootstrap
    # two seeds: a quarter of the resamples repeat each seed, so the interval spans both
    assert paired([0.01, 0.03])["ci95"] == pytest.approx([0.01, 0.03])
    assert paired([0.01, 0.03])["se"] == pytest.approx(0.01)
    assert paired([-0.004]) == {"mean": -0.004, "se": None, "ci95": None,
                                "wins": 0, "ties": 0, "losses": 1}
