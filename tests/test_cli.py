"""End-to-end command-line workflow on a small synthetic task."""

import json

import pytest

from labeltransfer.cli import main
from labeltransfer.data import entity_counts, parse_conll
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


def _assert_one_line_error(capsys, exc_info):
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("labeltransfer: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_evaluate_truncated_checkpoint_exits_2(workdir, capsys):
    raw = (workdir / "fused.ckpt").read_bytes()
    (workdir / "truncated.ckpt").write_bytes(raw[:-5])
    with pytest.raises(SystemExit) as exc_info:
        main([
            "evaluate",
            "--model", str(workdir / "truncated.ckpt"),
            "--test", str(workdir / "data" / "target_test.conll"),
        ])
    _assert_one_line_error(capsys, exc_info)


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
    ],
    ids=["truncated", "str_temperature", "str_epochs", "float_d_h", "str_ablate_gw",
         "zero_batch_size"],
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


def test_export_plan_without_target_model_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["export-graph", "--source-model", str(workdir / "f0.ckpt"),
              "--train", str(workdir / "data" / "target_train.conll"),
              "--out", str(workdir / "graph_only.json"), "--plan", str(workdir / "never.csv")])
    _assert_one_line_error(capsys, exc_info)
    assert not (workdir / "never.csv").exists()


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
    ],
    ids=["int_sentence_length", "str_count", "unknown_parent", "no_entity_words", "bogus_scheme",
         "negative_count", "retired_entity_word_noise", "retired_cross_parent_noise",
         "retired_ambiguous_words", "retired_ambiguous_prob", "retired_cue_placement"],
)
def test_malformed_synth_spec_exits_2(tmp_path, capsys, spec):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exc_info:
        main(["synth", "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "out")])
    _assert_one_line_error(capsys, exc_info)
    assert not (tmp_path / "out").exists()


def _sweep_args(workdir, *extra):
    return [
        "sweep",
        "--param", "lambda2",
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
