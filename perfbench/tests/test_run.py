"""Helpers of run.py that the figures rest on."""

import run


def test_train_plan_matches_the_training_loop():
    from calsbi import trainer
    from calsbi.problems import simulate_dataset

    ds = simulate_dataset("gaussian-linear", 70, seed=1)
    config = trainer.TrainConfig(method="nre", epochs=3, batch_size=16)
    steps = []
    original = trainer.clip_grad_norm
    trainer.clip_grad_norm = lambda g, m: steps.append(1) or original(g, m)
    try:
        trainer.train(config, ds)
    finally:
        trainer.clip_grad_norm = original
    # 63 training rows: batches of 16, 16, 16, 15
    assert run.train_plan(70, 16, 3) == (len(steps), 63 * 3)
    assert run.train_plan(1024, 128, 1) == (8, 922)
    # a trailing batch of one row is skipped
    assert run.train_plan(19, 8, 1) == (2, 16)


def test_sub_seeds_are_stable_and_distinct():
    assert run.sub_seed(5, 1, 0) == run.sub_seed(5, 1, 0)
    seeds = {run.sub_seed(s, 1, k) for s in range(3) for k in range(4)}
    assert len(seeds) == 12


def test_manifest_comparison_ignores_only_wall_time(tmp_path):
    texts = {"a": b"command=eval\nseed=3\nwall_time_s=1.5\n",
             "b": b"command=eval\nseed=3\nwall_time_s=0.25\n",
             "c": b"command=eval\nseed=4\nwall_time_s=1.5\n"}
    seen = {}
    for key, text in texts.items():
        (tmp_path / key).mkdir()
        (tmp_path / key / "manifest.txt").write_bytes(text)
        (tmp_path / key / "train.csv").write_bytes(text)
        seen[key] = [run._comparable(tmp_path / key / name)
                     for name in ("manifest.txt", "train.csv")]
    assert seen["a"][0] == seen["b"][0] != seen["c"][0]
    assert seen["a"][1] != seen["b"][1]          # only the manifest is filtered


def test_missing_source_exits_2_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "eval-flow", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "not found" in out.err
