"""Span recorder: nesting, the synthetic step span, and outside-in wrapping."""

import itertools

import numpy as np
import pytest

import spans


def fake_clock(step=1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_recorder_nests_and_closes_inner_spans():
    rec = spans.Recorder(clock=fake_clock())
    a = rec.begin("trainer.train")          # t=0
    b = rec.begin("estimators.density")     # t=1
    rec.begin("autodiff.backward")          # t=2, left open
    rec.end(b)                              # t=3 closes both
    rec.end(a)                              # t=4
    assert rec.parents == [None, 0, 1]
    assert rec.ends == [4.0, 3.0, 3.0]
    assert rec.stack == []


def test_summarize_counts_self_time_and_uncovered_root():
    rec = spans.Recorder(clock=fake_clock())
    root = rec.begin("trainer.train")                       # 0
    step = rec.step = rec.begin("trainer.step")             # 1
    i = rec.begin("trainer.base_loss", {"rows": 128})       # 2
    rec.end(i)                                              # 3
    i = rec.begin("estimators.density", {"rows": 128})      # 4
    rec.end(i)                                              # 5
    i = rec.begin("optim.adamw")                            # 6
    rec.end(i)                                              # 7
    rec.end(step)                                           # 8
    i = rec.begin("trainer.validation", {"rows": 10})       # 9
    rec.end(i)                                              # 10
    rec.end(root)                                           # 11
    s = spans.summarize(rec, "trainer.train")
    assert s["root_s"] == 11.0
    assert s["step_ms"] == [7000.0]
    assert s["epochs"] == 1
    assert s["counts"]["train_pairs"] == 128
    assert s["counts"]["density_rows"] == 128
    assert s["in_steps"]["estimators.density"] == 1.0
    # root self: 11 - 7 (step) - 1 (validation) = 3; step self: 7 - 3 = 4
    assert s["uncovered_s"] == pytest.approx(7.0)
    m, counts = spans.layer_metrics([s, s])
    assert counts == {"steps": 2, "epochs": 2, "jobs": 2,
                      "step_ms_highest_percentile": 50.0}
    assert m["trainer.steps"] == 1.0
    assert m["trainer.step_ms.p50"] == 7000.0
    assert m["trainer.step_ms.p90"] == 0.0        # too few steps to report
    assert m["optim.adamw_ms_per_step"] == pytest.approx(1000.0)
    assert m["estimators.density_ms_per_step"] == pytest.approx(1000.0)
    assert m["trace.coverage_pct"] == pytest.approx(100.0 * 4.0 / 11.0)
    assert set(m) | {"trace.overhead_pct"} == {name for name, *_ in __import__("spec").PER_LAYER}


def test_install_records_a_training_run_and_uninstall_restores():
    from calsbi import covreg, optim, trainer
    from calsbi.autodiff import Value
    from calsbi.problems import simulate_dataset

    originals = (Value.backward, optim.AdamW.step, trainer.clip_grad_norm,
                 covreg.rank_statistics, trainer.base_loss)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        ds = simulate_dataset("gaussian-linear", 64, seed=3)
        config = trainer.TrainConfig(method="npe", epochs=2, batch_size=16,
                                     reg=covreg.RegConfig(num_samples=4))
        trainer.train(config, ds)
    finally:
        uninstall()
    assert (Value.backward, optim.AdamW.step, trainer.clip_grad_norm,
            covreg.rank_statistics, trainer.base_loss) == originals
    s = spans.summarize(rec, "trainer.train")
    steps = 2 * 4                        # 58 training rows in batches of 16
    assert len(s["step_ms"]) == steps
    assert s["epochs"] == 2
    assert s["counts"]["backward_calls"] == steps
    assert s["counts"]["rank_calls"] == steps
    assert s["counts"]["clip_calls"] == steps
    assert s["counts"]["embed_calls_in_steps"] == 2 * steps
    # per step: base loss (n rows), nominal density (n) and L=4 draws (4n)
    assert s["counts"]["train_pairs"] == 2 * 58
    assert s["counts"]["density_rows"] == 2 * 58 * 6 + 2 * 6
    assert s["counts"]["nodes"] > 0
    assert 0.0 < s["uncovered_s"] < s["root_s"]


def test_count_nodes_walks_parents_once():
    from calsbi.autodiff import Value
    x = Value(np.ones((2, 2)), requires_grad=True)
    y = x * 2.0
    loss = (y + y).sum()                 # x, const 2, y, y+y, sum
    assert spans.count_nodes(loss) == 5
