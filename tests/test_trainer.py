import contextlib
import dataclasses
import json
import math
import struct

import numpy as np
import pytest

from calsbi import autodiff as ad
from calsbi import covreg, trainer
from calsbi.autodiff import Value
from calsbi.estimators import NpeFlow, NreModel, Prior, build_model
from calsbi.optim import AdamW
from calsbi.problems import get_problem, simulate_dataset
from calsbi.trainer import (TrainAbort, TrainConfig, derangement,
                            load_checkpoint, nre_base_loss, npe_base_loss,
                            save_checkpoint, train)

from conftest import RowCounter, rank_block
from step_overhead import measure_step_overhead


@pytest.fixture(scope="module")
def gl_dataset():
    return simulate_dataset("gaussian-linear", 512, seed=0)


def small_config(**kw):
    base = dict(method="npe", epochs=3, batch_size=64, seed=1, reg=None,
                hidden=16, embed_dim=8)
    base.update(kw)
    return TrainConfig(**base)


# -- derangement -----------------------------------------------------------------


def test_derangement_has_no_fixed_points():
    for seed in range(200):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 40))
        perm = derangement(n, r)
        assert np.all(perm != np.arange(n))
        assert sorted(perm) == list(range(n))


# -- base losses ------------------------------------------------------------------


def test_uninformative_ratio_classifier_loss_is_log_two(rng):
    prior = Prior.gaussian([0.0, 0.0], [1.0, 1.0])
    model = NreModel(prior, dim_x=2, hidden=8, embed_dim=4, rng=rng)
    model.head.params["head.w2"].data[...] = 0.0
    model.head.params["head.b2"].data[...] = 0.0
    loss, _ = nre_base_loss(model, rng.standard_normal((32, 2)),
                            rng.standard_normal((32, 2)), np.random.default_rng(0))
    assert float(loss.data[0]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_confident_classifier_loss_approaches_zero(rng):
    prior = Prior.gaussian([0.0], [1.0])
    model = NreModel(prior, dim_x=1, hidden=8, embed_dim=4, rng=rng)

    class Rigged(NreModel):
        pass

    # drive logits by hand: positives large positive, negatives large negative
    big = Value(np.full((16, 1), 20.0))
    loss_pos = trainer._softplus(-big).mean()
    loss_neg = trainer._softplus(-big).mean()
    total = float(((loss_pos + loss_neg) * 0.5).data[0])
    assert total < 1e-8


def test_ratio_loss_requires_two_rows(rng):
    prior = Prior.gaussian([0.0], [1.0])
    model = NreModel(prior, dim_x=1, hidden=8, embed_dim=4, rng=rng)
    with pytest.raises(ValueError):
        nre_base_loss(model, np.zeros((1, 1)), np.zeros((1, 1)),
                      np.random.default_rng(0))


def test_identity_flow_nll_is_standard_normal_entropy_term(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng)  # identity at init
    loss, _ = npe_base_loss(flow, np.zeros((8, 2)), rng.standard_normal((8, 2)))
    assert float(loss.data[0]) == pytest.approx(math.log(2 * math.pi), abs=1e-12)


def test_ratio_loss_decreases_over_first_epochs():
    ds = simulate_dataset("gaussian-linear", 4096, seed=3)
    finals = []
    for seed in range(5):
        cfg = TrainConfig(method="nre", epochs=10, seed=seed, reg=None)
        report = train(cfg, ds).report
        finals.append(report.base_loss[-1] < report.base_loss[0])
    assert sum(finals) >= 3  # median over seeds decreases


# -- objective structure ---------------------------------------------------------


def test_lambda_zero_training_equals_plain_training(gl_dataset):
    plain = train(small_config(), gl_dataset)
    reg_off = covreg.RegConfig(weight=0.0)
    zero = train(small_config(reg=reg_off), gl_dataset)
    assert plain.report.base_loss == zero.report.base_loss
    for k, v in plain.model.parameters().items():
        np.testing.assert_array_equal(v.data, zero.model.parameters()[k].data)


def test_total_loss_is_exactly_base_plus_weighted_regularizer(gl_dataset):
    reg = covreg.RegConfig(weight=3.0, num_samples=4)
    result = train(small_config(reg=reg), gl_dataset)
    r = result.report
    for b, rl, t in zip(r.base_loss, r.reg_loss, r.total_loss):
        assert t == pytest.approx(b + 3.0 * rl, rel=1e-12)


def test_training_is_deterministic(gl_dataset):
    reg = covreg.RegConfig(weight=2.0, num_samples=4)
    a = train(small_config(reg=reg), gl_dataset)
    b = train(small_config(reg=reg), gl_dataset)
    assert a.report.total_loss == b.report.total_loss
    for k, v in a.model.parameters().items():
        np.testing.assert_array_equal(v.data, b.model.parameters()[k].data)


def test_logged_post_clip_norm_is_bounded(gl_dataset):
    # rerun one step manually: the optimizer consumes clipped gradients
    from calsbi.optim import clip_grad_norm

    grad = np.r_[np.full(3, 10.0), np.full(2, -3.0)]
    clipped, pre = clip_grad_norm(grad, 5.0)
    post = math.sqrt(float(clipped @ clipped))
    assert post <= 5.0 + 1e-9
    assert pre > 5.0


def test_dataset_problem_mismatch_rejected(gl_dataset):
    cfg = small_config(problem_id="nonlinear-2d")
    with pytest.raises(ValueError, match="does not match"):
        train(cfg, gl_dataset)


def test_budget_smaller_than_batch_rejected():
    ds = simulate_dataset("gaussian-linear", 32, seed=0)
    with pytest.raises(ValueError, match="budget"):
        train(small_config(batch_size=64), ds)


@pytest.mark.parametrize("fraction,n_train", [(0.9, 0), (0.7, 1)])
def test_training_split_under_two_pairs_rejected_before_the_model_is_built(
        monkeypatch, fraction, n_train):
    ds = simulate_dataset("gaussian-linear", 4, seed=0)
    monkeypatch.setattr(trainer, "build_model", None)
    with pytest.raises(ValueError, match=f"training split holds {n_train} pairs"):
        train(small_config(batch_size=2, validation_fraction=fraction), ds)


@pytest.mark.parametrize("clip", [0.0, -1.0, math.nan])
def test_clip_norm_not_above_zero_rejected_before_the_model_is_built(
        gl_dataset, monkeypatch, clip):
    monkeypatch.setattr(trainer, "build_model", None)
    with pytest.raises(ValueError, match="clip_norm must be positive"):
        train(dataclasses.replace(small_config(), clip_norm=clip), gl_dataset)
    assert small_config(clip_norm=math.inf).clip_norm == math.inf


def test_degenerate_heavy_batches_surface_warning(gl_dataset, monkeypatch):
    def fake_regularizer(thetas, xs, config, prior, block):
        n = thetas.shape[0]
        batch = covreg.RankStatisticBatch(
            values=Value(np.zeros((n, 1))), degenerate=np.ones(n, dtype=bool))
        return Value(np.zeros(1)), batch

    monkeypatch.setattr("calsbi.trainer.covreg.regularizer", fake_regularizer)
    cfg = small_config(epochs=1, reg=covreg.RegConfig(num_samples=4))
    with pytest.warns(RuntimeWarning, match="degenerate"):
        train(cfg, gl_dataset)


def test_non_finite_loss_aborts_with_coordinates(gl_dataset, monkeypatch):
    monkeypatch.setattr("calsbi.trainer.base_loss",
                        lambda model, t, x, rng, draws: (Value(np.array([np.nan])), None))
    with pytest.raises(TrainAbort, match="epoch 0, batch 0"):
        train(small_config(), gl_dataset)


def test_non_finite_gradient_aborts_with_coordinates(gl_dataset, monkeypatch):
    real_base_loss = trainer.base_loss

    def poisoned(model, thetas, xs, rng, draws):
        # finite loss value whose backward sends NaN into every parameter
        loss, block = real_base_loss(model, thetas, xs, rng, draws)
        return Value._node(loss.data, (loss,), "poison",
                           lambda g: loss._accum(g * np.nan)), block

    monkeypatch.setattr("calsbi.trainer.base_loss", poisoned)
    with pytest.raises(TrainAbort, match="epoch 0, batch 0: non-finite gradient") as info:
        train(small_config(), gl_dataset)
    assert isinstance(info.value.__cause__, FloatingPointError)


# -- one training step -------------------------------------------------------------


def _step_setup(method, seed=3):
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 64, seed=seed)
    model = build_model(method, problem.prior, ds.dim_x, {"hidden": 8, "embed_dim": 4},
                        rng=np.random.default_rng(seed))
    reg = covreg.RegConfig(num_samples=8, weight=2.0)
    return problem, ds, model, reg


def test_regularized_npe_step_embeds_the_batch_once():
    problem, ds, flow, reg = _step_setup("npe")
    opt = AdamW(flow.parameters())
    counter = RowCounter(flow)
    trainer.train_step(flow, opt, ds.thetas, ds.xs, reg, 5.0,
                       (np.random.default_rng(0), np.random.default_rng(1)),
                       problem.prior)
    assert (counter.embed_calls, counter.embed_rows) == (1, ds.count)
    # one call on the nominal rows and the n * L proposal draws together
    assert counter.density_calls == 1
    assert counter.density_rows == ds.count * (1 + reg.num_samples)


@pytest.mark.parametrize("regularized", [False, True])
def test_nre_step_runs_the_head_once(regularized):
    problem, ds, model, reg = _step_setup("nre")
    reg = reg if regularized else None
    counter = RowCounter(model)
    trainer.train_step(model, AdamW(model.parameters()), ds.thetas, ds.xs, reg,
                       5.0, (np.random.default_rng(0), np.random.default_rng(1)),
                       problem.prior)
    assert (counter.embed_calls, counter.embed_rows) == (1, ds.count)
    # each pair's negative and nominal rows, then its draws
    per_pair = 2 + (reg.num_samples if regularized else 0)
    assert (counter.head_calls, counter.head_rows) == (1, ds.count * per_pair)
    assert counter.density_calls == 0


@pytest.mark.parametrize("method", ["npe", "nre"])
def test_regularized_step_draws_from_the_prior(method, monkeypatch):
    problem, ds, model, reg = _step_setup(method)
    sizes = []
    real_sample = problem.prior.sample

    def recording(rng, count):
        sizes.append(count)
        return real_sample(rng, count)

    monkeypatch.setattr(problem.prior, "sample", recording)
    trainer.train_step(model, AdamW(model.parameters()), ds.thetas, ds.xs, reg,
                       5.0, (np.random.default_rng(0), np.random.default_rng(1)),
                       problem.prior)
    assert sizes == [ds.count * reg.num_samples]


def test_plain_nre_step_never_builds_the_prior_log_density(monkeypatch):
    problem, ds, model, reg = _step_setup("nre")
    calls, real = [], problem.prior.log_density

    def recording(theta):
        calls.append(len(theta))
        return real(theta)

    monkeypatch.setattr(problem.prior, "log_density", recording)
    rngs = (np.random.default_rng(0), np.random.default_rng(1))
    opt = AdamW(model.parameters())
    trainer.train_step(model, opt, ds.thetas, ds.xs, None, 5.0, rngs, problem.prior)
    assert calls == []
    trainer.train_step(model, opt, ds.thetas, ds.xs, reg, 5.0, rngs, problem.prior)
    # the regularized step evaluates it on the base loss's rows (negative,
    # nominal and draws), then on the draws, for the proposal
    assert calls == [ds.count * (2 + reg.num_samples), ds.count * reg.num_samples]


@pytest.mark.parametrize("method", ["npe", "nre"])
def test_shared_forward_step_gradients_match_separate_calls(method):
    problem, ds, model, reg = _step_setup(method)
    params = model.parameters()
    # reference: base loss and regularizer each run their own forward pass
    base, _ = trainer.base_loss(model, ds.thetas, ds.xs, np.random.default_rng(0))
    block = rank_block(model, ds.thetas, ds.xs, reg.num_samples,
                       covreg.PriorProposal(problem.prior), np.random.default_rng(1))
    rloss, _ = covreg.regularizer(ds.thetas, ds.xs, reg, problem.prior, block)
    (base + rloss * reg.weight).backward()
    expected = {k: p.grad for k, p in params.items()}
    opt = AdamW(params)
    opt.zero_grad()
    b, r, t, _, _ = trainer.train_step(
        model, opt, ds.thetas, ds.xs, reg, 1e9,
        (np.random.default_rng(0), np.random.default_rng(1)), problem.prior)
    assert (b, r) == (float(base.data[0]), float(rloss.data[0]))
    for k, p in params.items():
        assert p.grad.base is opt.grad
        np.testing.assert_allclose(p.grad, expected[k], rtol=1e-12, atol=1e-12)


def test_train_and_overhead_probe_run_the_same_step(gl_dataset, monkeypatch):
    calls, optimizers = [], set()
    real_step = trainer.train_step

    def counting(*args, **kwargs):
        calls.append(args[4])
        optimizers.add((args[1].lr, args[1].weight_decay))
        return real_step(*args, **kwargs)

    monkeypatch.setattr("calsbi.trainer.train_step", counting)
    reg = covreg.RegConfig(num_samples=2)
    config = small_config(epochs=1, reg=reg, learning_rate=2e-3, weight_decay=0.03)
    train(config, gl_dataset)
    n_train = gl_dataset.count - round(0.1 * gl_dataset.count)
    assert len(calls) == -(-n_train // 64)
    assert all(r is reg for r in calls)
    calls.clear()
    measure_step_overhead(dataclasses.replace(config, batch_size=32), gl_dataset,
                          sample_counts=(1, 4), steps=2, repeats=1)
    assert [r.num_samples for r in calls] == [1] * 5 + [4] * 5
    # both build the optimizer the config describes, weight decay included
    assert optimizers == {(2e-3, 0.03)}
    # the probe times the configured regularizer, only its sample count varies
    direct = covreg.RegConfig(mode="calibration", loss_form="direct", weight=2.0,
                              levels=(0.25, 0.75), temperature=0.5)
    calls.clear()
    measure_step_overhead(small_config(batch_size=32, reg=direct), gl_dataset,
                          sample_counts=(3,), steps=1, repeats=1)
    assert calls == [dataclasses.replace(direct, num_samples=3)] * 4


# -- array pool ---------------------------------------------------------------------


def recorded_pools(monkeypatch):
    """Wrap `ad.workspace` so each pool it yields is appended to the list returned."""
    pools, workspace = [], ad.workspace

    @contextlib.contextmanager
    def recorded_workspace():
        with workspace() as pool:
            pools.append(pool)
            yield pool

    monkeypatch.setattr(ad, "workspace", recorded_workspace)
    return pools


POOL_RECIPES = {"npe-conservative": ("npe", "conservative"), "nre-plain": ("nre", None),
                "nre-regularized": ("nre", "conservative")}


@pytest.mark.parametrize("recipe", list(POOL_RECIPES))
def test_training_is_bit_identical_with_and_without_the_pool(gl_dataset, monkeypatch,
                                                             recipe):
    method, mode = POOL_RECIPES[recipe]
    reg = None if mode is None else covreg.RegConfig(mode=mode, num_samples=16)
    # batch 128 at width 16 puts the head's (256, 16) input above the size rule
    config = small_config(method=method, batch_size=128, reg=reg)
    pools = recorded_pools(monkeypatch)
    pooled = train(config, gl_dataset)
    assert len(pools) == 1 and pools[0]
    # a dict that is not the pool: every op allocates
    monkeypatch.setattr(ad, "workspace", lambda: contextlib.nullcontext({}))
    plain = train(config, gl_dataset)
    assert pooled.report == plain.report
    for name, value in plain.model.parameters().items():
        np.testing.assert_array_equal(pooled.model.parameters()[name].data, value.data)
        np.testing.assert_array_equal(pooled.best_params[name], plain.best_params[name])


def test_the_training_pool_stops_growing_after_the_second_full_batch(monkeypatch):
    # 450 training pairs: three full batches of 128 and a short one of 66;
    # the 150 validation pairs at width 32 are above the size rule too
    ds = simulate_dataset("gaussian-linear", 600, seed=5)
    config = small_config(batch_size=128, hidden=32, validation_fraction=0.25,
                          reg=covreg.RegConfig(num_samples=16))
    pools, sizes = recorded_pools(monkeypatch), []
    real_step = trainer.train_step

    def recorded_step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        sizes.append(sum(len(arrays) for arrays in pools[-1].values()))
        return out

    monkeypatch.setattr(trainer, "train_step", recorded_step)
    train(config, ds)
    assert len(pools) == 1 and len(sizes) == 12 and sizes[0] > 0
    # the short batch and the validation pass add their shapes in epoch 0 only
    assert sizes[2] == sizes[1] and sizes[3] > sizes[2]
    assert sizes[4] > sizes[3] and sizes[5:] == [sizes[4]] * 7


# -- checkpointing -----------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(tmp_path, gl_dataset):
    result = train(small_config(method="nre"), gl_dataset)
    path = tmp_path / "model.calc"
    save_checkpoint(path, result.model, result.config)
    loaded, blob = load_checkpoint(path)
    assert loaded.method == "nre"
    assert blob["train"]["epochs"] == 3
    for k, v in result.model.parameters().items():
        np.testing.assert_array_equal(v.data, loaded.parameters()[k].data)


def test_checkpoint_blob_carries_regularizer_recipe(tmp_path, gl_dataset):
    reg = covreg.RegConfig(mode="calibration", loss_form="direct", weight=2.5,
                           num_samples=8, levels=(0.2, 0.5, 0.8))
    result = train(small_config(reg=reg), gl_dataset)
    path = tmp_path / "model.calc"
    save_checkpoint(path, result.model, result.config)
    _, blob = load_checkpoint(path)
    assert blob["train"]["reg"]["mode"] == "calibration"
    assert blob["train"]["reg"]["weight"] == 2.5
    assert blob["train"]["seed"] == 1
    assert blob["train"]["problem_id"] == "gaussian-linear"
    assert blob["dim_theta"] == 2


def test_checkpoint_rejects_bad_magic_and_truncation(tmp_path, gl_dataset):
    result = train(small_config(), gl_dataset)
    path = tmp_path / "model.calc"
    save_checkpoint(path, result.model, result.config)
    raw = path.read_bytes()
    bad = tmp_path / "bad.calc"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)
    trunc = tmp_path / "trunc.calc"
    trunc.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(trunc)


def tiny_checkpoint(path, method="nre", config_method=None):
    """Save a freshly initialized small model; returns the model."""
    prior = get_problem("gaussian-linear").prior
    config = small_config(method=config_method or method, hidden=4, embed_dim=2)
    model = build_model(method, prior, 2, config.arch(),
                        rng=np.random.default_rng(0))
    save_checkpoint(path, model, config)
    return model


def test_checkpoint_cut_at_every_offset_is_rejected(tmp_path):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.calc"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        with pytest.raises(ValueError):
            load_checkpoint(cut)
    cut.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(cut)


def test_checkpoint_rejects_parameter_of_wrong_shape(tmp_path):
    path = tmp_path / "model.calc"
    prior = get_problem("gaussian-linear").prior
    config = small_config(method="nre", hidden=4, embed_dim=2)
    model = build_model("nre", prior, 2, config.arch(),
                        rng=np.random.default_rng(0))
    model.x_net.params["x_net.w0"].data = np.full((1, 1), 7.0)
    save_checkpoint(path, model, config)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(path)


def test_checkpoint_rejects_duplicate_parameter(tmp_path):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path)
    raw = path.read_bytes()
    assert raw.count(b"x_net.b1") == 1     # b0 and b1 share their shape
    path.write_bytes(raw.replace(b"x_net.b1", b"x_net.b0"))
    with pytest.raises(ValueError, match="duplicate"):
        load_checkpoint(path)


def test_checkpoint_rejects_method_tag_disagreeing_with_config(tmp_path):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path, method="npe", config_method="nre")
    with pytest.raises(ValueError, match="method"):
        load_checkpoint(path)


def _with_blob(path, blob):
    """Rewrite a saved checkpoint's config blob with `blob` (raw bytes)."""
    raw = path.read_bytes()
    mlen = struct.unpack_from("<I", raw, 8)[0]
    at = 12 + mlen
    blen = struct.unpack_from("<I", raw, at)[0]
    path.write_bytes(raw[:at] + struct.pack("<I", len(blob)) + blob
                     + raw[at + 4 + blen:])


def test_checkpoint_rejects_config_blob_that_is_not_an_object(tmp_path):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path)
    _with_blob(path, b"[1, 2]")
    with pytest.raises(ValueError, match="expected an object"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["train", "problem_id", "dim_theta", "dim_x"])
def test_checkpoint_names_a_missing_config_key(tmp_path, key):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path)
    raw = path.read_bytes()
    assert raw.count(f'"{key}"'.encode()) == 1
    path.write_bytes(raw.replace(f'"{key}"'.encode(), f'"{key[::-1]}"'.encode()))
    with pytest.raises(ValueError, match=f"no '{key}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("train,dims,message", [
    ({"problem_id": "weinberg"}, {}, "unknown problem id 'weinberg'"),
    ({"problem_id": ["gaussian-linear"]}, {}, "unknown problem id"),
    ({}, {"dim_theta": 3}, "has dim_theta 3 and dim_x 3, not 3 and 2"),
    ({"problem_id": "nonlinear-2d"}, {"dim_theta": 1, "dim_x": 4}, "has dim_theta 2"),
], ids=["unknown-id", "id-not-a-string", "gaussian-dims", "nonlinear-dims"])
def test_checkpoint_naming_a_problem_the_registry_lacks_is_rejected(tmp_path, train,
                                                                   dims, message):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path)
    _, blob = load_checkpoint(path)
    blob["train"].update(train)
    blob.update(dims)
    _with_blob(path, json.dumps(blob).encode())
    with pytest.raises(ValueError, match=message) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_checkpoint_single_bit_flips_raise_only_value_error(tmp_path):
    path = tmp_path / "model.calc"
    tiny_checkpoint(path, method="npe")
    raw = path.read_bytes()
    rng = np.random.default_rng(2024)
    flipped = tmp_path / "flipped.calc"
    blob_errors = 0
    for pos, bit in zip(rng.integers(0, len(raw), 1500), rng.integers(0, 8, 1500)):
        data = bytearray(raw)
        data[pos] ^= 1 << bit
        flipped.write_bytes(data)
        try:
            load_checkpoint(flipped)
        except ValueError as exc:
            blob_errors += "config blob" in str(exc)
    assert blob_errors > 0     # the loop reached the damaged-blob checks


def test_loaded_model_reproduces_expected_log_density(tmp_path, gl_dataset):
    from calsbi.diagnostics import expected_log_posterior

    result = train(small_config(), gl_dataset)
    path = tmp_path / "model.calc"
    save_checkpoint(path, result.model, result.config)
    loaded, _ = load_checkpoint(path)
    test = simulate_dataset("gaussian-linear", 200, seed=9)
    a = expected_log_posterior(result.model, test.thetas, test.xs).value
    b = expected_log_posterior(loaded, test.thetas, test.xs).value
    assert a == b


def test_train_writes_checkpoints_and_report(tmp_path, gl_dataset):
    result = train(small_config(), gl_dataset, out_dir=str(tmp_path / "run"))
    assert (tmp_path / "run" / "model.calc").exists()
    assert (tmp_path / "run" / "model_best.calc").exists()
    csv = (tmp_path / "run" / "train.csv").read_text().splitlines()
    assert csv[0] == "epoch,base_loss,reg_loss,total_loss,grad_norm,degenerate_frac"
    assert len(csv) == 4
    assert result.report.best_epoch >= 0


# -- overhead probe ---------------------------------------------------------------


def test_overhead_rows_cover_requested_counts(gl_dataset):
    cfg = small_config(batch_size=32)
    rows = measure_step_overhead(cfg, gl_dataset, sample_counts=(1, 4),
                                 steps=3, repeats=1)
    assert [r[0] for r in rows] == [1, 4]
    assert all(r[1] > 0 for r in rows)


def test_overhead_probe_alternates_counts_across_repeats(gl_dataset, monkeypatch):
    # a drift in machine speed must not land on one count's repeats alone
    calls = []
    real_step = trainer.train_step

    def counting(*args, **kwargs):
        calls.append(args[4].num_samples)
        return real_step(*args, **kwargs)

    monkeypatch.setattr("calsbi.trainer.train_step", counting)
    rows = measure_step_overhead(small_config(batch_size=32), gl_dataset,
                                 sample_counts=(1, 4), steps=2, repeats=2)
    windows = [calls[i:i + 5] for i in range(0, len(calls), 5)]  # 3 warmup + 2
    assert [set(w) for w in windows] == [{1}, {4}, {1}, {4}]
    assert [r[0] for r in rows] == [1, 4]


@pytest.mark.parametrize("method", ["npe", "nre"])
def test_overhead_probe_sizes_the_problem_to_a_1d_dataset(method):
    ds = simulate_dataset(get_problem("gaussian-linear", dim=1), 64, seed=4)
    rows = measure_step_overhead(small_config(method=method, batch_size=32), ds,
                                 sample_counts=(2,), steps=1, repeats=1)
    assert [r[0] for r in rows] == [2]
