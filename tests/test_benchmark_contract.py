"""The names the benchmark reaches in calsbi still resolve.

`perfbench/spans.py` wraps calsbi functions and methods by attribute name,
and `perfbench/job.py` replays `calsbi train` and `calsbi eval` through cli
helpers. A renamed or deleted name fails here, not only in a benchmark run.
"""

import contextlib
import inspect
import sys
from pathlib import Path

import numpy as np

from calsbi import autodiff, cli, covreg, diagnostics, estimators, problems, trainer
from calsbi.estimators import NpeFlow
from calsbi.problems import analytic_posterior, get_problem, simulate_dataset

from conftest import rank_block

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def _calsbi_bindings():
    """Every (module, name) binding and every class attribute in calsbi."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name != "calsbi" and not name.startswith("calsbi."):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("calsbi"):
                for attr in dir(value):
                    if not attr.startswith("__"):
                        out[(name, key, attr)] = inspect.getattr_static(value, attr)
    return out


def _own_attributes():
    classes = {v for k, v in _calsbi_bindings().items() if len(k) == 2
               and isinstance(v, type) and v.__module__.startswith("calsbi")}
    return {cls: set(vars(cls)) for cls in classes}


@contextlib.contextmanager
def _installed(rec):
    """spans.install for the block, then uninstall and drop inherited copies.

    Yields a dict whose "after" entry holds the bindings read right after
    uninstall, before the cleanup, so a wrapper that uninstall left on a
    subclass still shows there. Uninstall sets an inherited method back as
    the subclass's own attribute; deleting those copies lets later tests see
    the classes as defined.
    """
    own = _own_attributes()
    state = {}
    uninstall = spans.install(rec)
    try:
        yield state
    finally:
        uninstall()
        state["after"] = _calsbi_bindings()
        for cls, names in own.items():
            for attr in set(vars(cls)) - names:
                delattr(cls, attr)


# (class, methods) that spans.install wraps by name on calsbi's classes
_WRAPPED_METHODS = [
    (covreg.PriorProposal, ("sample_batch", "log_density_rows")),
    (covreg.DensityProposal, ("sample_batch", "log_density_rows")),
    (estimators.NreModel, ("embed_graph", "log_density_graph", "logit_graph")),
    (estimators.NpeFlow, ("embed_graph", "log_density_graph")),
    (estimators.GaussianLinearPosterior, ("log_density", "log_density_grid")),
]


def test_span_install_wraps_the_named_entry_points_and_uninstall_restores():
    before = _calsbi_bindings()
    # the prior proposal owns its density rows, as NpeFlow owns its grid pass
    prior_rows = vars(covreg.PriorProposal)["log_density_rows"]
    rec = spans.Recorder()
    with _installed(rec) as state:
        for cls, attrs in _WRAPPED_METHODS:
            for attr in attrs:
                key = (cls.__module__, cls.__name__, attr)
                assert callable(before[key]), key
                assert getattr(cls, attr) is not before[key], key
        for attr in ("regularizer", "rank_statistics", "rank_statistic_core",
                     "sorting_loss", "direct_loss"):
            assert getattr(covreg, attr) is not before[("calsbi.covreg", attr)]
        # one regularizer call runs every covreg wrapper, including the one
        # that reads `.size` and `.degenerate_count` off the rank statistics
        problem = get_problem("gaussian-linear")
        ds = simulate_dataset(problem, 8, seed=0)
        block = rank_block(analytic_posterior(problem), ds.thetas, ds.xs, 4,
                           covreg.PriorProposal(problem.prior), np.random.default_rng(0))
        covreg.regularizer(ds.thetas, ds.xs, covreg.RegConfig(num_samples=4),
                           problem.prior, block)
    after = state["after"]
    assert {"covreg.regularizer", "covreg.rank_statistics", "covreg.proposal",
            "covreg.rank_core", "covreg.sort_loss"} <= set(rec.names)
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert after[("calsbi.covreg", "PriorProposal", "log_density_rows")] is prior_rows
    assert vars(covreg.PriorProposal)["log_density_rows"] is prior_rows


def test_traced_regularized_npe_step_records_one_density_span():
    # the step runs the flow once, on the nominal rows and the draws together
    ds = simulate_dataset("gaussian-linear", 16, seed=0)
    config = trainer.TrainConfig(method="npe", epochs=1, batch_size=16,
                                 validation_fraction=0.0, hidden=4, embed_dim=2,
                                 reg=covreg.RegConfig(num_samples=4))
    rec = spans.Recorder()
    with _installed(rec):
        trainer.train(config, ds)
    density = [a["rows"] for name, a in zip(rec.names, rec.attrs)
               if name == "estimators.density"]
    assert density == [16 * (1 + 4)]
    counts = spans.summarize(rec, "trainer.train")["counts"]
    assert (counts["embed_calls_in_steps"], counts["rank_calls"]) == (1, 1)
    assert counts["train_pairs"] == 16


def test_traced_training_tells_validation_from_steps_by_the_grad_flag():
    # spans.py reads autodiff._grad_enabled with a default of True: were the
    # flag renamed, every validation pass would count as a training step
    assert autodiff._grad_enabled is True
    with autodiff.no_grad():
        assert autodiff._grad_enabled is False
    ds = simulate_dataset("gaussian-linear", 20, seed=0)     # 18 train, 2 validation
    config = trainer.TrainConfig(method="nre", epochs=2, batch_size=8, hidden=4,
                                 embed_dim=2)
    rec = spans.Recorder()
    with _installed(rec):
        trainer.train(config, ds)
    assert (rec.names.count("trainer.step"), rec.names.count("trainer.validation")) == (6, 2)


def test_traced_oracle_grid_audit_counts_pairs_times_cells_density_rows():
    # the eval-oracle-grid trace reads estimators.log_density_grid_s from
    # these spans, whose row count reads the positional (grid, xs)
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 5, seed=0)
    rec = spans.Recorder()
    with _installed(rec):
        diagnostics.ecp_grid_hpdr(analytic_posterior(problem), ds.thetas, ds.xs,
                                  problem, resolution=32, chunk=2)
    rows = [a["rows"] for name, a in zip(rec.names, rec.attrs)
            if name == "estimators.log_density_grid"]
    assert rows == [2 * 32 ** 2, 2 * 32 ** 2, 32 ** 2]
    assert "diagnostics.grid_hpdr" in rec.names


def test_traced_oracle_grid_span_rows_sum_to_pairs_times_cells():
    # the span's row count reads len() of its first two arguments, the grid
    # layout and the observations; summed, that is pairs x cells
    for dim, resolution in ((1, 40), (2, 24)):
        problem = get_problem("gaussian-linear", dim=dim)
        ds = simulate_dataset(problem, 7, seed=1)
        rec = spans.Recorder()
        with _installed(rec):
            diagnostics.ecp_grid_hpdr(analytic_posterior(problem), ds.thetas, ds.xs,
                                      problem, resolution=resolution)
        counts = spans.summarize(rec, "diagnostics.grid_hpdr", resolution)["counts"]
        assert counts["grid_pairs"] == 7
        assert counts["density_rows"] == 7 * resolution ** dim


def test_traced_flow_grid_audit_embeds_each_observation_once():
    # eval-flow's estimators.embed_rows_per_obs reads the estimators.embed
    # spans inside diagnostics.grid_hpdr
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 3, seed=0)
    flow = NpeFlow(problem.dim_theta, problem.dim_x, last_scale=0.5)
    rec = spans.Recorder()
    with _installed(rec):
        diagnostics.ecp_grid_hpdr(flow, ds.thetas, ds.xs, problem, resolution=32)
    counts = spans.summarize(rec, "diagnostics.grid_hpdr", 32)["counts"]
    assert (counts["grid_embed_rows"], counts["grid_pairs"]) == (3, 3)


def test_traced_pooled_rank_audit_counts_its_rows_and_keeps_the_flow_grid_pass(
        monkeypatch):
    # the rank path runs in an array pool; the spans still read every chunk's
    # pairs and density rows, and NpeFlow's own grid pass survives uninstall.
    # One worker: the recorder keeps one span stack for all threads.
    monkeypatch.setattr(diagnostics, "_rank_workers", lambda chunks: 1)
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 10, seed=0)
    flow = NpeFlow(problem.dim_theta, problem.dim_x, last_scale=0.5)
    grid_pass = vars(NpeFlow)["log_density_grid"]
    rec = spans.Recorder()
    with _installed(rec) as state:
        diagnostics.rank_statistic_sample(flow, ds.thetas, ds.xs, 64,
                                          covreg.PriorProposal(problem.prior),
                                          np.random.default_rng(0), chunk=4)
    counts = spans.summarize(rec, "diagnostics.rank_sample")["counts"]
    assert (counts["rank_pairs"], counts["rank_rows"], counts["rank_calls"]) == (10, 10, 3)
    assert counts["density_rows"] == 10 * (64 + 1)
    assert state["after"][("calsbi.estimators", "NpeFlow", "log_density_grid")] is grid_pass
    assert vars(NpeFlow)["log_density_grid"] is grid_pass


def test_cli_helpers_the_benchmark_job_calls_exist(tmp_path):
    for name in ("_reg_config_from", "_metrics_for_curve", "problem_for_dataset",
                 "write_manifest", "build_parser"):
        assert callable(getattr(cli, name)), name
    assert cli.problem_for_dataset is problems.problem_for_dataset
    # the call shapes of perfbench/job.py's run_train and run_eval
    ds = simulate_dataset("gaussian-linear", 16, seed=0)
    config = trainer.TrainConfig(method="nre", epochs=1, batch_size=8, hidden=4,
                                 embed_dim=2)
    result = trainer.train(config, ds, problem=cli.problem_for_dataset(ds),
                           out_dir=str(tmp_path / "run"))
    loaded = trainer.load_checkpoint(result.report.checkpoint_path)
    assert isinstance(loaded, tuple) and len(loaded) == 2
