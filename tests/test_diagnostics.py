import contextlib
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from calsbi import autodiff as ad
from calsbi import covreg, diagnostics, estimators
from calsbi.diagnostics import (DEFAULT_EVAL_LEVELS, CoverageCurve,
                                calibration_error, conservativeness_error,
                                coverage_auc, curve_from_rank_statistics,
                                ecp_grid_hpdr, expected_log_posterior,
                                hpdr_intervals_1d, ks_statistic, mixture_demo,
                                rank_statistic_sample, sbc_histogram,
                                write_coverage_csv, write_metrics_csv,
                                write_sbc_csv)
from calsbi.estimators import Prior
from calsbi.problems import (analytic_posterior, get_problem, oracle_posterior,
                             simulate_dataset)
from calsbi.trainer import TrainConfig, train

from conftest import PriorAsPosterior, RowCounter, paired_log_density


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def test_curve_validation():
    with pytest.raises(ValueError):
        CoverageCurve([0.5, 0.4], [0.5, 0.4], 10, "rank-based")
    with pytest.raises(ValueError):
        CoverageCurve([0.4, 0.5], [0.5, 1.4], 10, "rank-based")


def test_ecp_counting_example():
    curve = curve_from_rank_statistics(np.array([0.2, 0.6, 0.9, 0.4]), [0.5])
    assert curve.ecp[0] == 0.5


def test_rank_curve_equals_per_level_reference():
    rng = np.random.default_rng(8)
    # ties at the level edges, exact 0 and 1, and a continuous sample
    alphas = np.concatenate([1.0 - np.asarray(DEFAULT_EVAL_LEVELS), [0.0, 1.0],
                             rng.uniform(0.0, 1.0, 997)])
    for levels in (DEFAULT_EVAL_LEVELS, [0.5], np.linspace(0.01, 0.99, 99)):
        curve = curve_from_rank_statistics(alphas, levels)
        expected = [np.mean(alphas >= 1.0 - lev) for lev in levels]
        np.testing.assert_array_equal(curve.ecp, expected)


def test_rank_based_ecp_on_oracle_close_to_diagonal():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 2000, seed=31)
    alphas = rank_statistic_sample(oracle, ds.thetas, ds.xs, 512,
                                   covreg.PriorProposal(problem.prior),
                                   np.random.default_rng(1), chunk=256)
    curve = curve_from_rank_statistics(alphas, DEFAULT_EVAL_LEVELS, 512)
    assert np.max(np.abs(curve.ecp - curve.levels)) <= 0.03
    assert np.all(np.diff(curve.ecp) >= 0)  # monotone in the level


def test_prior_as_posterior_is_calibrated():
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 2000, seed=32)
    alphas = rank_statistic_sample(PriorAsPosterior(problem.prior), ds.thetas,
                                   ds.xs, 512, covreg.PriorProposal(problem.prior),
                                   np.random.default_rng(2), chunk=256)
    curve = curve_from_rank_statistics(alphas, DEFAULT_EVAL_LEVELS, 512)
    assert np.max(np.abs(curve.ecp - curve.levels)) <= 0.03


def test_rank_based_rejects_empty_test_set():
    problem = get_problem("gaussian-linear")
    with pytest.raises(ValueError, match="empty"):
        rank_statistic_sample(analytic_posterior(problem), np.zeros((0, 2)),
                              np.zeros((0, 2)), 8,
                              covreg.PriorProposal(problem.prior),
                              np.random.default_rng(0))


def test_grid_hpdr_full_support_at_level_near_one():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 50, seed=33)
    curve = ecp_grid_hpdr(oracle, ds.thetas, ds.xs, problem,
                          levels=[0.9995], resolution=64)
    assert curve.ecp[0] == 1.0


def test_grid_hpdr_rejects_high_dimension():
    problem = get_problem("gaussian-linear")
    with pytest.raises(ValueError, match="dim"):
        ecp_grid_hpdr(analytic_posterior(problem), np.zeros((3, 3)),
                      np.zeros((3, 3)), problem, levels=[0.5])


def test_grid_and_rank_estimators_agree_on_oracle():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 400, seed=34)
    levels = np.linspace(0.05, 0.95, 19)
    alphas = rank_statistic_sample(oracle, ds.thetas, ds.xs, 512,
                                   covreg.PriorProposal(problem.prior),
                                   np.random.default_rng(3), chunk=128)
    rank = curve_from_rank_statistics(alphas, levels, 512)
    grid = ecp_grid_hpdr(oracle, ds.thetas, ds.xs, problem, levels=levels,
                         resolution=128)
    assert np.max(np.abs(rank.ecp - grid.ecp)) <= 0.05


def test_grid_and_rank_estimators_agree_on_the_bimodal_oracle():
    # The exact nonlinear-2d posterior is known only up to a constant per x.
    # At L = 4096 the prior-proposal rank statistic still under-covers at low
    # levels (up to 4.2 SE over seeds 0-9); at L = 16384 the gap over seeds
    # 0-9 was at most 2.9 binomial SE.
    problem = get_problem("nonlinear-2d")
    oracle = oracle_posterior(problem)
    ds = simulate_dataset(problem, 300, seed=0)
    levels = np.linspace(0.05, 0.95, 19)
    alphas = rank_statistic_sample(oracle, ds.thetas, ds.xs, 16384,
                                   covreg.PriorProposal(problem.prior),
                                   np.random.default_rng(0))
    rank = curve_from_rank_statistics(alphas, levels, 16384)
    grid = ecp_grid_hpdr(oracle, ds.thetas, ds.xs, problem, levels=levels,
                         resolution=128)
    se = np.sqrt(levels * (1.0 - levels) / ds.count)
    assert np.all(np.abs(rank.ecp - grid.ecp) <= 4.0 * se)


def reference_grid_ecp(posterior, thetas, xs, problem, levels, resolution):
    """Grid-HPDR ECP by explicit threshold search: per pair, sort the cell
    densities, accumulate normalized mass, find each level's threshold and
    test the nominal cell against it."""
    if problem.prior.kind == "uniform-box":
        bounds = list(zip(problem.prior.low, problem.prior.high))
    else:
        bounds = [(m - 8.0 * s, m + 8.0 * s)
                  for m, s in zip(problem.prior.mean, problem.prior.scale)]
    steps = [(hi - lo) / resolution for lo, hi in bounds]
    centers = [lo + st * (np.arange(resolution) + 0.5)
               for (lo, _), st in zip(bounds, steps)]
    grid = np.stack([c.ravel() for c in np.meshgrid(*centers, indexing="ij")],
                    axis=1)
    hits = np.zeros(len(levels))
    for theta, x in zip(thetas, xs):
        ld = posterior.log_density(grid, np.repeat(x[None, :], len(grid), axis=0))
        cell = np.floor((theta - [lo for lo, _ in bounds]) / steps).astype(int)
        if np.any((cell < 0) | (cell >= resolution)):
            cell_ld = -np.inf
        else:
            cell_ld = ld[np.ravel_multi_index(tuple(cell), (resolution,) * len(cell))]
        sorted_ld = np.sort(ld)[::-1]
        cmass = np.cumsum(np.exp(sorted_ld - sorted_ld[0]))
        cmass /= cmass[-1]
        for k, level in enumerate(levels):
            pos = min(np.searchsorted(cmass, level, side="left"), len(ld) - 1)
            hits[k] += cell_ld >= sorted_ld[pos]
    return hits / len(thetas)


@pytest.fixture(scope="module")
def nonlinear_models():
    """A briefly trained ratio model and flow on nonlinear-2d."""
    ds = simulate_dataset("nonlinear-2d", 512, seed=36)
    models = {}
    for method in ("nre", "npe"):
        config = TrainConfig(method=method, problem_id="nonlinear-2d", epochs=3,
                             batch_size=64, seed=2, reg=None, hidden=16)
        models[method] = train(config, ds).model
    return models


LEVELS = np.linspace(0.05, 0.95, 19)


@pytest.mark.parametrize("dim,resolution", [(1, 512), (2, 64), (2, 128)])
def test_grid_hpdr_matches_threshold_search_on_oracle(dim, resolution):
    problem = get_problem("gaussian-linear", dim=dim)
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 300, seed=37)
    curve = ecp_grid_hpdr(oracle, ds.thetas, ds.xs, problem, levels=LEVELS,
                          resolution=resolution)
    expected = reference_grid_ecp(oracle, ds.thetas, ds.xs, problem, LEVELS,
                                  resolution)
    np.testing.assert_array_equal(curve.ecp, expected)


@pytest.mark.parametrize("method", ["nre", "npe"])
def test_grid_hpdr_matches_threshold_search_on_trained_models(nonlinear_models,
                                                              method):
    problem = get_problem("nonlinear-2d")
    model = nonlinear_models[method]
    ds = simulate_dataset(problem, 24, seed=38)
    counter = RowCounter(model)
    curve = ecp_grid_hpdr(model, ds.thetas, ds.xs, problem, levels=LEVELS,
                          resolution=64)
    assert counter.embed_rows == ds.count   # one embedding per pair
    expected = reference_grid_ecp(model, ds.thetas, ds.xs, problem, LEVELS, 64)
    np.testing.assert_array_equal(curve.ecp, expected)
    assert 0.0 < curve.ecp[-1]


def test_grid_hpdr_never_covers_a_parameter_off_the_grid():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 40, seed=39)
    thetas, xs = ds.thetas.copy(), ds.xs.copy()
    # the grid spans +-8 prior scales; the posterior mode (0.8 x) is put
    # at the edge cell nearest to the off-grid parameter
    thetas[::2, 0], xs[::2, 0] = 9.0, 7.9 / 0.8
    thetas[1::4, 1], xs[1::4, 1] = -8.5, -7.9 / 0.8
    off = np.zeros(len(thetas), dtype=bool)
    off[::2] = off[1::4] = True
    curve = ecp_grid_hpdr(oracle, thetas, xs, problem, levels=LEVELS,
                          resolution=64)
    expected = reference_grid_ecp(oracle, thetas, xs, problem, LEVELS, 64)
    np.testing.assert_array_equal(curve.ecp, expected)
    assert np.all(curve.ecp <= 1.0 - off.mean())
    alone = ecp_grid_hpdr(oracle, thetas[off], xs[off], problem,
                          levels=[0.05, 0.5, 0.999], resolution=64)
    np.testing.assert_array_equal(alone.ecp, 0.0)


@pytest.mark.parametrize("which", ["oracle", "nonlinear-2d-oracle", "npe", "nre"])
def test_coverage_statistics_do_not_depend_on_chunk_size(nonlinear_models, which):
    if which == "oracle":
        problem = get_problem("gaussian-linear")
        posterior = analytic_posterior(problem)
    elif which == "nonlinear-2d-oracle":
        # the grid's prior and means are computed once per audit, reused by chunks
        problem = get_problem("nonlinear-2d")
        posterior = oracle_posterior(problem)
    else:
        problem = get_problem("nonlinear-2d")
        posterior = nonlinear_models[which]
    ds = simulate_dataset(problem, 30, seed=40)
    proposal = covreg.PriorProposal(problem.prior)
    alphas = [rank_statistic_sample(posterior, ds.thetas, ds.xs, 64, proposal,
                                    np.random.default_rng(6), chunk=chunk)
              for chunk in (1, 7, None)]
    grids = [ecp_grid_hpdr(posterior, ds.thetas, ds.xs, problem, levels=LEVELS,
                           resolution=64, **kw).ecp
             for kw in ({"chunk": 1}, {"chunk": 7}, {})]
    for a in alphas[1:]:
        np.testing.assert_allclose(a, alphas[0], rtol=0, atol=1e-12)
    for g in grids[1:]:
        np.testing.assert_allclose(g, grids[0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["npe", "nre"])
def test_row_blocks_that_split_pairs_leave_coverage_statistics_unchanged(
        nonlinear_models, monkeypatch, method):
    problem = get_problem("nonlinear-2d")
    model = nonlinear_models[method]
    ds = simulate_dataset(problem, 20, seed=41)
    proposal = covreg.PriorProposal(problem.prior)
    calls = []      # rows of each network layer call, one list per audit

    def statistics():
        calls.append([])
        alphas = rank_statistic_sample(model, ds.thetas, ds.xs, 64, proposal,
                                       np.random.default_rng(7))
        calls.append([])
        grid = ecp_grid_hpdr(model, ds.thetas, ds.xs, problem, levels=LEVELS,
                             resolution=64)
        return alphas, grid.ecp

    default = statistics()
    # 1,000 rows split every 64^2 = 4,096-row pair grid unevenly
    monkeypatch.setattr(estimators, "ROW_BLOCK", 1000)
    dense = estimators.dense

    def recording(x, w, b, selu=False):
        calls[-1].append(x.data.shape[0])
        return dense(x, w, b, selu)

    # every layer of every network, the flow grid pass's run on one axis included
    monkeypatch.setattr(estimators, "dense", recording)
    calls.clear()
    blocked = statistics()
    assert [0 < max(rows) <= 1000 for rows in calls] == [True, True]
    np.testing.assert_array_equal(blocked[0], default[0])
    np.testing.assert_array_equal(blocked[1], default[1])


@pytest.mark.parametrize("which", ["npe", "nre", "oracle", "nonlinear-2d-oracle"])
def test_rank_statistics_are_bit_identical_with_and_without_the_pool(
        nonlinear_models, monkeypatch, which):
    problem = get_problem("gaussian-linear" if which == "oracle" else "nonlinear-2d")
    posterior = (oracle_posterior(problem) if which.endswith("oracle")
                 else nonlinear_models[which])
    ds = simulate_dataset(problem, 30, seed=44)
    proposal = covreg.PriorProposal(problem.prior)

    def alphas():
        return rank_statistic_sample(posterior, ds.thetas, ds.xs, 128, proposal,
                                     np.random.default_rng(8), chunk=4)

    pooled = alphas()
    # a dict that is not the pool: every op allocates
    monkeypatch.setattr(ad, "workspace", lambda: contextlib.nullcontext({}))
    np.testing.assert_array_equal(alphas(), pooled)


def _two_call_rank_statistics(posterior, thetas, xs, num_samples, proposal, rng,
                              chunk):
    """Reference: rank statistics from one model call on each chunk's nominal
    rows and a second on its draw rows, paired rows for an oracle."""
    out = []
    with ad.no_grad():
        for lo in range(0, len(thetas), chunk):
            t, x = thetas[lo:lo + chunk], xs[lo:lo + chunk]
            lp_star = paired_log_density(posterior, t, x)
            draws = proposal.sample_batch(x, rng, num_samples).reshape(-1, t.shape[1])
            log_prop = proposal.log_density_rows(draws, x).reshape(len(t), -1)
            lp_draws = paired_log_density(posterior, draws, x,
                                          num_samples).reshape(len(t), -1)
            out.append(covreg.rank_statistic_core(lp_star, lp_draws, log_prop)[0].data[:, 0])
    return np.concatenate(out)


@pytest.mark.parametrize("which", ["npe", "nre", "oracle", "nonlinear-2d-oracle"])
def test_one_call_rank_statistics_equal_nominal_and_draw_calls_bit_for_bit(
        nonlinear_models, which):
    problem = get_problem("gaussian-linear" if which == "oracle" else "nonlinear-2d")
    posterior = (oracle_posterior(problem) if which.endswith("oracle")
                 else nonlinear_models[which])
    ds = simulate_dataset(problem, 30, seed=46)
    proposal = covreg.PriorProposal(problem.prior)
    # chunks of 4 end in one of 2 pairs, chunks of 29 in one of 1 pair
    for chunk in (4, 29):
        np.testing.assert_array_equal(
            rank_statistic_sample(posterior, ds.thetas, ds.xs, 128, proposal,
                                  np.random.default_rng(10), chunk=chunk),
            _two_call_rank_statistics(posterior, ds.thetas, ds.xs, 128, proposal,
                                      np.random.default_rng(10), chunk))


@pytest.mark.parametrize("method", ["npe", "nre"])
def test_rank_audit_runs_the_model_once_per_chunk(method):
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 10, seed=47)
    model = estimators.build_model(method, problem.prior, problem.dim_x, {},
                                   rng=np.random.default_rng(3))
    counter = RowCounter(model)
    rank_statistic_sample(model, ds.thetas, ds.xs, 64,
                          covreg.PriorProposal(problem.prior),
                          np.random.default_rng(11), chunk=4)
    # each chunk's nominal and draw rows, 1 + L a pair, in one call
    assert (counter.embed_calls, counter.embed_rows) == (3, 10)
    assert (counter.density_calls, counter.density_rows) == (3, 10 * 65)


def test_an_oracle_rank_audit_repeats_no_observation(monkeypatch):
    # an oracle broadcasts each observation over its pair's nominal parameter
    # and draws, so no chunk repeats observation rows; a network model repeats
    # its embedding once a chunk
    repeat_rows, calls = ad.repeat_rows, []

    def counted(v, k):
        calls.append(k)
        return repeat_rows(v, k)

    for module in (ad, covreg):
        monkeypatch.setattr(module, "repeat_rows", counted)
    for name in ("gaussian-linear", "nonlinear-2d"):
        problem = get_problem(name)
        oracle = oracle_posterior(problem)
        ds = simulate_dataset(problem, 10, seed=47)
        proposals = [covreg.PriorProposal(problem.prior)]
        if name == "gaussian-linear":
            proposals.append(covreg.DensityProposal(oracle))
        for proposal in proposals:
            rank_statistic_sample(oracle, ds.thetas, ds.xs, 64, proposal,
                                  np.random.default_rng(11), chunk=4)
    assert calls == []
    flow = estimators.build_model("npe", problem.prior, problem.dim_x, {},
                                  rng=np.random.default_rng(3))
    rank_statistic_sample(flow, ds.thetas, ds.xs, 64, proposals[0],
                          np.random.default_rng(11), chunk=4)
    assert calls == [65] * 3


def pin_workers(monkeypatch, count):
    """Run every rank audit of the test on `count` threads."""
    monkeypatch.setattr(diagnostics, "_rank_workers", lambda chunks: count)


def test_the_rank_pool_stops_growing_after_the_second_chunk(nonlinear_models,
                                                            monkeypatch):
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 48, seed=45)
    pools, sizes = {}, {}           # by thread: its pool, its size after each chunk
    workspace, rank_statistics = ad.workspace, covreg.rank_statistics

    @contextlib.contextmanager
    def recorded_workspace():
        with workspace() as pool:
            pools[threading.get_ident()] = pool
            yield pool

    def recorded_rank_statistics(*args, **kwargs):
        batch = rank_statistics(*args, **kwargs)
        pool = pools[threading.get_ident()]
        sizes.setdefault(threading.get_ident(), []).append(
            sum(len(arrays) for arrays in pool.values()))
        return batch

    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(ad, "workspace", recorded_workspace)
    monkeypatch.setattr(covreg, "rank_statistics", recorded_rank_statistics)
    rank_statistic_sample(nonlinear_models["npe"], ds.thetas, ds.xs, 256,
                          covreg.PriorProposal(problem.prior),
                          np.random.default_rng(9), chunk=4)
    # one pool per thread, and 12 chunks between them
    assert len(pools) == 2 and sum(map(len, sizes.values())) == 12
    for grown in sizes.values():
        assert grown[0] > 0 and grown[2:] == [grown[1]] * (len(grown) - 2)


def rank_audit_peak(model, count, workers, monkeypatch):
    """Traced peak of a prior-proposal rank audit of `count` pairs at L=1024."""
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, count, seed=46)
    proposal = covreg.PriorProposal(problem.prior)
    pin_workers(monkeypatch, workers)
    tracemalloc.start()
    try:
        rank_statistic_sample(model, ds.thetas, ds.xs, 1024, proposal,
                              np.random.default_rng(10))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rank_audit_of_a_flow_at_l_1024_has_a_bounded_peak(nonlinear_models,
                                                           monkeypatch):
    # 18 chunks of 7 pairs, one of 6, on one thread
    peak = rank_audit_peak(nonlinear_models["npe"], 132, 1, monkeypatch)
    # the pool of one 7-pair chunk and its draws hold about 4.7 MB; one pass
    # over all 135,300 density rows would hold 17 MB per hidden layer
    assert peak < 8 * 2 ** 20


def test_two_worker_rank_audit_peak_is_bounded_and_flat_in_the_pairs(
        nonlinear_models, monkeypatch):
    # two pools of one chunk each: about 9.5 MB at 132 pairs and at 396
    peaks = [rank_audit_peak(nonlinear_models["npe"], count, 2, monkeypatch)
             for count in (132, 396)]
    assert max(peaks) < 2 * 8 * 2 ** 20
    assert peaks[1] < 1.1 * peaks[0]


def rank_case(nonlinear_models, which):
    """(problem, posterior, proposal) of a rank audit case by name."""
    problem = get_problem("gaussian-linear" if which == "oracle" else "nonlinear-2d")
    if which.endswith("oracle"):
        return problem, oracle_posterior(problem), covreg.PriorProposal(problem.prior)
    if which == "flow-proposal":
        flow = nonlinear_models["npe"]
        return problem, flow, covreg.DensityProposal(flow)
    return problem, nonlinear_models[which], covreg.PriorProposal(problem.prior)


@pytest.mark.parametrize("which", ["npe", "nre", "oracle", "nonlinear-2d-oracle",
                                   "flow-proposal"])
@pytest.mark.parametrize("count", [30, 5])
def test_rank_statistics_and_the_rng_do_not_depend_on_the_worker_count(
        nonlinear_models, monkeypatch, which, count):
    # chunks of 4: 30 pairs end in a short chunk of 2, 5 pairs are 2 chunks
    # for up to 3 workers
    problem, posterior, proposal = rank_case(nonlinear_models, which)
    ds = simulate_dataset(problem, count, seed=48)
    runs = []
    for workers in (1, 2, 3):
        pin_workers(monkeypatch, workers)
        rng = np.random.default_rng(12)
        alphas = rank_statistic_sample(posterior, ds.thetas, ds.xs, 128, proposal,
                                       rng, chunk=4)
        runs.append((alphas, rng.random()))
    for alphas, next_draw in runs[1:]:
        np.testing.assert_array_equal(alphas, runs[0][0])
        assert next_draw == runs[0][1]


class YieldingProposal(covreg.PriorProposal):
    """The prior proposal, handing the GIL to another thread before each draw."""

    def sample_batch(self, xs, rng, count):
        time.sleep(1e-4)
        return super().sample_batch(xs, rng, count)


def test_more_workers_than_cores_switching_often_draw_in_chunk_order(monkeypatch):
    # a chunk claimed twice would read the rng twice, one skipped would leave
    # its slice unwritten, and draws taken out of chunk order would move them
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 96, seed=54)
    posterior, proposal = analytic_posterior(problem), YieldingProposal(problem.prior)

    def audit(workers):
        pin_workers(monkeypatch, workers)
        rng = np.random.default_rng(18)
        alphas = rank_statistic_sample(posterior, ds.thetas, ds.xs, 16, proposal, rng,
                                       chunk=1)
        return alphas, rng.random()

    want = audit(1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [audit(5) for _ in range(3)]       # 5 threads for 96 chunks
    finally:
        sys.setswitchinterval(interval)
    for alphas, next_draw in got:
        np.testing.assert_array_equal(alphas, want[0])
        assert next_draw == want[1]


def counted_threads(monkeypatch):
    """Record every thread started while the test runs; returns the list."""
    started, real = [], threading.Thread

    class Counted(real):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def test_the_worker_count_is_usable_cpus_chunks_and_a_cap_of_four(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    assert [diagnostics._rank_workers(c) for c in (1, 3, 100)] == [1, 3, 4]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert diagnostics._rank_workers(100) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert diagnostics._rank_workers(100) == 2


def test_one_chunk_or_one_cpu_starts_no_thread_and_the_count_starts_the_rest(
        monkeypatch):
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 12, seed=49)
    posterior, proposal = analytic_posterior(problem), covreg.PriorProposal(problem.prior)
    started = counted_threads(monkeypatch)

    def audit(chunk):
        rank_statistic_sample(posterior, ds.thetas, ds.xs, 32, proposal,
                              np.random.default_rng(13), chunk=chunk)

    audit(12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    audit(2)
    assert started == []
    pin_workers(monkeypatch, 3)
    audit(2)
    assert len(started) == 2


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_in_a_worker_is_raised_and_no_thread_outlives_the_audit(
        monkeypatch, workers):
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 20, seed=50)
    calls, lock, real = [], threading.Lock(), covreg.rank_statistics

    def failing(*args, **kwargs):
        with lock:
            calls.append(threading.get_ident())
            third = len(calls) == 3
        if third:
            raise FloatingPointError("overflow in the third chunk")
        return real(*args, **kwargs)

    pin_workers(monkeypatch, workers)
    monkeypatch.setattr(covreg, "rank_statistics", failing)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="overflow in the third chunk"):
        rank_statistic_sample(analytic_posterior(problem), ds.thetas, ds.xs, 32,
                              covreg.PriorProposal(problem.prior),
                              np.random.default_rng(14), chunk=2)
    assert threading.active_count() == before
    # of the 10 chunks, only those claimed before the error was seen ran
    assert 3 <= len(calls) <= 3 + workers - 1


def test_an_interrupt_in_the_caller_joins_every_helper(monkeypatch):
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 20, seed=51)
    caller, real = threading.get_ident(), covreg.rank_statistics
    interrupt = threading.Event()

    def interrupted(*args, **kwargs):
        if threading.get_ident() == caller:
            interrupt.set()
            raise KeyboardInterrupt
        interrupt.wait(10)      # the helper holds its chunk until the caller has one
        return real(*args, **kwargs)

    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(covreg, "rank_statistics", interrupted)
    started = counted_threads(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        rank_statistic_sample(analytic_posterior(problem), ds.thetas, ds.xs, 32,
                              covreg.PriorProposal(problem.prior),
                              np.random.default_rng(15), chunk=2)
    assert len(started) == 1 and not started[0].is_alive()


def test_the_rank_audit_runs_with_grad_off_and_restores_it(nonlinear_models,
                                                           monkeypatch):
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 24, seed=52)
    flow = nonlinear_models["npe"]
    seen, real = [], covreg.rank_statistics

    def recorded(*args, **kwargs):
        seen.append(ad._grad_enabled)
        return real(*args, **kwargs)

    pin_workers(monkeypatch, 2)
    monkeypatch.setattr(covreg, "rank_statistics", recorded)
    assert ad._grad_enabled is True
    # the flow proposal's draws and densities open nested no_grad blocks
    rank_statistic_sample(flow, ds.thetas, ds.xs, 64, covreg.DensityProposal(flow),
                          np.random.default_rng(16), chunk=3)
    assert seen == [False] * 8
    assert ad._grad_enabled is True


# (chunk, pairs of xs for 5 of theta, L): the message; the grid audit draws no L
MALFORMED = {(-2, 5, 16): "chunk must be >= 1 pair, got -2",
             (0, 5, 16): "chunk must be >= 1 pair, got 0",
             (None, 6, 16): "5 parameters but 6 observations",
             (None, 4, 16): "5 parameters but 4 observations",
             (None, 5, 0): "num_samples must be >= 1, got 0"}


@pytest.mark.parametrize("audit,args", [("rank", a) for a in MALFORMED]
                         + [("grid", a) for a in MALFORMED if a[2]])
def test_malformed_audit_arguments_raise_before_any_work(nonlinear_models,
                                                         monkeypatch, audit, args):
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 6, seed=53)
    flow = nonlinear_models["npe"]
    chunk, n_xs, num_samples = args
    counter, started = RowCounter(flow), counted_threads(monkeypatch)
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match=MALFORMED[args]):
        if audit == "rank":
            rank_statistic_sample(flow, ds.thetas[:5], ds.xs[:n_xs], num_samples,
                                  covreg.PriorProposal(problem.prior), rng, chunk=chunk)
        else:
            ecp_grid_hpdr(flow, ds.thetas[:5], ds.xs[:n_xs], problem, resolution=16,
                          chunk=chunk)
    assert (counter.embed_calls, counter.density_calls, started) == (0, 0, [])
    assert rng.random() == np.random.default_rng(17).random()


def test_grid_hpdr_on_a_flow_pair_at_512_has_a_bounded_peak(nonlinear_models):
    problem = get_problem("nonlinear-2d")
    ds = simulate_dataset(problem, 1, seed=42)
    tracemalloc.start()
    try:
        ecp_grid_hpdr(nonlinear_models["npe"], ds.thetas, ds.xs, problem,
                      resolution=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one pass over all 262,144 grid rows would hold 32 MB per hidden layer
    assert peak < 24 * 2 ** 20


def test_grid_hpdr_on_gaussian_oracle_pairs_at_512_has_a_bounded_peak():
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 16, seed=43)
    tracemalloc.start()
    try:
        ecp_grid_hpdr(analytic_posterior(problem), ds.thetas, ds.xs, problem,
                      resolution=512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the grid, three reused 1-pair buffers and one scratch hold about 10 MB;
    # 8-pair slices of fresh temporaries would peak at 70 MB
    assert peak < 24 * 2 ** 20


def test_hpdr_interval_of_standard_normal_is_central():
    seg = hpdr_intervals_1d(
        lambda t: np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi),
        bounds=(-6.0, 6.0), level=2 * phi(1.0) - 1.0, resolution=4096)
    assert len(seg) == 1
    cell = 12.0 / 4096
    assert seg[0][0] == pytest.approx(-1.0, abs=cell * 2)
    assert seg[0][1] == pytest.approx(1.0, abs=cell * 2)


# -- scalar metrics -------------------------------------------------------------


def test_auc_zero_on_diagonal():
    levels = np.linspace(0.05, 0.95, 19)
    assert coverage_auc(CoverageCurve(levels, levels, 10, "rank-based")) == 0.0


def test_auc_of_saturated_curve_with_nineteen_levels():
    levels = np.linspace(0.05, 0.95, 19)
    curve = CoverageCurve(levels, np.ones(19), 10, "rank-based")
    assert coverage_auc(curve) == pytest.approx(0.475, abs=1e-12)


def test_auc_sign_for_underdispersed_gaussian():
    # model = true posterior with half the standard deviation (1D closed form)
    levels = np.linspace(0.05, 0.95, 19)
    z = np.array([math.sqrt(2) * _erfinv(lev) for lev in levels])
    ecp = np.array([2 * phi(0.5 * zz) - 1 for zz in z])
    curve = CoverageCurve(levels, ecp, 10, "rank-based")
    assert ecp[np.argmin(np.abs(levels - 0.9))] == pytest.approx(0.5887, abs=1e-3)
    assert coverage_auc(curve) < 0


def _erfinv(y):
    # bisection is plenty for test tolerances
    lo, hi = -6.0, 6.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_calibration_and_conservativeness_errors_by_hand():
    curve = CoverageCurve([0.25, 0.5, 0.75], [0.3, 0.45, 0.8], 10, "rank-based")
    assert calibration_error(curve) == pytest.approx(0.05)
    assert conservativeness_error(curve) == pytest.approx(0.05 / 3)
    diag = CoverageCurve([0.25, 0.5, 0.75], [0.25, 0.5, 0.75], 10, "rank-based")
    assert calibration_error(diag) == 0.0
    assert conservativeness_error(diag) == 0.0
    above = CoverageCurve([0.25, 0.5, 0.75], [0.3, 0.6, 0.9], 10, "rank-based")
    assert conservativeness_error(above) == 0.0
    assert calibration_error(above) > 0.0


def test_calibration_error_dominates_conservativeness_error(rng):
    for _ in range(200):
        n = int(rng.integers(2, 20))
        levels = np.sort(rng.uniform(0.01, 0.99, n))
        levels = np.unique(levels)
        if levels.size < 2:
            continue
        ecp = rng.uniform(0, 1, levels.size)
        curve = CoverageCurve(levels, ecp, 10, "rank-based")
        cal = calibration_error(curve)
        cons = conservativeness_error(curve)
        assert cal >= cons >= 0.0


def test_grid_hpdr_curve_is_monotone():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 100, seed=41)
    curve = ecp_grid_hpdr(oracle, ds.thetas, ds.xs, problem,
                          levels=np.linspace(0.05, 0.95, 19), resolution=64)
    assert np.all(np.diff(curve.ecp) >= 0)


def test_ks_single_midpoint_value():
    assert ks_statistic([0.5]) == 0.5


def test_ks_of_exact_grid_is_one_over_n():
    n = 25
    assert ks_statistic(np.arange(1, n + 1) / n) == pytest.approx(1.0 / n)


def test_ks_matches_analytic_beta_distance():
    rng = np.random.default_rng(0)
    draws = rng.beta(2.0, 2.0, 100_000)
    x = 0.5 - math.sqrt(3) / 6
    expected = abs(3 * x ** 2 - 2 * x ** 3 - x)
    assert ks_statistic(draws) == pytest.approx(expected, abs=0.005)


def test_ks_permutation_invariant(rng):
    vals = rng.random(100)
    assert ks_statistic(vals) == ks_statistic(vals[::-1])
    assert ks_statistic(vals) == ks_statistic(rng.permutation(vals))


def test_ks_rejects_out_of_range():
    with pytest.raises(ValueError):
        ks_statistic([0.2, 1.4])


def test_expected_log_posterior_of_uniform_prior():
    prior = Prior.uniform_box([-1.0, -1.0], [1.0, 1.0])
    pp = PriorAsPosterior(prior)
    rng = np.random.default_rng(0)
    thetas = prior.sample(rng, 50)
    report = expected_log_posterior(pp, thetas, np.zeros((50, 2)), prior=prior)
    assert report.value == pytest.approx(math.log(0.25), abs=1e-12)
    assert report.excluded == 0
    assert report.prior_baseline == pytest.approx(math.log(0.25), abs=1e-12)
    again = expected_log_posterior(pp, thetas, np.zeros((50, 2)), prior=prior)
    assert again.value == report.value


def test_expected_log_posterior_counts_support_violations():
    prior = Prior.uniform_box([-1.0], [1.0])
    pp = PriorAsPosterior(prior)
    thetas = np.array([[0.0], [2.0], [0.5]])
    report = expected_log_posterior(pp, thetas, np.zeros((3, 1)))
    assert report.excluded == 1
    assert report.value == pytest.approx(math.log(0.5))


def test_sbc_histogram_uniform_grid_has_equal_counts():
    vals = np.arange(1, 101) / 100.0
    hist = sbc_histogram(vals, bins=10)
    np.testing.assert_array_equal(hist.counts, 10)
    assert hist.counts.sum() == hist.total == 100


def test_sbc_histogram_mass_at_zero_and_validation():
    hist = sbc_histogram(np.zeros(7), bins=5)
    assert hist.counts[0] == 7 and hist.counts[1:].sum() == 0
    with pytest.raises(ValueError):
        sbc_histogram([0.5], bins=1)
    with pytest.raises(ValueError):
        sbc_histogram([1.5], bins=4)


def test_oracle_rank_statistics_pass_chi_square_uniformity():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 10_000, seed=35)
    proposal = covreg.DensityProposal(oracle)
    alphas = rank_statistic_sample(oracle, ds.thetas, ds.xs, 256, proposal,
                                   np.random.default_rng(4), chunk=512)
    hist = sbc_histogram(alphas, bins=20)
    expected = hist.total / hist.bins
    chi2 = float(np.sum((hist.counts - expected) ** 2 / expected))
    assert chi2 < 43.8  # 99th percentile of chi-square with 19 dof


# -- mixture demo --------------------------------------------------------------------


def test_mixture_demo_detects_overconfidence():
    report = mixture_demo(n_samples=1000, level=0.9, seed=0)
    assert report.ecp < 0.9
    assert len(report.segments) >= 2


def test_mixture_demo_self_test_recovers_level():
    report = mixture_demo(n_samples=1000, level=0.9, seed=0, self_test=True)
    assert report.ecp == pytest.approx(0.9, abs=0.03)


def test_mixture_demo_regions_nest_with_level():
    big = mixture_demo(n_samples=10, level=0.9, seed=0)
    small = mixture_demo(n_samples=10, level=0.5, seed=0)
    length = lambda segs: sum(hi - lo for lo, hi in segs)
    assert length(small.segments) < length(big.segments)


# -- CSV output -----------------------------------------------------------------------


def test_csv_writers_round_trip(tmp_path):
    curve = CoverageCurve([0.25, 0.5], [0.3, 0.55], 100, "rank-based", 64)
    write_coverage_csv(tmp_path / "coverage.csv", [curve])
    lines = (tmp_path / "coverage.csv").read_text().strip().splitlines()
    assert lines[0] == "level,ecp,method,n,L"
    assert len(lines) == 3
    assert "rank-based" in lines[1]

    write_metrics_csv(tmp_path / "metrics.csv", {"auc": 0.125})
    text = (tmp_path / "metrics.csv").read_text()
    assert "auc,0.125" in text

    hist = sbc_histogram(np.linspace(0.01, 0.99, 50), bins=5)
    write_sbc_csv(tmp_path / "sbc.csv", hist)
    lines = (tmp_path / "sbc.csv").read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 6
