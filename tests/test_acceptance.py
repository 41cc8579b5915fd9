"""Acceptance suite: one test per headline criterion, at stated tolerance.

Each test prints one PASS line on success (run with -s to see them inline);
a failed assertion marks the criterion red. The training-based criteria are
marked slow: they train twenty 500-epoch flow models and evaluate coverage
on 10k test pairs each.
"""

import math
import time

import numpy as np
import pytest

from calsbi import covreg
from calsbi.autodiff import Value
from calsbi.covreg import RegConfig, rank_statistic_core, sorting_loss
from calsbi.diagnostics import (conservativeness_error, coverage_auc,
                                curve_from_rank_statistics, ecp_grid_hpdr,
                                expected_log_posterior, ks_statistic,
                                mixture_demo, rank_statistic_sample)
from calsbi.estimators import NpeFlow, build_model
from calsbi.problems import analytic_posterior, get_problem, simulate_dataset
from calsbi.trainer import TrainConfig, train

from conftest import PriorAsPosterior, assert_close_rel, finite_difference
from step_overhead import measure_step_overhead
from surrogate_twin import RegularizerTwin, rank_statistic_quotient

LEVELS = np.linspace(0.05, 0.95, 19)
EVAL_SAMPLES = 1024
TEST_PAIRS = 10_000


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}", flush=True)


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@pytest.fixture(scope="module")
def gl_problem():
    return get_problem("gaussian-linear")


@pytest.fixture(scope="module")
def gl_test_set(gl_problem):
    return simulate_dataset(gl_problem, TEST_PAIRS, seed=8888)


@pytest.fixture(scope="module")
def oracle_alphas(gl_problem, gl_test_set):
    """Criterion 1 artifact: rank statistics of the analytic oracle."""
    oracle = analytic_posterior(gl_problem)
    start = time.perf_counter()
    alphas = rank_statistic_sample(
        oracle, gl_test_set.thetas, gl_test_set.xs, EVAL_SAMPLES,
        covreg.PriorProposal(gl_problem.prior), np.random.default_rng(1))
    return alphas, time.perf_counter() - start


def test_criterion_01_oracle_calibration(gl_test_set, oracle_alphas):
    alphas, elapsed = oracle_alphas
    curve = curve_from_rank_statistics(alphas, LEVELS, EVAL_SAMPLES)
    worst = float(np.max(np.abs(curve.ecp - curve.levels)))
    ks = ks_statistic(alphas)
    assert worst <= 0.02, f"max |ECP - level| = {worst:.4f}"
    assert ks <= 0.02, f"KS = {ks:.4f}"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
    report(1, f"oracle ECP within {worst:.4f} of diagonal, KS {ks:.4f}, "
              f"{elapsed:.0f}s")


def test_criterion_02_prior_calibration(gl_problem, gl_test_set):
    prior_model = PriorAsPosterior(gl_problem.prior)
    alphas = rank_statistic_sample(
        prior_model, gl_test_set.thetas, gl_test_set.xs, EVAL_SAMPLES,
        covreg.PriorProposal(gl_problem.prior), np.random.default_rng(2))
    curve = curve_from_rank_statistics(alphas, LEVELS, EVAL_SAMPLES)
    worst = float(np.max(np.abs(curve.ecp - curve.levels)))
    assert worst <= 0.02, f"max |ECP - level| = {worst:.4f}"
    report(2, f"prior-as-posterior ECP within {worst:.4f} of diagonal")


def test_criterion_03_overconfidence_detected():
    problem = get_problem("gaussian-linear", dim=1)
    test = simulate_dataset(problem, TEST_PAIRS, seed=8889)
    scaled = analytic_posterior(problem, scale_factor=0.5)
    alphas = rank_statistic_sample(
        scaled, test.thetas, test.xs, EVAL_SAMPLES,
        covreg.PriorProposal(problem.prior), np.random.default_rng(3))
    curve = curve_from_rank_statistics(alphas, LEVELS, EVAL_SAMPLES)
    auc = coverage_auc(curve)
    z95 = 1.6448536269514722
    expected = 2.0 * phi(0.5 * z95) - 1.0
    got = float(curve.ecp[np.argmin(np.abs(LEVELS - 0.9))])
    assert abs(got - expected) <= 0.02, f"ECP(0.9) = {got:.4f} vs {expected:.4f}"
    assert auc < 0.0, f"AUC = {auc:.4f} not negative"
    report(3, f"half-scale posterior: ECP(0.9) = {got:.4f} "
              f"(closed form {expected:.4f}), AUC = {auc:.4f}")


@pytest.mark.slow
def test_criterion_04_estimator_agreement(gl_problem, gl_test_set, oracle_alphas):
    alphas, _ = oracle_alphas
    rank_curve = curve_from_rank_statistics(alphas, LEVELS, EVAL_SAMPLES)
    oracle = analytic_posterior(gl_problem)
    grid_curve = ecp_grid_hpdr(oracle, gl_test_set.thetas, gl_test_set.xs,
                               gl_problem, levels=LEVELS, resolution=512)
    gap = float(np.max(np.abs(rank_curve.ecp - grid_curve.ecp)))
    assert gap <= 0.02, f"max estimator disagreement = {gap:.4f}"
    report(4, f"rank vs grid-region ECP agree within {gap:.4f} at all levels")


def test_criterion_05_regularizer_zero_points_and_scale_invariance():
    rng = np.random.default_rng(55)
    for case in range(1000):
        n = int(rng.integers(2, 33))
        grid = np.arange(1, n + 1) / n
        perm = rng.permutation(n)
        cal = sorting_loss(Value(grid[perm].reshape(-1, 1)), "calibration")
        assert float(cal.data[0]) == 0.0
        dominating = np.minimum(grid + rng.uniform(0, 1, n) * (1 - grid), 1.0)
        cons = sorting_loss(Value(dominating[perm].reshape(-1, 1)), "conservative")
        assert float(cons.data[0]) == 0.0
        m, L = int(rng.integers(1, 5)), int(rng.integers(2, 9))
        dens_star = rng.uniform(0.01, 2.0, (m, 1))
        dens_draws = rng.uniform(0.01, 2.0, (m, L))
        prop = rng.uniform(0.1, 1.0, (m, L))
        c = 2.0 ** int(rng.integers(-40, 41))
        base = rank_statistic_quotient(dens_star, dens_draws, prop)
        scaled = rank_statistic_quotient(c * dens_star, c * dens_draws, prop)
        np.testing.assert_array_equal(base, scaled)
    report(5, "zero points and bit-exact scale invariance over 1000 cases")


def test_criterion_06_gradient_integrity():
    # (a) surrogate gradients of the full regularizer vs frozen-routing twin
    checked = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        L = int(rng.integers(2, 9))
        mode = ("calibration", "conservative")[seed % 2]
        loss_form = ("sorting", "direct")[(seed // 2) % 2]
        lps = Value(rng.standard_normal((n, 1)), requires_grad=True)
        lpd = Value(rng.standard_normal((n, L)), requires_grad=True)
        log_prop = rng.standard_normal((n, L)) * 0.3
        tau = 0.5
        alpha, _ = rank_statistic_core(lps, lpd, log_prop, tau)
        if loss_form == "sorting":
            loss = sorting_loss(alpha, mode)
        else:
            loss = covreg.direct_loss(alpha, levels=(0.3, 0.6), mode=mode,
                                      temperature=tau)
        loss.backward()
        twin = RegularizerTwin(lps.data.copy(), lpd.data.copy(), log_prop,
                               tau=tau, mode=mode, loss_form=loss_form,
                               levels=(0.3, 0.6))
        for leaf in (lps, lpd):
            fd = finite_difference(lambda: twin.value(lps.data, lpd.data),
                                   leaf.data, eps=1e-7)
            assert_close_rel(leaf.grad, fd, rtol=1e-4, atol=1e-9)
            checked += 1

    # (b) end to end: regularizer through a small flow, gradient w.r.t. model
    # parameters against the twin composed with the model's density maps
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 6, seed=6)
    flow = NpeFlow(2, 2, hidden=6, embed_dim=4, rng=np.random.default_rng(0),
                   last_scale=0.4)
    L, tau = 4, 0.5
    proposal = covreg.PriorProposal(problem.prior)
    draws = proposal.sample_batch(ds.xs, np.random.default_rng(9), L)
    flat = draws.reshape(-1, 2)
    log_prop = proposal.log_density_rows(draws, ds.xs)

    def densities():
        lps = flow.log_density(ds.thetas, ds.xs).reshape(6, 1)
        lpd = flow.log_density_sets(draws, ds.xs)
        return lps, lpd

    emb_v = flow.embed_graph(Value(ds.xs))
    lps_v = flow.log_density_graph(Value(ds.thetas), emb_v)
    from calsbi.autodiff import repeat_rows
    lpd_v = flow.log_density_graph(Value(flat),
                                   repeat_rows(emb_v, L)).reshape(6, L)
    alpha, _ = rank_statistic_core(lps_v, lpd_v, log_prop, tau)
    loss = sorting_loss(alpha, "conservative")
    loss.backward()
    lps0, lpd0 = densities()
    twin = RegularizerTwin(lps0, lpd0, log_prop, tau=tau, mode="conservative",
                           loss_form="sorting")

    params = flow.parameters()
    for name in ("coupling0.w0", "x_net.w2", "coupling1.b2"):
        fd = finite_difference(lambda: twin.value(*densities()),
                               params[name].data, eps=1e-6)
        assert_close_rel(params[name].grad, fd, rtol=1e-4, atol=1e-8)

    report(6, f"surrogate gradients match twin finite differences "
              f"({checked} leaf checks + model-parameter chain)")


TRAIN_SEEDS = (201, 202, 203, 204, 205)
BUDGET = 1024


def spearman(xs, ys):
    def ranks(v):
        order = np.argsort(np.asarray(v))
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        return r

    rx, ry = ranks(xs) - (len(xs) + 1) / 2, ranks(ys) - (len(ys) + 1) / 2
    return float(np.sum(rx * ry) / math.sqrt(np.sum(rx ** 2) * np.sum(ry ** 2)))


def _train_and_score(method, weight, seed, ds, problem, test_set):
    reg = (RegConfig(mode="conservative", weight=weight, num_samples=16)
           if weight else None)
    cfg = TrainConfig(method=method, epochs=500, seed=seed, reg=reg)
    start = time.perf_counter()
    result = train(cfg, ds)
    wall = time.perf_counter() - start
    model = result.best_model(problem.prior, ds.dim_x)
    alphas = rank_statistic_sample(
        model, test_set.thetas, test_set.xs, EVAL_SAMPLES,
        covreg.PriorProposal(problem.prior), np.random.default_rng(1000 + seed))
    curve = curve_from_rank_statistics(alphas, LEVELS, EVAL_SAMPLES)
    elp = expected_log_posterior(model, test_set.thetas, test_set.xs).value
    return {"auc": coverage_auc(curve),
            "cons": conservativeness_error(curve),
            "elp": elp, "wall": wall}


@pytest.fixture(scope="module")
def flow_runs(gl_problem, gl_test_set):
    """Criterion 7 artifacts: regularized and plain flow runs, five seeds."""
    ds = simulate_dataset(gl_problem, BUDGET, seed=0)
    return {weight: [_train_and_score("npe", weight, seed, ds, gl_problem,
                                      gl_test_set) for seed in TRAIN_SEEDS]
            for weight in (0.0, 5.0)}


@pytest.mark.slow
def test_criterion_07_regularizer_makes_flows_conservative(flow_runs):
    regularized = flow_runs[5.0]
    plain = flow_runs[0.0]
    med_auc = float(np.median([r["auc"] for r in regularized]))
    med_cons = float(np.median([r["cons"] for r in regularized]))
    wins = sum(p["auc"] < r["auc"] for p, r in zip(plain, regularized))
    assert med_auc >= -0.01, f"median AUC {med_auc:+.4f} below -0.01"
    assert med_cons <= 0.05, f"median conservativeness error {med_cons:.4f}"
    assert wins >= 4, f"plain beat regularized AUC in {5 - wins}/5 pairings"
    slowest = max(r["wall"] for r in regularized + plain)
    assert slowest <= 600.0, f"a run took {slowest:.0f}s"
    report(7, f"median AUC {med_auc:+.4f}, conservativeness {med_cons:.4f}, "
              f"baseline lower in {wins}/5 pairings, runs <= {slowest:.0f}s")


@pytest.fixture(scope="module")
def ratio_lambda_grid(gl_problem, gl_test_set):
    """Criterion 8 artifacts: ratio-model runs across regularizer weights."""
    ds = simulate_dataset(gl_problem, BUDGET, seed=0)
    return {weight: [_train_and_score("nre", weight, seed, ds, gl_problem,
                                      gl_test_set) for seed in TRAIN_SEEDS]
            for weight in (0.0, 1.0, 5.0, 25.0)}


@pytest.mark.slow
def test_criterion_08_tradeoff_direction_across_weights(ratio_lambda_grid):
    weights = sorted(ratio_lambda_grid)
    med_auc = [float(np.median([r["auc"] for r in ratio_lambda_grid[w]]))
               for w in weights]
    med_elp = [float(np.median([r["elp"] for r in ratio_lambda_grid[w]]))
               for w in weights]
    rho_auc = spearman(weights, med_auc)
    rho_elp = spearman(weights, med_elp)
    assert rho_auc > 0, f"AUC medians not increasing with weight: {med_auc}"
    assert rho_elp < 0, f"log-density medians not decreasing: {med_elp}"
    report(8, f"median AUC per weight {[f'{a:+.3f}' for a in med_auc]} "
              f"(rho={rho_auc:+.2f}); median log density "
              f"{[f'{e:.3f}' for e in med_elp]} (rho={rho_elp:+.2f})")


@pytest.mark.slow
def test_criterion_09_uniformity_sharpens_with_sample_count(gl_problem):
    oracle = analytic_posterior(gl_problem)
    wins = 0
    for seed in range(5):
        ds = simulate_dataset(gl_problem, TEST_PAIRS, seed=9000 + seed)
        proposal = covreg.DensityProposal(oracle)
        ks = {}
        for count in (8, 256):
            alphas = rank_statistic_sample(oracle, ds.thetas, ds.xs, count,
                                           proposal,
                                           np.random.default_rng(700 + seed))
            ks[count] = ks_statistic(alphas)
        if ks[256] < ks[8]:
            wins += 1
    assert wins == 5, f"KS(256) < KS(8) in only {wins}/5 seeds"
    report(9, "KS to uniform strictly decreases from L=8 to L=256 in 5/5 seeds")


def test_criterion_10_mixture_demo():
    demo = mixture_demo(n_samples=1000, level=0.9, seed=0)
    assert demo.ecp < 0.9, f"ECP = {demo.ecp:.4f} not below 0.9"
    assert len(demo.segments) >= 2, "expected at least two disjoint segments"
    self_demo = mixture_demo(n_samples=1000, level=0.9, seed=0, self_test=True)
    assert abs(self_demo.ecp - 0.9) <= 0.03, f"self ECP = {self_demo.ecp:.4f}"
    report(10, f"narrow mixture ECP(0.9) = {demo.ecp:.4f} over "
               f"{len(demo.segments)} segments; self test {self_demo.ecp:.4f}")


@pytest.mark.slow
def test_criterion_11_overhead_monotone_in_sample_count():
    ds = simulate_dataset("gaussian-linear", 1024, seed=0)
    cfg = TrainConfig(method="npe", seed=0,
                      reg=RegConfig(mode="conservative", num_samples=16))
    rows = measure_step_overhead(cfg, ds, sample_counts=(1, 4, 16, 64),
                                 steps=50, repeats=7)
    times = [sec for _, sec in rows]
    assert all(b >= a for a, b in zip(times, times[1:])), f"not monotone: {rows}"
    pretty = ", ".join(f"L={c}: {s * 1e3:.1f}ms" for c, s in rows)
    report(11, f"per-step time non-decreasing in L ({pretty})")
