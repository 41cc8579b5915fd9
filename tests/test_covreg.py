import math

import numpy as np
import pytest

from calsbi import autodiff as ad
from calsbi import covreg
from calsbi.autodiff import Value
from calsbi.covreg import (RegConfig, direct_loss, rank_statistic_core,
                           rank_statistics, regularizer, sorting_loss,
                           ste_indicator)
from calsbi.diagnostics import rank_statistic_sample
from calsbi.estimators import NpeFlow, Prior
from calsbi.problems import analytic_posterior, get_problem, simulate_dataset

from conftest import (PairedSets, PriorAsPosterior, RowCounter, assert_close_rel,
                      finite_difference, rank_block)
from surrogate_twin import RegularizerTwin, rank_statistic_quotient


def phi(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class QuadraticDensity(PairedSets):
    """Unnormalized 1D density exp(-theta^2); mode at zero."""

    normalized = False
    dim_theta = 1

    def log_density(self, theta, x):
        theta = np.asarray(theta).reshape(-1)
        return -theta ** 2


class VanishingDensity(PairedSets):
    normalized = False
    dim_theta = 1

    def log_density(self, theta, x):
        return np.full(np.asarray(theta).reshape(-1, 1).shape[0], -np.inf)


class StdNormal1D(PairedSets):
    normalized = True
    dim_theta = 1

    def log_density(self, theta, x):
        theta = np.asarray(theta).reshape(-1)
        return -0.5 * theta ** 2 - 0.5 * math.log(2 * math.pi)


# -- rank statistic ------------------------------------------------------------


def test_alpha_is_one_when_target_density_dominates():
    prop = covreg.PriorProposal(Prior.uniform_box([-3.0], [3.0]))
    (a,) = rank_statistic_sample(QuadraticDensity(), [[0.0]], [[0.0]], 64, prop,
                                 np.random.default_rng(0))
    assert a == 1.0


def test_alpha_is_zero_when_target_density_is_smallest():
    prop = covreg.PriorProposal(Prior.uniform_box([-3.0], [3.0]))
    (a,) = rank_statistic_sample(QuadraticDensity(), [[10.0]], [[0.0]], 64, prop,
                                 np.random.default_rng(0))
    assert a == 0.0


def test_alpha_matches_analytic_tail_mass_for_standard_normal():
    prop = covreg.PriorProposal(Prior.uniform_box([-6.0], [6.0]))
    (a,) = rank_statistic_sample(StdNormal1D(), [[1.0]], [[0.0]], 100_000, prop,
                                 np.random.default_rng(0))
    expected = 2.0 * (1.0 - phi(1.0))  # mass where density is below density(1)
    assert a == pytest.approx(expected, abs=0.01)


def test_degenerate_weights_yield_zero_and_are_flagged():
    prop = covreg.PriorProposal(Prior.uniform_box([-1.0], [1.0]))
    pairs = np.zeros((4, 1)), np.zeros((4, 1))
    block = rank_block(VanishingDensity(), *pairs, 8, prop, np.random.default_rng(0))
    batch = rank_statistics(*pairs, 8, prop, block)
    np.testing.assert_array_equal(batch.values.data[:, 0], 0.0)
    assert batch.degenerate_count == 4


def test_alpha_always_in_unit_interval():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 200, seed=11)
    proposal = covreg.PriorProposal(problem.prior)
    block = rank_block(oracle, ds.thetas, ds.xs, 8, proposal, np.random.default_rng(1))
    batch = rank_statistics(ds.thetas, ds.xs, 8, proposal, block)
    a = batch.values.data[:, 0]
    assert np.all((a >= 0.0) & (a <= 1.0))


def test_scale_invariance_is_bit_exact_for_representable_factors():
    # 1000 randomized cases; scales are powers of two so the quotient algebra
    # cancels them exactly
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n, L = rng.integers(1, 5), int(rng.integers(2, 9))
        dens_star = rng.uniform(0.01, 2.0, (n, 1))
        dens_draws = rng.uniform(0.01, 2.0, (n, L))
        prop = rng.uniform(0.1, 1.0, (n, L))
        c = 2.0 ** int(rng.integers(-40, 41))
        base = rank_statistic_quotient(dens_star, dens_draws, prop)
        scaled = rank_statistic_quotient(c * dens_star, c * dens_draws, prop)
        np.testing.assert_array_equal(base, scaled)


def test_full_pipeline_scale_invariance_to_double_precision():
    class Scaled(PairedSets):
        normalized = False
        dim_theta = 1

        def __init__(self, base, log_c):
            self.base = base
            self.log_c = log_c

        def log_density(self, theta, x):
            return self.base.log_density(theta, x) + self.log_c

    prop = covreg.PriorProposal(Prior.uniform_box([-6.0], [6.0]))
    base = StdNormal1D()
    for log_c in (-300.0, -7.3, 11.1, 250.0):
        (a0,) = rank_statistic_sample(base, [[0.7]], [[0.0]], 256, prop,
                                      np.random.default_rng(5))
        (a1,) = rank_statistic_sample(Scaled(base, log_c), [[0.7]], [[0.0]], 256,
                                      prop, np.random.default_rng(5))
        assert a1 == pytest.approx(a0, abs=1e-12)


def test_forward_value_independent_of_temperature():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 64, seed=3)
    proposal = covreg.PriorProposal(problem.prior)
    block = rank_block(oracle, ds.thetas, ds.xs, 16, proposal, np.random.default_rng(7))
    a1 = rank_statistics(ds.thetas, ds.xs, 16, proposal, block, temperature=1.0)
    a100 = rank_statistics(ds.thetas, ds.xs, 16, proposal, block, temperature=100.0)
    np.testing.assert_array_equal(a1.values.data, a100.values.data)


def test_uniform_convergence_in_sample_count():
    # proposal == posterior == oracle: rank statistics approach uniformity as
    # the per-pair sample count grows
    from calsbi.diagnostics import ks_statistic

    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 2000, seed=21)
    proposal = covreg.DensityProposal(oracle)
    ks = {}
    for count in (8, 256):
        alphas = rank_statistic_sample(oracle, ds.thetas, ds.xs, count,
                                       proposal, np.random.default_rng(17),
                                       chunk=256)
        ks[count] = ks_statistic(alphas)
    assert ks[256] < ks[8]


# -- proposals -------------------------------------------------------------------


def test_flow_proposal_embeds_each_observation_once():
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 32, seed=12)
    flow = NpeFlow(2, 2, hidden=8, embed_dim=4, rng=np.random.default_rng(1),
                   last_scale=0.3)
    posterior = NpeFlow(2, 2, hidden=8, embed_dim=4, rng=np.random.default_rng(2))
    counter = RowCounter(flow)
    rank_statistic_sample(posterior, ds.thetas, ds.xs, 64,
                          covreg.DensityProposal(flow), np.random.default_rng(3))
    # 32 rows for the draws and 32 for their densities, not 32 + 32 * 64
    assert counter.embed_rows == 64
    assert counter.density_rows == 32 * 64


def test_density_proposal_equals_the_density_on_repeated_rows():
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 16, seed=13)
    flow = NpeFlow(2, 2, hidden=8, embed_dim=4, rng=np.random.default_rng(1),
                   last_scale=0.3)
    for density in (flow, analytic_posterior(problem)):
        proposal = covreg.DensityProposal(density)
        flat = proposal.sample_batch(ds.xs, np.random.default_rng(4), 8).reshape(-1, 2)
        np.testing.assert_array_equal(
            proposal.log_density_rows(flat, ds.xs),
            density.log_density(flat, np.repeat(ds.xs, 8, axis=0)))
    with pytest.raises(ValueError, match="evenly"):
        proposal.log_density_rows(flat[:-1], ds.xs)


def test_prior_proposal_density_is_the_prior_density():
    prior = Prior.uniform_box([-1.0, 0.0], [1.0, 2.0])
    thetas = np.random.default_rng(5).uniform(-1.5, 2.5, (24, 2))
    expected = prior.log_density(thetas)
    assert np.isneginf(expected).any() and np.isfinite(expected).any()
    got = covreg.PriorProposal(prior).log_density_rows(thetas, np.zeros((6, 3)))
    np.testing.assert_array_equal(got, expected)
    with pytest.raises(ValueError, match="evenly"):
        covreg.PriorProposal(prior).log_density_rows(thetas, np.zeros((5, 3)))


def test_prior_proposal_is_the_prior_posterior():
    prior = Prior.uniform_box([-1.0, 0.0], [1.0, 2.0])
    xs = np.random.default_rng(6).standard_normal((5, 2))
    proposal = covreg.PriorProposal(prior)
    reference = covreg.DensityProposal(PriorAsPosterior(prior))
    draws = proposal.sample_batch(xs, np.random.default_rng(7), 9)
    np.testing.assert_array_equal(
        draws, reference.sample_batch(xs, np.random.default_rng(7), 9))
    flat = draws.reshape(-1, 2)
    np.testing.assert_array_equal(proposal.log_density_rows(flat, xs),
                                  reference.log_density_rows(flat, xs))


# -- straight-through indicator ---------------------------------------------------


def test_ste_forward_one_inside_band_with_unit_gain():
    u = Value(np.array([0.5]), requires_grad=True)
    out = ste_indicator(u, temperature=1.0)
    assert out.data[0] == 1.0
    out.sum().backward()
    assert u.grad[0] == 1.0


def test_ste_saturated_negative_has_zero_gain():
    u = Value(np.array([-3.0]), requires_grad=True)
    out = ste_indicator(u, temperature=1.0)
    assert out.data[0] == 0.0
    out.sum().backward()
    assert u.grad[0] == 0.0


def test_ste_gain_matches_finite_differences_of_band_surrogate():
    # surrogate: clip(u, -tau, tau); its central difference equals the gain
    tau = 0.7
    for u0 in (-2.0, -0.69, -0.2, 0.0, 0.3, 0.69, 2.0):
        u = Value(np.array([u0]), requires_grad=True)
        ste_indicator(u, tau).sum().backward()
        eps = 1e-8
        fd = (np.clip(u0 + eps, -tau, tau) - np.clip(u0 - eps, -tau, tau)) / (2 * eps)
        assert abs(u.grad[0] - fd) <= 1e-6


def test_ste_rejects_bad_temperature():
    with pytest.raises(ValueError):
        ste_indicator(Value(np.zeros(1)), temperature=0.0)


# -- sorting loss -------------------------------------------------------------------


def test_exact_grid_has_zero_loss_in_both_modes(rng):
    n = 16
    grid = (np.arange(1, n + 1) / n)
    perm = rng.permutation(n)
    for mode in ("calibration", "conservative"):
        loss = sorting_loss(Value(grid[perm].reshape(-1, 1)), mode)
        assert float(loss.data[0]) == 0.0


def test_two_point_calibration_loss_by_hand():
    loss = sorting_loss(Value(np.array([[0.9], [0.2]])), "calibration")
    assert float(loss.data[0]) == pytest.approx(0.05)


def test_dominating_sequence_has_zero_conservative_loss():
    loss = sorting_loss(Value(np.array([[0.6], [1.0]])), "conservative")
    assert float(loss.data[0]) == 0.0
    # same values under calibration are penalized
    cal = sorting_loss(Value(np.array([[0.6], [1.0]])), "calibration")
    assert float(cal.data[0]) > 0.0


def test_sorting_loss_needs_two_values():
    with pytest.raises(ValueError):
        sorting_loss(Value(np.array([[0.3]])), "calibration")
    with pytest.raises(ValueError):
        sorting_loss(Value(np.array([[0.3], [0.5]])), "diagonal")


def test_sort_gradient_routes_through_permutation(rng):
    vals = Value(np.array([[0.9], [0.1], [0.5]]), requires_grad=True)
    loss = sorting_loss(vals, "calibration")
    loss.backward()

    def forward():
        # permutation is locally constant, so plain finite differences apply
        v = np.sort(vals.data[:, 0])
        return float(np.mean((np.arange(1, 4) / 3 - v) ** 2))

    assert_close_rel(vals.grad, finite_difference(forward, vals.data))


def test_soft_sort_keeps_forward_exact_and_routes_gradients(rng):
    data = rng.random((8, 1))
    hard = sorting_loss(Value(data), "calibration", sort_relaxation=0.0)
    soft = sorting_loss(Value(data), "calibration", sort_relaxation=0.1)
    np.testing.assert_array_equal(hard.data, soft.data)
    v = Value(data, requires_grad=True)
    sorting_loss(v, "calibration", sort_relaxation=0.1).backward()
    assert np.all(np.isfinite(v.grad))
    assert np.any(v.grad != 0.0)


# -- direct loss ---------------------------------------------------------------------


def test_direct_loss_zero_on_exact_grid():
    n = 8
    vals = Value((np.arange(1, n + 1) / n).reshape(-1, 1))
    loss = direct_loss(vals, levels=(0.25, 0.5, 0.75), mode="calibration")
    assert float(loss.data[0]) == 0.0


def test_direct_loss_counting_example():
    vals = Value(np.array([[0.2], [0.6], [0.9], [0.4]]))
    loss = direct_loss(vals, levels=(0.5,), mode="calibration")
    assert float(loss.data[0]) == 0.0


def test_direct_loss_saturated_overconfident_batch():
    levels = (0.25, 0.5, 0.75)
    vals = Value(np.zeros((10, 1)))
    loss = direct_loss(vals, levels=levels, mode="calibration")
    assert float(loss.data[0]) == pytest.approx(sum((1 - a) ** 2 for a in levels))


@pytest.mark.parametrize("mode", ["calibration", "conservative"])
def test_direct_loss_equals_per_level_sum(mode):
    levels = np.arange(1, 20) / 20.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        vals = Value(rng.uniform(0.0, 1.0, (32, 1)), requires_grad=True)
        direct_loss(vals, levels=levels, mode=mode, temperature=0.3).backward()
        grad = vals.grad
        vals.grad = None
        # one straight-through indicator and one rectifier per level
        total = Value(0.0)
        for level in levels:
            gap = (1.0 - ste_indicator(vals - level, 0.3)).mean() - level
            total = total + (gap.relu() if mode == "conservative" else gap).square()
        total.backward()
        loss = direct_loss(vals, levels=levels, mode=mode, temperature=0.3)
        assert float(loss.data[0]) == pytest.approx(float(total.data[0]),
                                                    rel=1e-14, abs=1e-16)
        np.testing.assert_allclose(grad, vals.grad, rtol=1e-13, atol=1e-16)


def test_direct_loss_rejects_levels_outside_open_interval():
    with pytest.raises(ValueError):
        direct_loss(Value(np.zeros((4, 1))), levels=(0.0, 0.5), mode="calibration")


# -- straight-through gradients vs frozen-routing twin --------------------------------


@pytest.mark.parametrize("mode", ["calibration", "conservative"])
@pytest.mark.parametrize("loss_form", ["sorting", "direct"])
def test_regularizer_gradients_match_twin_finite_differences(mode, loss_form):
    levels = (0.3, 0.6)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n, L = 6, 5
        lps = Value(rng.standard_normal((n, 1)), requires_grad=True)
        lpd = Value(rng.standard_normal((n, L)), requires_grad=True)
        log_prop = rng.standard_normal((n, L)) * 0.3
        tau = 0.5

        alpha, _ = rank_statistic_core(lps, lpd, log_prop, tau)
        if loss_form == "sorting":
            loss = sorting_loss(alpha, mode)
        else:
            loss = direct_loss(alpha, levels=levels, mode=mode, temperature=tau)
        loss.backward()

        twin = RegularizerTwin(lps.data.copy(), lpd.data.copy(), log_prop,
                               tau=tau, mode=mode, loss_form=loss_form,
                               levels=levels)
        for leaf in (lps, lpd):
            fd = finite_difference(lambda: twin.value(lps.data, lpd.data),
                                   leaf.data, eps=1e-7)
            assert_close_rel(leaf.grad, fd, rtol=1e-4, atol=1e-9)


# -- regularizer over models -----------------------------------------------------------


def test_oracle_posterior_regularizer_is_tiny():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    ds = simulate_dataset(problem, 512, seed=42)
    cfg = RegConfig(mode="calibration", loss_form="sorting", num_samples=1024)
    with ad.no_grad():
        block = rank_block(oracle, ds.thetas, ds.xs, cfg.num_samples,
                           covreg.PriorProposal(problem.prior), np.random.default_rng(0))
        loss, batch = regularizer(ds.thetas, ds.xs, cfg, problem.prior, block)
    assert float(loss.data[0]) <= 0.002
    assert batch.degenerate_count == 0


def test_prior_as_posterior_regularizer_same_scale():
    problem = get_problem("gaussian-linear")
    ds = simulate_dataset(problem, 512, seed=42)
    cfg = RegConfig(mode="calibration", loss_form="sorting", num_samples=1024)
    with ad.no_grad():
        block = rank_block(PriorAsPosterior(problem.prior), ds.thetas, ds.xs,
                           cfg.num_samples, covreg.PriorProposal(problem.prior),
                           np.random.default_rng(0))
        loss, _ = regularizer(ds.thetas, ds.xs, cfg, problem.prior, block)
    assert float(loss.data[0]) <= 0.002


def test_regularizer_requires_two_pairs():
    problem = get_problem("gaussian-linear")
    oracle = analytic_posterior(problem)
    cfg = RegConfig()
    pair = np.zeros((1, 2)), np.zeros((1, 2))
    block = rank_block(oracle, *pair, cfg.num_samples,
                       covreg.PriorProposal(problem.prior), np.random.default_rng(0))
    with pytest.raises(ValueError):
        regularizer(*pair, cfg, problem.prior, block)


class ScaleModel:
    """1D Gaussian posterior with one learnable log-scale parameter."""

    normalized = True
    method = "scale"

    def __init__(self, coef, log_scale):
        self.coef = coef
        self.log_scale = Value(np.array([[log_scale]]), requires_grad=True)

    def parameters(self):
        return {"log_scale": self.log_scale}

    def embed_graph(self, x):
        return x

    def log_density_graph(self, theta, x_emb):
        mean = Value(self.coef * x_emb.data[:, :1])
        z = (theta - mean) * (-self.log_scale).exp()
        return (z.square() * (-0.5) - self.log_scale
                - 0.5 * math.log(2 * math.pi))


def test_conservative_gradient_inflates_underdispersed_scale():
    # data: theta | x ~ N(0.8 x, 0.2); model uses half the true scale
    problem = get_problem("gaussian-linear", dim=1)
    ds = simulate_dataset(problem, 256, seed=5)
    true_std = math.sqrt(problem.noise_sigma ** 2 / (1 + problem.noise_sigma ** 2))
    model = ScaleModel(coef=1 / (1 + problem.noise_sigma ** 2),
                       log_scale=math.log(0.5 * true_std))
    cfg = RegConfig(mode="conservative", loss_form="sorting", num_samples=64)
    block = rank_block(model, ds.thetas, ds.xs, cfg.num_samples,
                       covreg.PriorProposal(problem.prior), np.random.default_rng(2))
    loss, _ = regularizer(ds.thetas, ds.xs, cfg, problem.prior, block)
    loss.backward()
    grad = model.log_scale.grad[0, 0]
    assert grad < 0.0  # a descent step increases the scale


def test_reg_config_validation():
    with pytest.raises(ValueError):
        RegConfig(mode="fancy")
    with pytest.raises(ValueError):
        RegConfig(loss_form="direct", levels=(0.2, 1.5))
    with pytest.raises(ValueError):
        RegConfig(num_samples=0)
    with pytest.raises(ValueError):
        RegConfig(temperature=0.0)
