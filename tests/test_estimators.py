import itertools
import math

import numpy as np
import pytest

from calsbi import autodiff as ad
from calsbi import estimators
from calsbi.autodiff import Value, concat
from calsbi.estimators import (GaussianLinearPosterior, NpeFlow, NreModel, Prior,
                               build_model)
from calsbi.problems import GridLayout, LikelihoodPosterior, get_problem, grid_layout

from conftest import PriorAsPosterior, RowCounter, assert_close_rel, finite_difference

LOG_2PI = math.log(2 * math.pi)


# -- priors -------------------------------------------------------------------


def test_uniform_prior_constant_on_support_minus_inf_outside():
    prior = Prior.uniform_box([-1.0, -1.0], [1.0, 1.0])
    inside = prior.log_density(np.array([[0.0, 0.5], [-1.0, 1.0]]))
    np.testing.assert_allclose(inside, math.log(0.25))
    outside = prior.log_density(np.array([[1.5, 0.0]]))
    assert outside[0] == -np.inf


def test_uniform_prior_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Prior.uniform_box([1.0], [0.0])


def test_gaussian_prior_matches_closed_form(rng):
    prior = Prior.gaussian([0.5, -1.0], [2.0, 0.5])
    theta = rng.standard_normal((10, 2))
    expected = (-0.5 * ((theta[:, 0] - 0.5) / 2.0) ** 2
                - 0.5 * ((theta[:, 1] + 1.0) / 0.5) ** 2
                - math.log(2.0) - math.log(0.5) - LOG_2PI)
    np.testing.assert_allclose(prior.log_density(theta), expected, rtol=1e-12)


def _priors(dim, rng):
    """A standard and a shifted, scaled Gaussian, and a box, in `dim` dimensions."""
    return (Prior.gaussian(np.zeros(dim), np.ones(dim)),
            Prior.gaussian(rng.uniform(-1.0, 1.0, dim), rng.uniform(0.3, 3.0, dim)),
            Prior.uniform_box(rng.uniform(-2.5, -1.5, dim), rng.uniform(1.5, 2.5, dim)))


def test_prior_graph_matches_numpy(rng):
    # the reference is the broadcast formula; 9 columns: numpy's row sum
    # adds 8 or more columns pairwise
    for dim in (1, 2, 3, 9):
        for prior in _priors(dim, rng):
            theta = np.concatenate([prior.sample(rng, 16),
                                    rng.uniform(-4.0, 4.0, size=(16, dim))])
            const = prior._log_const
            if prior.kind == "uniform-box":
                formula = np.where(prior.in_support(theta), const, -np.inf)
            else:
                z = (theta - prior.mean) / prior.scale
                formula = np.square(z).sum(axis=1) * -0.5 + const
            np.testing.assert_array_equal(formula, prior.log_density(theta))
        assert np.isneginf(formula).any() and np.isfinite(formula).any()  # the box


@pytest.mark.parametrize("dim", [1, 2, 3, 9])
def test_prior_samples_equal_the_broadcast_formulas(dim):
    for prior in _priors(dim, np.random.default_rng(dim)):
        draws = prior.sample(np.random.default_rng(7), 50)
        rng = np.random.default_rng(7)
        if prior.kind == "uniform-box":
            expected = rng.uniform(prior.low, prior.high, size=(50, dim))
        else:
            expected = prior.mean + prior.scale * rng.standard_normal((50, dim))
        np.testing.assert_array_equal(draws, expected)


def test_prior_samples_stay_in_support(rng):
    prior = Prior.uniform_box([-3.0, 0.0], [3.0, 1.0])
    assert prior.in_support(prior.sample(rng, 1000)).all()


# -- ratio model -----------------------------------------------------------------


def _classifier_output(model, theta, x):
    """d(theta, x) = sigmoid(logit), in (0, 1)."""
    z = model.logit_graph(Value(theta), Value(model.embed(x))).data[:, 0]
    return 1.0 / (1.0 + np.exp(-z))


def _zero_head(model):
    model.head.params["head.w2"].data[...] = 0.0
    model.head.params["head.b2"].data[...] = 0.0


def test_uninformative_classifier_reproduces_prior_exactly(rng):
    prior = Prior.uniform_box([-2.0, -2.0], [2.0, 2.0])
    model = NreModel(prior, dim_x=2, rng=rng)
    _zero_head(model)
    theta = prior.sample(rng, 8)
    x = rng.standard_normal((8, 2))
    np.testing.assert_array_equal(model.log_density(theta, x),
                                  prior.log_density(theta))
    np.testing.assert_allclose(_classifier_output(model, theta, x), 0.5)


def test_unit_logit_shifts_log_posterior_by_one(rng):
    prior = Prior.uniform_box([-2.0], [2.0])
    model = NreModel(prior, dim_x=1, rng=rng)
    _zero_head(model)
    model.head.params["head.b2"].data[...] = 1.0
    theta = prior.sample(rng, 4)
    x = rng.standard_normal((4, 1))
    np.testing.assert_allclose(model.log_density(theta, x),
                               prior.log_density(theta) + 1.0, rtol=1e-12)
    np.testing.assert_allclose(_classifier_output(model, theta, x),
                               1.0 / (1.0 + math.exp(-1.0)))


def test_ratio_log_posterior_gradients_match_finite_differences(rng):
    prior = Prior.gaussian([0.0, 0.0], [1.0, 1.0])
    model = NreModel(prior, dim_x=2, hidden=8, embed_dim=4, rng=rng)
    theta = Value(rng.standard_normal((3, 2)), requires_grad=True)
    x = rng.standard_normal((3, 2))
    params = model.parameters()
    for p in params.values():
        p.grad = None

    def forward(graph=model.log_density_graph):
        emb = model.embed_graph(Value(x))
        return float(graph(theta, emb).sum().data[0])

    emb = model.embed_graph(Value(x))
    model.log_density_graph(theta, emb).sum().backward()
    # the log prior has no parameters and enters as a constant, so theta's
    # gradient is the head's
    assert_close_rel(theta.grad, finite_difference(
        lambda: forward(model.logit_graph), theta.data))
    for name in ("theta_net.w0", "x_net.w1", "head.w2", "head.b0"):
        assert_close_rel(params[name].grad,
                         finite_difference(forward, params[name].data))


def test_off_support_evaluates_to_minus_inf(rng):
    prior = Prior.uniform_box([-1.0], [1.0])
    model = NreModel(prior, dim_x=1, rng=rng)
    out = model.log_density(np.array([[2.0]]), np.array([[0.0]]))
    assert out[0] == -np.inf


# -- flow model -------------------------------------------------------------------


def test_identity_flow_density_is_standard_normal(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng)  # zero-initialized last layers
    ld = flow.log_density(np.zeros((1, 2)), np.array([[0.3, -0.7]]))
    assert ld[0] == pytest.approx(-LOG_2PI, abs=1e-12)


def test_identity_flow_sample_density_matches_base(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng)
    x = np.array([[0.1, 0.2]])
    draws = flow.sample_batch(x, np.random.default_rng(7), 64)[0]
    ld = flow.log_density(draws, np.repeat(x, 64, axis=0))
    base = -0.5 * np.sum(draws ** 2, axis=1) - LOG_2PI
    np.testing.assert_allclose(ld, base, rtol=1e-12)


def test_identity_flow_samples_are_standard_normal(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng)
    draws = flow.sample_batch(np.array([[0.0, 0.0]]), np.random.default_rng(3),
                              100_000)[0]
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
    assert np.all(np.abs(draws.std(axis=0) - 1.0) < 0.02)


def test_sampling_is_reproducible_and_count_zero_empty(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng, last_scale=0.3)
    x = np.array([[0.5, -0.5]])
    a = flow.sample_batch(x, np.random.default_rng(11), 32)[0]
    b = flow.sample_batch(x, np.random.default_rng(11), 32)[0]
    np.testing.assert_array_equal(a, b)
    assert flow.sample_batch(x, np.random.default_rng(11), 0)[0].shape == (0, 2)


def test_flow_inverse_of_forward_is_identity():
    for dim, seed in itertools.product((1, 2, 3), range(10)):
        r = np.random.default_rng(seed)
        flow = NpeFlow(dim_theta=dim, dim_x=3, rng=r, last_scale=0.5)
        theta = r.standard_normal((6, dim)) * 2.0
        x = r.standard_normal((6, 3))
        with ad.no_grad():
            emb = Value(flow.embed(x))
            z, _ = flow._pull_back(Value(theta), emb)
            back = flow._push_forward(z, emb)
        np.testing.assert_allclose(back.data, theta, atol=1e-8)


def test_flow_logdet_matches_numeric_jacobian(rng):
    for dim in (2, 1, 3):
        flow = NpeFlow(dim_theta=dim, dim_x=2, rng=rng, last_scale=0.5)
        x = rng.standard_normal((1, 2))
        emb = flow.embed(x)
        theta = rng.standard_normal((1, dim))

        def z_of(t):
            with ad.no_grad():
                z, _ = flow._pull_back(Value(t.reshape(1, dim)), Value(emb))
            return z.data[0]

        eps = 1e-6
        jac = np.zeros((dim, dim))
        for j in range(dim):
            tp, tm = theta[0].copy(), theta[0].copy()
            tp[j] += eps
            tm[j] -= eps
            jac[:, j] = (z_of(tp) - z_of(tm)) / (2 * eps)
        with ad.no_grad():
            _, logdet = flow._pull_back(Value(theta), Value(emb))
        assert logdet.data[0, 0] == pytest.approx(
            math.log(abs(np.linalg.det(jac))), rel=1e-4)


def _column_blocks(flow):
    """(conditioning, moved) column lists per block of the per-column flow (2D+)."""
    dims = np.arange(flow.dim_theta)
    return [(dims[(dims + j) % 2 == 0], dims[(dims + j) % 2 == 1])
            for j in range(len(flow.coupling))]


def _column_scale_shift(flow, net, cond, x_emb):
    raw = net(x_emb if cond is None else concat([cond, x_emb], axis=1))
    half = raw.data.shape[1] // 2
    return raw[:, :half].tanh() * flow.scale_bound, raw[:, half:]


def reference_pull_back(flow, theta, x_emb):
    """The per-column inverse pass, kept frozen as a reference."""
    nets = [net for _, net in flow.coupling]
    if flow.dim_theta == 1:
        s, shift = _column_scale_shift(flow, nets[0], None, x_emb)
        return (theta - shift) * (-s).exp(), -s.sum(axis=1, keepdims=True)
    cols = [theta[:, d:d + 1] for d in range(flow.dim_theta)]
    logdet = Value(np.zeros((theta.data.shape[0], 1)))
    for (cond_idx, trans_idx), net in reversed(list(zip(_column_blocks(flow), nets))):
        cond = concat([cols[d] for d in cond_idx], axis=1)
        s, shift = _column_scale_shift(flow, net, cond, x_emb)
        moved = (concat([cols[d] for d in trans_idx], axis=1) - shift) * (-s).exp()
        for k, d in enumerate(trans_idx):
            cols[d] = moved[:, k:k + 1]
        logdet = logdet - s.sum(axis=1, keepdims=True)
    return concat(cols, axis=1), logdet


def reference_push_forward(flow, z, x_emb):
    """The per-column forward pass, kept frozen as a reference."""
    nets = [net for _, net in flow.coupling]
    if flow.dim_theta == 1:
        s, shift = _column_scale_shift(flow, nets[0], None, x_emb)
        return z * s.exp() + shift
    cols = [z[:, d:d + 1] for d in range(flow.dim_theta)]
    for (cond_idx, trans_idx), net in zip(_column_blocks(flow), nets):
        cond = concat([cols[d] for d in cond_idx], axis=1)
        s, shift = _column_scale_shift(flow, net, cond, x_emb)
        moved = concat([cols[d] for d in trans_idx], axis=1) * s.exp() + shift
        for k, d in enumerate(trans_idx):
            cols[d] = moved[:, k:k + 1]
    return concat(cols, axis=1)


@pytest.mark.parametrize("dim,blocks", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3),
                                        (4, 2), (4, 3)])
def test_coupling_halves_match_per_column_reference_bit_for_bit(dim, blocks):
    r = np.random.default_rng(40 + dim * 10 + blocks)
    flow = NpeFlow(dim_theta=dim, dim_x=3, rng=r, last_scale=0.5, blocks=blocks)
    theta = r.standard_normal((25, dim)) * 1.5
    x = r.standard_normal((25, 3))
    weights = Value(np.linspace(0.5, 1.5, 25).reshape(-1, 1))
    params = flow.parameters()
    results = []
    for pull_back in (flow._pull_back, lambda t, e: reference_pull_back(flow, t, e)):
        for p in params.values():
            p.grad = None
        theta_v = Value(theta.copy(), requires_grad=True)
        z, logdet = pull_back(theta_v, flow.embed_graph(Value(x)))
        ((z.square().sum(axis=1, keepdims=True) + logdet) * weights).sum().backward()
        results.append([z.data, logdet.data, theta_v.grad]
                       + [params[k].grad for k in sorted(params)])
    for new, ref in zip(*results):
        np.testing.assert_array_equal(new, ref)
    with ad.no_grad():
        emb = Value(flow.embed(x))
        np.testing.assert_array_equal(
            flow._push_forward(Value(theta), emb).data,
            reference_push_forward(flow, Value(theta), emb).data)


def _every_posterior(r):
    """(posterior, dim_x, box prior or None) for both trained models and both
    oracles; the box-prior ones are -inf off the box."""
    box = Prior.uniform_box([-1.0, -2.0], [1.0, 2.0])
    nonlinear = get_problem("nonlinear-2d")
    cases = [(NreModel(box, dim_x=2, rng=r), 2, box),
             (NreModel(Prior.gaussian([0.3, -0.2], [0.7, 3.0]), dim_x=2, rng=r), 2, None)]
    cases += [(NpeFlow(dim, 2, rng=r, last_scale=0.5), 2, None) for dim in (1, 2, 3)]
    return cases + [(GaussianLinearPosterior(0.5, 3), 3, None),
                    (LikelihoodPosterior(nonlinear), nonlinear.dim_x, nonlinear.prior)]


def test_graph_surface_equals_numpy_surface():
    r = np.random.default_rng(21)
    for model, dim_x, box in _every_posterior(r):
        if hasattr(model, "log_density_graph"):
            theta = r.uniform(-2.5, 2.5, size=(40, model.dim_theta))
            x = r.standard_normal((40, dim_x))
            graph = model.log_density_graph(Value(theta), model.embed_graph(Value(x)))
            np.testing.assert_array_equal(graph.data[:, 0], model.log_density(theta, x))
        # point sets equal paired rows, each observation repeated over its set
        sets = r.uniform(-4.0, 4.0, size=(8, 5, model.dim_theta))
        x = r.standard_normal((8, dim_x))
        paired = model.log_density(sets.reshape(40, -1), np.repeat(x, 5, axis=0))
        np.testing.assert_array_equal(model.log_density_sets(sets, x),
                                      paired.reshape(8, 5))
        if box is not None:
            off = ~box.in_support(sets.reshape(40, -1))
            assert off.any() and np.isneginf(paired[off]).all()
            assert np.isfinite(paired[~off]).all()


def test_point_sets_of_the_wrong_shape_are_rejected():
    # one observation row must not broadcast over several point sets
    for posterior, dim_x, _ in _every_posterior(np.random.default_rng(22)):
        d = posterior.dim_theta
        sets, xs = np.zeros((3, 4, d)), np.zeros((3, dim_x))
        for bad in ((sets, xs[:1]), (sets, np.zeros((4, dim_x))),
                    (np.zeros((3, 4, d + 1)), xs), (sets[:, 0], xs),
                    (sets, np.zeros((3, dim_x + 1)))):
            with pytest.raises(ValueError, match="must have shape"):
                posterior.log_density_sets(*bad)
        assert posterior.log_density_sets(sets, xs).shape == (3, 4)


@pytest.mark.parametrize("dim,blocks", itertools.product([1, 2, 3], [2, 3]))
def test_flow_grid_rows_equal_paired_rows_bit_for_bit(monkeypatch, dim, blocks):
    r = np.random.default_rng(50 + dim * 10 + blocks)
    flow = NpeFlow(dim_theta=dim, dim_x=3, rng=r, last_scale=0.5, blocks=blocks)
    side = np.linspace(-3.0, 3.0, {1: 2500, 2: 64, 3: 16}[dim])
    layout = GridLayout([(-3.0, 3.0)] * dim, side.size, [side] * dim)
    grid = layout.points
    xs = r.standard_normal((3, 3))
    # 1,000-row blocks split the 2,500- to 4,096-row grid unevenly
    monkeypatch.setattr(estimators, "ROW_BLOCK", 1000)
    counter = RowCounter(flow)
    buf = np.full((4, len(grid)), np.nan)
    rows = flow.log_density_grid(layout, xs, out=buf[:3])
    assert rows.base is buf and counter.embed_rows == 3
    for x, row in zip(xs, rows):
        np.testing.assert_array_equal(
            row, flow.log_density(grid, np.repeat(x[None], len(grid), axis=0)))
    # grid passes write through reshapes of `out`
    with pytest.raises(ValueError, match="C-contiguous"):
        flow.log_density_grid(layout, xs, out=np.empty((len(grid), 3)).T)


class _CountedNet:
    """A coupling network that records the conditioning columns it is run on."""

    def __init__(self, net, n_cond):
        self.net, self.n_cond, self.inputs = net, n_cond, []

    def __call__(self, v):
        self.inputs.append(v.data[:, :self.n_cond].copy())
        return self.net(v)


@pytest.mark.parametrize("dim,blocks,column", [(1, 2, None), (2, 2, 1), (2, 3, 0)])
def test_flow_grid_runs_its_first_inverse_block_once_per_observation(
        monkeypatch, dim, blocks, column):
    # the 2-block flow's first inverse block conditions on grid column 1,
    # the 3-block flow's on column 0, a 1-D flow's on the embedding alone
    problem = get_problem("gaussian-linear", dim=dim)
    layout = grid_layout(problem, 64)
    flow = NpeFlow(dim, dim, rng=np.random.default_rng(51), last_scale=0.5,
                   blocks=blocks)
    parity, net = flow.coupling[-1]
    counted = _CountedNet(net, 0 if column is None else 1)
    flow.coupling[-1] = (parity, counted)
    xs = np.random.default_rng(52).standard_normal((3, dim))
    for row_block in (estimators.ROW_BLOCK, 1000, 100):
        monkeypatch.setattr(estimators, "ROW_BLOCK", row_block)
        counted.inputs.clear()
        flow.log_density_grid(layout, xs)
        assert len(counted.inputs) == 3, row_block
        for cond in counted.inputs:
            if column is None:
                assert cond.shape == (2, 0)
            else:
                np.testing.assert_array_equal(cond[:, 0], layout.axes[column])


def test_flow_density_integrates_to_one_on_grid(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng, last_scale=0.15)
    x = np.array([[0.4, -0.2]])
    span = np.linspace(-15, 15, 601)
    step = span[1] - span[0]
    a, b = np.meshgrid(span, span, indexing="ij")
    grid = np.stack([a.ravel(), b.ravel()], axis=1)
    emb = np.repeat(flow.embed(x), grid.shape[0], axis=0)
    ld = flow.log_density_from_embedding(grid, emb)
    total = np.sum(np.exp(ld)) * step * step
    assert total == pytest.approx(1.0, abs=1e-2)


def test_one_dimensional_flow_density_and_sampling(rng):
    flow = NpeFlow(dim_theta=1, dim_x=1, rng=rng, last_scale=0.15)
    x = np.array([[0.7]])
    span = np.linspace(-40, 40, 120_001)
    step = span[1] - span[0]
    emb = np.repeat(flow.embed(x), span.size, axis=0)
    ld = flow.log_density_from_embedding(span.reshape(-1, 1), emb)
    assert np.sum(np.exp(ld)) * step == pytest.approx(1.0, abs=1e-3)
    draws = flow.sample_batch(x, np.random.default_rng(5), 50_000)[0]
    # draws should follow the same affine-of-normal law the density describes
    ld_draws = flow.log_density(draws, np.repeat(x, draws.shape[0], axis=0))
    assert np.isfinite(ld_draws).all()


# -- embedding reuse ---------------------------------------------------------------


def test_embedded_evaluation_is_bit_identical_to_direct(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng, last_scale=0.3)
    theta = rng.standard_normal((16, 2))
    x = rng.standard_normal((16, 2))
    direct = flow.log_density(theta, x)
    embedded = flow.log_density_from_embedding(theta, flow.embed(x))
    np.testing.assert_array_equal(direct, embedded)


def test_embedding_reuse_counts_one_embedding_for_many_evaluations(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng, last_scale=0.3)
    sample_count = 16
    x = rng.standard_normal((1, 2))
    theta_star = rng.standard_normal((1, 2))
    draws = rng.standard_normal((sample_count, 2))
    counter = RowCounter(flow)
    emb = flow.embed(x)
    flow.log_density_from_embedding(theta_star, emb)
    flow.log_density_from_embedding(draws, np.repeat(emb, sample_count, axis=0))
    assert counter.embed_rows == 1
    assert counter.embed_calls == 1
    assert counter.density_rows == sample_count + 1


def test_reuse_strictly_fewer_embedding_rows_than_per_evaluation_embedding(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng, last_scale=0.3)
    theta = rng.standard_normal((17, 2))
    x = np.repeat(rng.standard_normal((1, 2)), 17, axis=0)
    counter = RowCounter(flow)
    flow.log_density(theta, x)  # embeds every row
    without_reuse = counter.embed_rows
    counter.reset()
    flow.log_density_from_embedding(theta, np.repeat(flow.embed(x[:1]), 17, axis=0))
    with_reuse = counter.embed_rows
    assert with_reuse < without_reuse
    assert with_reuse == 1 and without_reuse == 17


def test_evaluation_is_pure(rng):
    flow = NpeFlow(dim_theta=2, dim_x=2, rng=rng, last_scale=0.3)
    theta = rng.standard_normal((8, 2))
    x = rng.standard_normal((8, 2))
    before = {k: v.data.copy() for k, v in flow.parameters().items()}
    first = flow.log_density(theta, x)
    second = flow.log_density(theta, x)
    np.testing.assert_array_equal(first, second)
    for k, v in flow.parameters().items():
        np.testing.assert_array_equal(v.data, before[k])


# -- oracles ------------------------------------------------------------------------


def test_conjugate_posterior_with_unit_noise():
    oracle = GaussianLinearPosterior(noise_sigma=1.0, dim=2)
    x = np.array([[2.0, 0.0]])
    assert oracle.coef * 2.0 == pytest.approx(1.0)
    assert oracle.std ** 2 == pytest.approx(0.5)
    # density peaks at the posterior mean
    dense = oracle.log_density(np.array([[1.0, 0.0]]), x)
    off = oracle.log_density(np.array([[1.3, 0.2]]), x)
    assert dense[0] > off[0]


def test_conjugate_posterior_noiseless_limit():
    oracle = GaussianLinearPosterior(noise_sigma=1e-6, dim=1)
    assert oracle.coef == pytest.approx(1.0, abs=1e-10)


def test_conjugate_posterior_integrates_to_one_on_grid():
    oracle = GaussianLinearPosterior(noise_sigma=0.5, dim=2)
    x = np.array([[0.8, -0.3]])
    span = np.linspace(-4, 4, 501)
    step = span[1] - span[0]
    a, b = np.meshgrid(span, span, indexing="ij")
    grid = np.stack([a.ravel(), b.ravel()], axis=1)
    ld = oracle.log_density(grid, np.repeat(x, grid.shape[0], axis=0))
    assert np.sum(np.exp(ld)) * step * step == pytest.approx(1.0, abs=1e-3)


def test_prior_as_posterior_ignores_observation(rng):
    prior = Prior.gaussian([0.0], [1.0])
    pp = PriorAsPosterior(prior)
    theta = rng.standard_normal((5, 1))
    a = pp.log_density(theta, np.zeros((5, 1)))
    b = pp.log_density(theta, np.ones((5, 1)) * 9.0)
    np.testing.assert_array_equal(a, b)


def test_build_model_round_trips_architecture(rng):
    prior = Prior.gaussian([0.0, 0.0], [1.0, 1.0])
    for method in ("nre", "npe"):
        model = build_model(method, prior, 2, {"hidden": 16, "embed_dim": 8}, rng=rng)
        assert model.method == method
        assert model.hidden == 16
    with pytest.raises(ValueError):
        build_model("mcmc", prior, 2, {}, rng=rng)
