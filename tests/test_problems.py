import dataclasses
import itertools

import numpy as np
import pytest

from calsbi.estimators import GaussianLinearPosterior, NpeFlow, NreModel
from calsbi.problems import (Dataset, GridLayout, LikelihoodPosterior,
                             analytic_posterior, get_problem, grid_layout,
                             load_dataset, mixture_demo_densities, oracle_posterior,
                             problem_for, problem_for_dataset,
                             simulate_dataset, MIXTURE_BLACK_SIGMAS,
                             MIXTURE_RED_SIGMAS, MIXTURE_WEIGHTS)


def test_zero_noise_simulation_is_identity():
    problem = get_problem("gaussian-linear")
    theta = np.array([[0.3, -0.7]])
    np.testing.assert_array_equal(problem.mean_fn(theta), theta)


def test_same_seed_gives_bit_identical_datasets():
    a = simulate_dataset("gaussian-linear", 256, seed=7)
    b = simulate_dataset("gaussian-linear", 256, seed=7)
    np.testing.assert_array_equal(a.thetas, b.thetas)
    np.testing.assert_array_equal(a.xs, b.xs)


def test_dataset_row_count():
    ds = simulate_dataset("gaussian-linear", 1024, seed=1)
    assert ds.count == 1024


def test_unknown_problem_and_bad_count_fail():
    with pytest.raises(KeyError):
        simulate_dataset("slcp", 10, seed=0)
    with pytest.raises(ValueError):
        simulate_dataset("gaussian-linear", 0, seed=0)


@pytest.mark.parametrize("problem_id,dim_theta,dim_x", [
    ("slcp", 2, 2),
    (["gaussian-linear"], 2, 2),
    ("gaussian-linear", 2, 3),
    ("gaussian-linear", 1, 2),
    ("nonlinear-2d", 1, 2),
    ("nonlinear-2d", 2, 4),
    ("nonlinear-2d", 1, 4),
], ids=["unknown-id", "id-not-a-string", "gaussian-dim-x", "gaussian-dim-theta",
        "nonlinear-dim-theta", "nonlinear-dim-x", "nonlinear-both"])
def test_problem_for_rejects_unknown_ids_and_other_dimensions(problem_id,
                                                              dim_theta, dim_x):
    with pytest.raises(ValueError, match="unknown problem id|has dim_theta"):
        problem_for(problem_id, dim_theta, dim_x)


@pytest.mark.parametrize("problem_id,kwargs", [
    ("gaussian-linear", {"dim": 1}), ("gaussian-linear", {}),
    ("gaussian-linear", {"dim": 3}), ("nonlinear-2d", {}),
])
def test_problem_for_dataset_returns_the_problem_the_set_was_drawn_from(problem_id,
                                                                       kwargs):
    drawn_from = get_problem(problem_id, **kwargs)
    found = problem_for_dataset(simulate_dataset(drawn_from, 8, seed=0))
    assert (found.id, found.dim_theta, found.dim_x, found.noise_sigma) == (
        drawn_from.id, drawn_from.dim_theta, drawn_from.dim_x, drawn_from.noise_sigma)
    np.testing.assert_equal(vars(found.prior), vars(drawn_from.prior))


def test_simulated_parameters_respect_prior_support():
    for pid in ("gaussian-linear", "nonlinear-2d"):
        ds = simulate_dataset(pid, 500, seed=3)
        assert get_problem(pid).prior.in_support(ds.thetas).all()


def test_dataset_file_round_trip_is_bit_exact(tmp_path):
    ds = simulate_dataset("nonlinear-2d", 128, seed=9)
    path = tmp_path / "d.sbid"
    ds.save(path)
    back = load_dataset(path)
    assert back.problem_id == "nonlinear-2d"
    assert back.seed == 9
    np.testing.assert_array_equal(back.thetas, ds.thetas)
    np.testing.assert_array_equal(back.xs, ds.xs)


def test_dataset_file_rejects_bad_magic_and_truncation(tmp_path):
    ds = simulate_dataset("gaussian-linear", 16, seed=2)
    path = tmp_path / "d.sbid"
    ds.save(path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.sbid"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_dataset(bad)
    trunc = tmp_path / "trunc.sbid"
    trunc.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_dataset(trunc)


def test_dataset_file_cut_at_every_offset_is_rejected(tmp_path):
    ds = simulate_dataset("gaussian-linear", 8, seed=2)
    path = tmp_path / "d.sbid"
    ds.save(path)
    raw = path.read_bytes()
    cut = tmp_path / "cut.sbid"
    for end in range(len(raw)):
        cut.write_bytes(raw[:end])
        with pytest.raises(ValueError):
            load_dataset(cut)
    cut.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="trailing"):
        load_dataset(cut)


@pytest.mark.parametrize("count,dim_theta,dim_x", [(0, 2, 2), (5, 0, 0),
                                                   (5, 0, 2), (5, 2, 0)])
def test_dataset_file_without_rows_or_dimensions_is_rejected(tmp_path, count,
                                                             dim_theta, dim_x):
    path = tmp_path / "d.sbid"
    Dataset("gaussian-linear", 0, dim_theta, dim_x, np.zeros((count, dim_theta)),
            np.zeros((count, dim_x))).save(path)
    with pytest.raises(ValueError, match="empty dataset"):
        load_dataset(path)


def test_dataset_file_with_a_non_finite_value_is_rejected(tmp_path):
    ds = simulate_dataset("gaussian-linear", 8, seed=2)
    ds.xs[5, 1] = np.nan
    path = tmp_path / "d.sbid"
    ds.save(path)
    with pytest.raises(ValueError, match="non-finite value in row 5"):
        load_dataset(path)


def test_dataset_file_single_bit_flips_are_rejected_or_finite(tmp_path):
    ds = simulate_dataset("gaussian-linear", 8, seed=2)
    path = tmp_path / "d.sbid"
    ds.save(path)
    raw = path.read_bytes()
    flipped = tmp_path / "flip.sbid"
    non_finite = 0
    for bit in np.random.default_rng(0).permutation(len(raw) * 8):
        data = bytearray(raw)
        data[bit // 8] ^= 1 << (bit % 8)
        flipped.write_bytes(bytes(data))
        try:
            back = load_dataset(flipped)
        except ValueError as exc:
            non_finite += "non-finite" in str(exc)
            continue
        assert np.isfinite(back.thetas).all() and np.isfinite(back.xs).all()
    assert non_finite > 0     # some flips do turn a payload value into inf/NaN


def test_csv_export_has_header_and_rows(tmp_path):
    ds = simulate_dataset("gaussian-linear", 8, seed=5)
    path = tmp_path / "d.csv"
    ds.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t0,t1,x0,x1"
    assert len(lines) == 9
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == ds.thetas[0, 0]  # 17 significant digits round-trip


# -- analytic oracle ------------------------------------------------------------


def test_analytic_posterior_conjugate_update():
    problem = get_problem("gaussian-linear")
    problem.noise_sigma = 1.0
    oracle = analytic_posterior(problem)
    assert oracle.coef == pytest.approx(0.5)
    assert oracle.std ** 2 == pytest.approx(0.5)


def test_analytic_posterior_rejects_non_conjugate():
    with pytest.raises(ValueError):
        analytic_posterior(get_problem("nonlinear-2d"))


def test_analytic_posterior_quadrature_normalization():
    oracle = analytic_posterior(get_problem("gaussian-linear"))
    x = np.array([[1.2, -0.4]])
    span = np.linspace(-4, 4, 401)
    step = span[1] - span[0]
    a, b = np.meshgrid(span, span, indexing="ij")
    grid = np.stack([a.ravel(), b.ravel()], axis=1)
    ld = oracle.log_density(grid, np.repeat(x, grid.shape[0], axis=0))
    assert np.sum(np.exp(ld)) * step * step == pytest.approx(1.0, abs=1e-3)


# -- likelihood oracle ---------------------------------------------------------------


def test_grid_matches_analytic_oracle_at_cell_centers():
    # prior x likelihood equals the conjugate posterior up to a constant per x,
    # on the grid surface and on paired rows alike
    problem = get_problem("gaussian-linear")
    analytic = oracle_posterior(problem)
    assert isinstance(analytic, GaussianLinearPosterior)
    joint = LikelihoodPosterior(problem)
    assert not joint.normalized
    xs = np.array([[0.6, -0.9], [0.0, 0.0], [-2.5, 1.7]])
    layout = grid_layout(problem, 128)
    diff = joint.log_density_grid(layout, xs) - analytic.log_density_grid(layout, xs)
    assert np.max(diff.max(axis=1) - diff.min(axis=1)) <= 1e-9
    paired = joint.log_density(layout.points, np.repeat(xs[:1], len(layout), axis=0))
    np.testing.assert_array_equal(paired, joint.log_density_grid(layout, xs[:1])[0])


def test_nonlinear_posterior_is_bimodal_in_sign():
    problem = get_problem("nonlinear-2d")
    oracle = oracle_posterior(problem)
    assert isinstance(oracle, LikelihoodPosterior)
    layout = grid_layout(problem, 256)
    log_dens = oracle.log_density_grid(layout, np.array([[1.0, 1.0]]))
    log_dens = log_dens.reshape(layout.shape)
    # strict local maxima over the 8 neighbours, -inf beyond the grid edge
    pad = np.pad(log_dens, 1, constant_values=-np.inf)
    core = pad[1:-1, 1:-1]
    strict = np.ones(core.shape, dtype=bool)
    for di, dj in itertools.product((-1, 0, 1), repeat=2):
        if di or dj:
            strict &= core > pad[1 + di:pad.shape[0] - 1 + di,
                                 1 + dj:pad.shape[1] - 1 + dj]
    maxima = layout.points[np.flatnonzero(strict.ravel())]
    assert len(maxima) >= 2
    assert set(np.sign(maxima[:, 0])) == {-1.0, 1.0}


def test_grid_log_density_is_minus_inf_outside_bounds():
    oracle = LikelihoodPosterior(get_problem("nonlinear-2d"))
    thetas = np.array([[4.0, 0.0], [0.5, -3.5], [0.5, 0.5]])
    x = np.array([[1.0, 1.0]])
    rows = oracle.log_density(thetas, np.repeat(x, 3, axis=0))
    sets = oracle.log_density_sets(thetas[None], x)[0]
    for ld in (rows, sets):
        assert ld[0] == ld[1] == -np.inf
        assert np.isfinite(ld[2])
    # a layout reaching past the +-3 box: only its centre cell is inside
    layout = GridLayout([(-5.25, 5.25)] * 2, 3, [np.array([-3.5, 0.0, 3.5])] * 2)
    grid = oracle.log_density_grid(layout, x)[0]
    np.testing.assert_array_equal(np.isfinite(grid), np.arange(9) == 4)
    assert np.isneginf(grid[np.arange(9) != 4]).all()


def test_likelihood_oracle_rejects_mis_shaped_rows():
    # never a silent reshape: (2, 4) parameters are not four 2-D rows
    problem = get_problem("nonlinear-2d")
    oracle = LikelihoodPosterior(problem)
    with pytest.raises(ValueError, match="theta must"):
        oracle.log_density(np.zeros((2, 4)), np.ones((4, 2)))
    with pytest.raises(ValueError, match="x must"):
        oracle.log_density(np.zeros((2, 2)), np.ones((1, 4)))
    layout = grid_layout(problem, 8)
    with pytest.raises(ValueError, match="xs must"):
        oracle.log_density_grid(layout, np.ones((2, 4)))
    with pytest.raises(ValueError, match="grid must"):
        LikelihoodPosterior(problem).log_density_grid(
            grid_layout(get_problem("gaussian-linear", dim=1), 8), np.ones((1, 2)))


GRID_ORACLES = {
    "gaussian-1d": ("gaussian-linear", {"dim": 1}, analytic_posterior),
    "gaussian-2d": ("gaussian-linear", {"dim": 2}, analytic_posterior),
    "likelihood-1d": ("gaussian-linear", {"dim": 1}, LikelihoodPosterior),
    "likelihood-2d": ("gaussian-linear", {"dim": 2}, LikelihoodPosterior),
    "likelihood-nonlinear-2d": ("nonlinear-2d", {}, LikelihoodPosterior),
    # untrained networks; the flow's nonzero last layer makes it depend on x
    "nre-nonlinear-2d": ("nonlinear-2d", {}, lambda p: NreModel(
        p.prior, p.dim_x, rng=np.random.default_rng(0))),
    "npe-nonlinear-2d": ("nonlinear-2d", {}, lambda p: NpeFlow(
        p.dim_theta, p.dim_x, rng=np.random.default_rng(0), last_scale=0.5)),
}


@pytest.mark.parametrize("name", GRID_ORACLES)
def test_grid_density_written_into_a_buffer_equals_the_fresh_return(name):
    problem_id, kwargs, make_oracle = GRID_ORACLES[name]
    problem = get_problem(problem_id, **kwargs)
    oracle = make_oracle(problem)
    ds = simulate_dataset(problem, 5, seed=44)
    # in 2-D, 5 * 48^2 rows span two network row blocks, the first ending in a pair
    layout = grid_layout(problem, 48)
    fresh = oracle.log_density_grid(layout, ds.xs)
    paired = oracle.log_density(np.tile(layout.points, (5, 1)),
                                np.repeat(ds.xs, len(layout), axis=0))
    np.testing.assert_allclose(fresh.reshape(-1), paired, rtol=0, atol=1e-12)
    # a slice of a larger buffer holding stale values, as a grid audit passes it
    buf = np.full((8, len(layout)), np.nan)
    filled = oracle.log_density_grid(layout, ds.xs, out=buf[:5])
    assert filled.base is buf
    np.testing.assert_array_equal(buf[:5], fresh)
    assert np.isnan(buf[5:]).all()
    # a second layout is evaluated afresh, not from the first layout's
    # terms: another resolution, and a shifted layout of the same shape
    shifted = dataclasses.replace(layout, axes=[a + 0.25 for a in layout.axes])
    for other in (grid_layout(problem, 20), shifted):
        np.testing.assert_array_equal(oracle.log_density_grid(other, ds.xs),
                                      make_oracle(problem).log_density_grid(other, ds.xs))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_oracle_grid_rows_equal_paired_rows_bit_for_bit(dim):
    # layouts take the per-axis terms, other point sets go through
    # log_density_sets; both equal paired rows
    problem = get_problem("gaussian-linear", dim=dim)
    oracle = GaussianLinearPosterior(noise_sigma=0.5, dim=dim, scale_factor=1.3)
    rng = np.random.default_rng(45)
    for points in ("grid-1", "grid-7", "grid-64", "shuffled", "thetas"):
        xs = 3.0 * rng.standard_normal((4, dim))
        if points.startswith("grid-"):
            layout = grid_layout(problem, int(points[5:]))
            grid = layout.points
            rows = oracle.log_density_grid(layout, xs)
            # grid passes write through reshapes of `out`
            buf = np.full((4, 2 * len(grid)), np.nan)
            with pytest.raises(ValueError, match="C-contiguous"):
                oracle.log_density_grid(layout, xs, out=buf[:, ::2])
        else:
            if points == "shuffled":
                grid = grid_layout(problem, 7).points
                grid = grid[rng.permutation(len(grid))]
            else:
                grid = simulate_dataset(problem, 300, seed=45).thetas
            rows = oracle.log_density_sets(np.broadcast_to(grid, (4,) + grid.shape), xs)
        for x, row in zip(xs, rows):
            np.testing.assert_array_equal(
                row, oracle.log_density(grid, np.repeat(x[None], len(grid), axis=0)))


def test_grid_layout_points_are_the_ij_product_of_its_axes():
    layout = grid_layout(get_problem("nonlinear-2d"), 9)
    centers = np.unique(layout.points[:, 0])
    assert len(layout.axes) == 2 and len(layout) == 81
    np.testing.assert_array_equal(layout.axes[0], centers)
    np.testing.assert_array_equal(layout.axes[1], centers)
    # ij order: the first coordinate varies slowest
    np.testing.assert_array_equal(layout.points[:, 0].reshape(9, 9),
                                  np.repeat(centers[:, None], 9, axis=1))
    np.testing.assert_array_equal(layout.points[:, 1].reshape(9, 9),
                                  np.repeat(centers[None], 9, axis=0))
    # every cell centre lies in its own cell
    cells, inside = layout.cell_index(layout.points)
    np.testing.assert_array_equal(cells, np.arange(81))
    assert inside.all()
    cube = grid_layout(get_problem("gaussian-linear", dim=3), 4)
    assert [a.size for a in cube.axes] == [4, 4, 4] and len(cube) == 64
    # points follow the axes they are built from
    shifted = dataclasses.replace(layout, axes=[a + 0.5 for a in layout.axes])
    np.testing.assert_array_equal(shifted.points, layout.points + 0.5)


# -- mixture demo densities --------------------------------------------------------


def test_mixture_densities_integrate_to_one():
    span = np.linspace(-8, 9, 200_001)
    step = span[1] - span[0]
    for dens in mixture_demo_densities():
        assert np.sum(dens.pdf(span)) * step == pytest.approx(1.0, abs=1e-4)


def test_mixture_constants_match_demo_specification():
    black, red = mixture_demo_densities()
    assert black.sigmas == MIXTURE_BLACK_SIGMAS == (0.9, 0.4)
    assert red.sigmas == MIXTURE_RED_SIGMAS == (0.7, 0.2)
    assert black.weights == red.weights == MIXTURE_WEIGHTS == (0.7, 0.3)


def test_mixture_sampling_matches_mixture_cdf():
    import math

    def phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    black, _ = mixture_demo_densities()
    draws = black.sample(np.random.default_rng(0), 200_000)
    cut = 0.6
    expected = (0.7 * (1.0 - phi((cut + 1.0) / 0.9))
                + 0.3 * (1.0 - phi((cut - 1.5) / 0.4)))
    assert np.mean(draws > cut) == pytest.approx(expected, abs=0.005)
