"""Tractable toy inference problems with exact posterior oracles.

Every problem pairs a prior with a simulator of the form
x = m(theta) + sigma * eps, so the likelihood is Gaussian around a known map
and a brute-force grid posterior is available for dims <= 2. The registry is
the single source of truth for all problem constants.

Problems:
  gaussian-linear  identity map, standard normal prior; conjugate posterior
                   in closed form (dim configurable, default 2).
  nonlinear-2d     map (t1^2, t1*t2) on a uniform box prior; the posterior is
                   bimodal in the sign of t1.

`mixture_demo_densities` gives the coverage-intuition demo its pair of 1D
Gaussian mixtures (0.7/0.3 weights).
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .estimators import LOG_2PI, GaussianLinearPosterior, Prior

FILE_MAGIC = b"SBID"
FILE_VERSION = 1

GAUSSIAN_LINEAR_SIGMA = 0.5
NONLINEAR_SIGMA = 0.25
NONLINEAR_BOX = 3.0
MIXTURE_WEIGHTS = (0.7, 0.3)
MIXTURE_MEANS = (-1.0, 1.5)
MIXTURE_BLACK_SIGMAS = (0.9, 0.4)
MIXTURE_RED_SIGMAS = (0.7, 0.2)


@dataclass
class Problem:
    id: str
    prior: Prior
    dim_theta: int
    dim_x: int
    noise_sigma: float
    mean_fn: object             # theta rows -> observation means
    oracle_kind: str = "grid"   # analytic | grid

    def simulate(self, thetas, rng, zero_noise=False):
        """Vectorized simulator x = m(theta) + sigma * eps."""
        thetas = np.asarray(thetas, dtype=np.float64).reshape(-1, self.dim_theta)
        mean = self.mean_fn(thetas)
        if zero_noise:
            return mean
        return mean + self.noise_sigma * rng.standard_normal(mean.shape)

    def log_likelihood(self, x, thetas):
        """log p(x | theta) for one observation x against theta rows."""
        thetas = np.asarray(thetas, dtype=np.float64).reshape(-1, self.dim_theta)
        z = (np.asarray(x, dtype=np.float64).reshape(1, self.dim_x)
             - self.mean_fn(thetas)) / self.noise_sigma
        return -0.5 * np.sum(z * z, axis=1) - self.dim_x * (
            np.log(self.noise_sigma) + 0.5 * LOG_2PI)


def gaussian_linear(dim=2):
    return Problem(
        id="gaussian-linear",
        prior=Prior.gaussian(np.zeros(dim), np.ones(dim)),
        dim_theta=dim, dim_x=dim,
        noise_sigma=GAUSSIAN_LINEAR_SIGMA,
        mean_fn=lambda t: t.copy(),
        oracle_kind="analytic",
    )


def nonlinear_2d():
    return Problem(
        id="nonlinear-2d",
        prior=Prior.uniform_box([-NONLINEAR_BOX, -NONLINEAR_BOX],
                                [NONLINEAR_BOX, NONLINEAR_BOX]),
        dim_theta=2, dim_x=2,
        noise_sigma=NONLINEAR_SIGMA,
        mean_fn=lambda t: np.stack([t[:, 0] ** 2, t[:, 0] * t[:, 1]], axis=1),
        oracle_kind="grid",
    )


_REGISTRY = {
    "gaussian-linear": gaussian_linear,
    "nonlinear-2d": nonlinear_2d,
}


def get_problem(problem_id, **kwargs):
    if problem_id not in _REGISTRY:
        raise KeyError(f"unknown problem id {problem_id!r}; "
                       f"known: {sorted(_REGISTRY)}")
    return _REGISTRY[problem_id](**kwargs)


def problem_for_dataset(ds):
    """The problem a dataset was drawn from, sized to its parameter dimension."""
    if ds.problem_id == "gaussian-linear":
        return get_problem("gaussian-linear", dim=ds.dim_theta)
    return get_problem(ds.problem_id)


# -- datasets -----------------------------------------------------------------


@dataclass
class Dataset:
    problem_id: str
    seed: int
    dim_theta: int
    dim_x: int
    thetas: np.ndarray
    xs: np.ndarray

    @property
    def count(self):
        return self.thetas.shape[0]

    def save(self, path):
        with open(path, "wb") as f:
            pid = self.problem_id.encode()
            f.write(FILE_MAGIC)
            f.write(struct.pack("<I", FILE_VERSION))
            f.write(struct.pack("<I", len(pid)))
            f.write(pid)
            f.write(struct.pack("<QQII", self.seed, self.count,
                                self.dim_theta, self.dim_x))
            rows = np.concatenate([self.thetas, self.xs], axis=1)
            f.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())

    def to_csv(self, path):
        header = ",".join([f"t{i}" for i in range(self.dim_theta)]
                          + [f"x{i}" for i in range(self.dim_x)])
        rows = np.concatenate([self.thetas, self.xs], axis=1)
        with open(path, "w") as f:
            f.write(header + "\n")
            for row in rows:
                f.write(",".join(f"{v:.17g}" for v in row) + "\n")


class BoundedReader:
    """Cursor over a whole binary file; every short read raises ValueError.

    Shared by the dataset and checkpoint formats, so a file cut at any
    offset fails with a message naming the file instead of a struct error.
    """

    def __init__(self, path, kind):
        with open(path, "rb") as f:
            self.data = f.read()
        self.path = path
        self.kind = kind
        self.offset = 0

    def take(self, n):
        if self.offset + n > len(self.data):
            raise ValueError(f"{self.path}: truncated {self.kind}")
        out = self.data[self.offset:self.offset + n]
        self.offset += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def finish(self):
        if self.offset != len(self.data):
            raise ValueError(f"{self.path}: trailing bytes after the {self.kind}")


def load_dataset(path):
    r = BoundedReader(path, "dataset file")
    if r.take(4) != FILE_MAGIC:
        raise ValueError(f"{path}: not a dataset file (bad magic)")
    (version,) = r.unpack("<I")
    if version != FILE_VERSION:
        raise ValueError(f"{path}: unsupported dataset version {version}")
    (pid_len,) = r.unpack("<I")
    pid = r.take(pid_len).decode()
    seed, count, dim_theta, dim_x = r.unpack("<QQII")
    payload = r.take(count * (dim_theta + dim_x) * 8)
    r.finish()
    rows = np.frombuffer(payload, dtype="<f8").reshape(count, dim_theta + dim_x)
    rows = rows.astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in row {bad[0]}")
    return Dataset(pid, seed, dim_theta, dim_x,
                   rows[:, :dim_theta].copy(), rows[:, dim_theta:].copy())


def simulate_dataset(problem, count, seed):
    """Draw (theta, x) pairs from prior x simulator; bit-identical per seed."""
    if isinstance(problem, str):
        problem = get_problem(problem)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    thetas = problem.prior.sample(rng, count)
    xs = problem.simulate(thetas, rng)
    return Dataset(problem.id, seed, problem.dim_theta, problem.dim_x, thetas, xs)


# -- oracles ------------------------------------------------------------------


def analytic_posterior(problem, scale_factor=1.0):
    """Conjugate Gaussian posterior; only the gaussian-linear problem has one."""
    if problem.id != "gaussian-linear" or problem.oracle_kind != "analytic":
        raise ValueError(f"problem {problem.id!r} has no analytic posterior")
    return GaussianLinearPosterior(problem.noise_sigma, problem.dim_theta,
                                   scale_factor=scale_factor)


@dataclass
class GridLayout:
    """Regular cell-centred grid over a problem's parameter box (dim <= 2).

    `points` lists the cell centres flattened in ij order (the first
    dimension varies slowest); `cell_index` maps parameters onto that same
    flat order.
    """

    bounds: list         # (lo, hi) per dimension
    resolution: int
    centers: list        # cell centres per dimension
    points: np.ndarray   # (resolution ** dim, dim)

    @property
    def shape(self):
        return (self.resolution,) * len(self.bounds)

    def cell_index(self, thetas):
        """Flat index of the cell holding each row, and whether it is on the grid."""
        cells = []
        inside = np.ones(thetas.shape[0], dtype=bool)
        for d, (lo, hi) in enumerate(self.bounds):
            c = np.floor((thetas[:, d] - lo) / ((hi - lo) / self.resolution)).astype(np.intp)
            inside &= (c >= 0) & (c < self.resolution)
            cells.append(np.clip(c, 0, self.resolution - 1))
        return np.ravel_multi_index(cells, self.shape), inside


def grid_layout(problem, resolution):
    """The prior box (or +-8 prior scales) split into `resolution` cells per dim."""
    bounds = []
    for d in range(problem.dim_theta):
        if problem.prior.kind == "uniform-box":
            bounds.append((problem.prior.low[d], problem.prior.high[d]))
        else:
            mean, scale = problem.prior.mean[d], problem.prior.scale[d]
            bounds.append((mean - 8.0 * scale, mean + 8.0 * scale))
    centers = [lo + (hi - lo) / resolution * (np.arange(resolution) + 0.5)
               for lo, hi in bounds]
    points = np.stack([c.ravel() for c in np.meshgrid(*centers, indexing="ij")],
                      axis=1)
    return GridLayout(bounds, resolution, centers, points)


@dataclass
class GridOracle:
    """Brute-force normalized posterior on a regular grid (dim <= 2).

    Cell masses sum to one; log_density interpolates cell-center log
    densities (linear per dimension) and is -inf outside the grid.
    """

    bounds: list
    resolution: int
    centers: list
    log_dens: np.ndarray     # grid of normalized log densities, shape (res,) or (res, res)
    masses: np.ndarray       # same shape, sums to 1
    x: np.ndarray
    normalized: bool = field(default=True)

    @property
    def dim_theta(self):
        return len(self.bounds)

    def cell_volume(self):
        vol = 1.0
        for (lo, hi) in self.bounds:
            vol *= (hi - lo) / self.resolution
        return vol

    def log_density(self, theta, x=None):
        theta = np.asarray(theta, dtype=np.float64).reshape(-1, self.dim_theta)
        out = np.full(theta.shape[0], -np.inf)
        inside = np.ones(theta.shape[0], dtype=bool)
        coords = []
        for d, (lo, hi) in enumerate(self.bounds):
            inside &= (theta[:, d] >= lo) & (theta[:, d] <= hi)
            step = (hi - lo) / self.resolution
            # fractional index into cell centers, clamped to the center span
            c = (theta[:, d] - lo) / step - 0.5
            coords.append(np.clip(c, 0.0, self.resolution - 1.0))
        if self.dim_theta == 1:
            c = coords[0][inside]
            i0 = np.floor(c).astype(int)
            i1 = np.minimum(i0 + 1, self.resolution - 1)
            w = c - i0
            out[inside] = (1 - w) * self.log_dens[i0] + w * self.log_dens[i1]
        else:
            cu, cv = coords[0][inside], coords[1][inside]
            i0 = np.floor(cu).astype(int)
            j0 = np.floor(cv).astype(int)
            i1 = np.minimum(i0 + 1, self.resolution - 1)
            j1 = np.minimum(j0 + 1, self.resolution - 1)
            wu, wv = cu - i0, cv - j0
            out[inside] = ((1 - wu) * (1 - wv) * self.log_dens[i0, j0]
                           + wu * (1 - wv) * self.log_dens[i1, j0]
                           + (1 - wu) * wv * self.log_dens[i0, j1]
                           + wu * wv * self.log_dens[i1, j1])
        return out


def grid_posterior(problem, x, resolution=512):
    """Posterior  prior x likelihood on a grid, normalized by cell mass."""
    if problem.dim_theta > 2:
        raise ValueError("grid posterior supports dim_theta <= 2 only")
    if resolution < 16:
        raise ValueError(f"grid resolution must be >= 16 per dim, got {resolution}")
    layout = grid_layout(problem, resolution)
    log_un = (problem.prior.log_density(layout.points)
              + problem.log_likelihood(x, layout.points)).reshape(layout.shape)
    peak = np.max(log_un)
    rel = np.exp(log_un - peak)
    total = np.sum(rel)
    masses = rel / total
    vol = math.prod((hi - lo) / resolution for lo, hi in layout.bounds)
    log_dens = log_un - (peak + np.log(total) + np.log(vol))
    return GridOracle(bounds=layout.bounds, resolution=resolution,
                      centers=layout.centers,
                      log_dens=log_dens, masses=masses,
                      x=np.asarray(x, dtype=np.float64))


# -- 1D mixture demo densities --------------------------------------------------


@dataclass
class Mixture1D:
    """Two-component 1D Gaussian mixture with exact pdf and sampling."""

    weights: tuple
    means: tuple
    sigmas: tuple
    normalized: bool = field(default=True)
    dim_theta: int = field(default=1)

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for w, m, s in zip(self.weights, self.means, self.sigmas):
            out += w * np.exp(-0.5 * ((t - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        return out

    def log_density(self, theta, x=None):
        theta = np.asarray(theta, dtype=np.float64).reshape(-1)
        return np.log(self.pdf(theta))

    def sample(self, rng, count):
        comp = rng.random(count) < self.weights[1]
        means = np.where(comp, self.means[1], self.means[0])
        sigmas = np.where(comp, self.sigmas[1], self.sigmas[0])
        return means + sigmas * rng.standard_normal(count)


def mixture_demo_densities():
    """The wide reference mixture and its under-dispersed counterpart."""
    black = Mixture1D(MIXTURE_WEIGHTS, MIXTURE_MEANS, MIXTURE_BLACK_SIGMAS)
    red = Mixture1D(MIXTURE_WEIGHTS, MIXTURE_MEANS, MIXTURE_RED_SIGMAS)
    return black, red
