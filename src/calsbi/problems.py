"""Tractable toy inference problems with exact posterior oracles.

Every problem pairs a prior with a simulator of the form
x = m(theta) + sigma * eps, so the likelihood is Gaussian around a known map
and prior x likelihood is an exact oracle up to a constant per observation
(`LikelihoodPosterior`); `oracle_posterior` prefers a closed form where one
exists. The registry is the single source of truth for all problem
constants; `problem_for` maps an id and dimensions to a registry problem.

Problems:
  gaussian-linear  identity map, standard normal prior; conjugate posterior
                   in closed form (dim configurable, default 2).
  nonlinear-2d     map (t1^2, t1*t2) on a uniform box prior; the posterior is
                   bimodal in the sign of t1.

`mixture_demo_densities` gives the coverage-intuition demo its pair of 1D
Gaussian mixtures (0.7/0.3 weights).
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from .estimators import (LOG_2PI, GaussianLinearPosterior, Prior, _point_sets,
                         _rows, sum_sq_scaled)

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

    def simulate(self, thetas, rng):
        """Vectorized simulator x = m(theta) + sigma * eps."""
        thetas = np.asarray(thetas, dtype=np.float64).reshape(-1, self.dim_theta)
        mean = self.mean_fn(thetas)
        return mean + self.noise_sigma * rng.standard_normal(mean.shape)


def gaussian_linear(dim=2):
    return Problem(
        id="gaussian-linear",
        prior=Prior.gaussian(np.zeros(dim), np.ones(dim)),
        dim_theta=dim, dim_x=dim,
        noise_sigma=GAUSSIAN_LINEAR_SIGMA,
        mean_fn=lambda t: t.copy(),
    )


def nonlinear_2d():
    return Problem(
        id="nonlinear-2d",
        prior=Prior.uniform_box([-NONLINEAR_BOX, -NONLINEAR_BOX],
                                [NONLINEAR_BOX, NONLINEAR_BOX]),
        dim_theta=2, dim_x=2,
        noise_sigma=NONLINEAR_SIGMA,
        mean_fn=lambda t: np.stack([t[:, 0] ** 2, t[:, 0] * t[:, 1]], axis=1),
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


def problem_for(problem_id, dim_theta, dim_x):
    """The registry problem `problem_id` at (dim_theta, dim_x); ValueError
    if the id is unknown or the problem has other dimensions."""
    if not isinstance(problem_id, str) or problem_id not in _REGISTRY:
        raise ValueError(f"unknown problem id {problem_id!r}; "
                         f"known: {sorted(_REGISTRY)}")
    sized = {"dim": dim_theta} if problem_id == "gaussian-linear" else {}
    problem = get_problem(problem_id, **sized)
    if (problem.dim_theta, problem.dim_x) != (dim_theta, dim_x):
        raise ValueError(f"problem {problem_id!r} has dim_theta "
                         f"{problem.dim_theta} and dim_x {problem.dim_x}, "
                         f"not {dim_theta} and {dim_x}")
    return problem


def problem_for_dataset(ds):
    """The problem a dataset was drawn from, at the dataset's dimensions."""
    return problem_for(ds.problem_id, ds.dim_theta, ds.dim_x)


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
    if not (count and dim_theta and dim_x):
        raise ValueError(f"{path}: empty dataset (count {count}, dim_theta "
                         f"{dim_theta}, dim_x {dim_x})")
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
    if problem.id != "gaussian-linear":
        raise ValueError(f"problem {problem.id!r} has no analytic posterior")
    return GaussianLinearPosterior(problem.noise_sigma, problem.dim_theta,
                                   scale_factor=scale_factor)


class LikelihoodPosterior:
    """Exact posterior of any problem up to a constant per x: prior x likelihood.

    The log density is log p(theta) + log p(x | theta), -inf off a uniform
    box. Both coverage statistics are invariant to rescaling the density for
    a fixed x (the rank statistic self-normalizes, grid-HPDR normalizes over
    the grid), so this is an exact oracle for both estimators.
    """

    normalized = False

    def __init__(self, problem):
        self.problem = problem
        self.dim_theta = problem.dim_theta
        self._grid = None

    def _log_joint(self, log_prior, means, xs, out=None):
        """Log prior plus the Gaussian log likelihood; arrays broadcast.

        Written into `out` when given. The squared distance sums
        ((x_d - m_d) / sigma)^2 one x-dimension at a time (`sum_sq_scaled`),
        so it does not cancel when x is near m.
        """
        p = self.problem
        sq = sum_sq_scaled(xs, means, p.noise_sigma, out)
        sq *= 0.5
        np.subtract(log_prior, sq, out=sq)
        sq -= p.dim_x * (np.log(p.noise_sigma) + 0.5 * LOG_2PI)
        return sq

    def log_density(self, theta, x):
        """Log joint density of paired (theta, x) rows."""
        theta = _rows(theta, self.dim_theta, "theta")
        x = _rows(x, self.problem.dim_x, "x")
        return self.log_density_sets(theta[:, None], x)[:, 0]

    def log_density_sets(self, thetas, xs):
        """(n, k) log joint densities of n sets of k parameters, set i under
        xs[i]; each observation broadcasts over its set's simulator means."""
        p = self.problem
        thetas, xs = _point_sets(thetas, xs, self.dim_theta, p.dim_x)
        n, k, d = thetas.shape
        rows = thetas.reshape(-1, d)
        return self._log_joint(p.prior.log_density(rows).reshape(n, k),
                               p.mean_fn(rows).reshape(n, k, p.dim_x), xs[:, None])

    def log_density_grid(self, layout, xs, out=None):
        """(n_x, len(layout)) log joint densities of the layout's points,
        written into `out` when given.

        The points' log prior and simulator means are kept for the last
        layout passed, so the chunks of one grid audit compute them once;
        the terms (about G * (1 + dim_x) floats) live as long as the
        posterior.
        """
        if self._grid is None or self._grid[0] is not layout:
            rows = _rows(layout.points, self.dim_theta, "grid")
            self._grid = (layout, self.problem.prior.log_density(rows)[None, :],
                          self.problem.mean_fn(rows)[None])
        _, log_prior, means = self._grid
        xs = _rows(xs, self.problem.dim_x, "xs")
        return self._log_joint(log_prior, means, xs[:, None, :], out)


def oracle_posterior(problem):
    """The exact posterior `calsbi eval --oracle` audits.

    The closed form where one exists (gaussian-linear), otherwise
    `LikelihoodPosterior`, exact up to a constant per observation.
    """
    if problem.id == "gaussian-linear":
        return analytic_posterior(problem)
    return LikelihoodPosterior(problem)


@dataclass
class GridLayout:
    """Regular cell-centred grid over a problem's parameter box.

    `axes` holds each dimension's `resolution` cell centres and `points`
    their product, flattened in ij order (the first dimension varies
    slowest); `cell_index` maps parameters onto that same flat order.
    `len(layout)` is the cell count. A posterior's `log_density_grid` takes
    the layout itself, so it can work per axis value where its density
    allows.
    """

    bounds: list         # (lo, hi) per dimension
    resolution: int
    axes: list           # (resolution,) cell centres per dimension
    points: np.ndarray = field(init=False)     # (resolution ** dim, dim)

    def __post_init__(self):
        mesh = np.meshgrid(*self.axes, indexing="ij")
        self.points = np.stack([c.ravel() for c in mesh], axis=1)

    def __len__(self):
        return len(self.points)

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
    return GridLayout(bounds, resolution, centers)


# -- 1D mixture demo densities --------------------------------------------------


@dataclass
class Mixture1D:
    """Two-component 1D Gaussian mixture with exact pdf and sampling."""

    weights: tuple
    means: tuple
    sigmas: tuple

    def pdf(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.zeros_like(t)
        for w, m, s in zip(self.weights, self.means, self.sigmas):
            out += w * np.exp(-0.5 * ((t - m) / s) ** 2) / (s * np.sqrt(2 * np.pi))
        return out

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
