"""Post-hoc coverage diagnostics, independent of training-time machinery.

Expected coverage is estimated two ways, each from one statistic per test
pair: the rank statistic (covered at level l when alpha >= 1 - l) and the
grid mass denser than the nominal parameter's cell (covered when it is
below l). Both estimate the same quantity and are kept separate on purpose
so one can audit the other. Evaluation always uses hard indicators and
fresh RNG streams.
"""

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import covreg, estimators
from .problems import grid_layout

DEFAULT_EVAL_LEVELS = tuple(np.linspace(0.05, 0.95, 19).tolist())
DEFAULT_EVAL_SAMPLES = 1024
DEFAULT_GRID_RESOLUTION = 512


@dataclass
class CoverageCurve:
    """(credibility level, expected coverage) pairs plus provenance."""

    levels: np.ndarray
    ecp: np.ndarray
    n_pairs: int
    method: str                       # rank-based | grid-hpdr
    num_samples: int = None           # rank-based only

    def __post_init__(self):
        self.levels = np.asarray(self.levels, dtype=np.float64)
        self.ecp = np.asarray(self.ecp, dtype=np.float64)
        if self.levels.shape != self.ecp.shape:
            raise ValueError("levels and ecp must have matching lengths")
        if not np.all(np.diff(self.levels) > 0):
            raise ValueError("levels must be strictly increasing")
        if np.any((self.ecp < 0) | (self.ecp > 1)):
            raise ValueError("ecp values must lie in [0, 1]")


@dataclass
class SbcHistogram:
    counts: np.ndarray
    bins: int
    total: int

    def edges(self):
        return np.arange(self.bins + 1) / self.bins


@dataclass
class ExpectedLogDensityReport:
    value: float
    excluded: int
    normalized: bool
    prior_baseline: float = None


@dataclass
class MixtureDemoReport:
    level: float
    ecp: float
    segments: list
    n_samples: int
    self_test: bool = field(default=False)


# Most threads a rank audit runs. Part of an audit stays serial: the draws,
# taken under one lock, and the Python work that holds the GIL. On 2 vCPUs, 2
# workers ran the rank phase of 2,048 trained-flow pairs at L=1024 about 1.5
# times as fast as one, a serial share near a third, so by Amdahl's law 4
# workers reach about 2x, and every worker adds a pool. Only 1 and 2 workers
# could be measured.
_MAX_RANK_WORKERS = 4


def _rank_workers(chunks):
    """Threads for a rank audit of `chunks` chunks, the calling one included."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, chunks, _MAX_RANK_WORKERS)


def _check_pairs(thetas, xs, chunk):
    """ValueError for an empty test set, unequal lengths or a chunk below 1."""
    if thetas.shape[0] == 0:
        raise ValueError("empty test set")
    if xs.shape[0] != thetas.shape[0]:
        raise ValueError(f"{thetas.shape[0]} parameters but {xs.shape[0]} "
                         f"observations; a test pair needs one of each")
    if chunk is not None and chunk < 1:
        raise ValueError(f"chunk must be >= 1 pair, got {chunk}")


def rank_statistic_sample(posterior, thetas, xs, num_samples, proposal, rng,
                          chunk=None):
    """Hard-indicator rank statistics for every test pair, chunk-vectorized.

    `proposal` is a `covreg.PriorProposal` or `covreg.DensityProposal`.
    Its draws stay (chunk, L, d) point sets throughout: one
    `log_density_sets` call per chunk evaluates each pair's nominal
    parameter followed by its L draws (`covreg.stacked_points`), and the
    proposal's `log_density_rows` and `covreg.rank_statistics` take the
    same sets. The chunk
    of pairs defaults to one row block of density rows
    (`estimators.ROW_BLOCK`, L + 1 rows a pair), so eval memory does not
    grow with the number of pairs.

    The chunks run on `_rank_workers` threads, the calling one among them.
    Under one lock a worker claims the next chunk and draws its proposals,
    so `rng` is consumed in chunk order, however many workers there are.
    Outside the lock it evaluates the chunk (numpy releases the GIL there)
    and writes its slice of the result, so the statistics are the same bit
    for bit at any worker count; `log_density_sets` reads no shared mutable
    state. Each worker runs in its own `autodiff.workspace`, so its chunks
    reuse one set of arrays instead of allocating and faulting in fresh
    ones every chunk; it empties its pool before a short last chunk. At
    L=1024 the slices of a trained width-8 flow peak at about 3.5 MB of
    traced numpy memory per worker, its pool included. An error in any
    worker stops new chunks and is raised here once every helper thread has
    been joined.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    _check_pairs(thetas, xs, chunk)
    if num_samples < 1:
        raise ValueError(f"num_samples must be >= 1, got {num_samples}")
    n = thetas.shape[0]
    if chunk is None:
        chunk = max(1, estimators.ROW_BLOCK // (num_samples + 1))
    out = np.empty(n)
    starts = range(0, n, chunk)
    cursor = iter(starts)
    lock = threading.Lock()
    errors = []

    def run_chunk(pool):
        """Claim the next chunk and write its statistics; False if none is left."""
        with lock:
            lo = None if errors else next(cursor, None)
            if lo is None:
                return False
            hi = min(lo + chunk, n)
            if hi - lo < chunk:
                pool.clear()        # no later chunk has the full chunk's shapes
            draws = proposal.sample_batch(xs[lo:hi], rng, num_samples)
        t, x = thetas[lo:hi], xs[lo:hi]
        lp = posterior.log_density_sets(covreg.stacked_points(t, draws), x)
        batch = covreg.rank_statistics(x, proposal, (draws, ad.Value(lp)))
        out[lo:hi] = batch.values.data[:, 0]
        return True     # the chunk's arrays are released here, before the next

    def work():
        try:
            with ad.workspace() as pool:
                while run_chunk(pool):
                    pass
        except BaseException as exc:        # KeyboardInterrupt in the caller too
            errors.append(exc)

    helpers = []
    # The grad flag is one global: this block keeps it False until every
    # helper has been joined, so a nested no_grad in a worker (the flow's
    # draws, log_density_sets) only saves and restores False.
    with ad.no_grad():
        try:
            for _ in range(_rank_workers(len(starts)) - 1):
                thread = threading.Thread(target=work, daemon=True)
                thread.start()
                helpers.append(thread)
            work()
        except BaseException as exc:        # a helper that could not start
            errors.append(exc)
        finally:
            for thread in helpers:
                thread.join()
    if errors:
        raise errors[0]
    return out


def curve_from_rank_statistics(alphas, levels, num_samples=None):
    """ECP(level) = fraction of rank statistics >= 1 - level."""
    alphas = np.asarray(alphas, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    ecp = np.mean(alphas.reshape(1, -1) >= 1.0 - levels.reshape(-1, 1), axis=1)
    return CoverageCurve(levels, ecp, alphas.size, "rank-based", num_samples)


def require_grid_dim(dim_theta):
    """Refuse a grid-HPDR audit of more than two parameter dimensions."""
    if dim_theta > 2:
        raise ValueError("grid-hpdr coverage supports dim_theta <= 2 only")


def ecp_grid_hpdr(posterior, thetas, xs, problem, levels=DEFAULT_EVAL_LEVELS,
                  resolution=DEFAULT_GRID_RESOLUTION, chunk=None):
    """ECP via explicit highest-density regions on a parameter grid.

    Per test pair the posterior is normalized over the grid and reduced to
    one statistic: the mass of the cells strictly denser than the nominal
    parameter's cell, or 1 when the parameter lies off the grid. The
    highest-density region at level l holds the nominal cell exactly when
    that mass is below l.

    The posterior writes a slice of pairs into a (chunk, grid) log-density
    buffer with `log_density_grid(layout, xs, out=)`. `layout` is the
    `problems.GridLayout` itself: the cell centres (`points`) and the
    per-dimension `axes` whose ij product they are, so a posterior can
    evaluate a term once per axis value instead of once per point. The
    reduction (row max, subtract, exp, the denser-than-nominal mask, two row
    sums) runs in place in a weight and a mask buffer of the same shape; the
    three are allocated once per call. The chunk of pairs defaults to one
    row block of grid rows (`estimators.ROW_BLOCK`), the rule the rank path
    uses, so at 512^2 a slice is one pair and a buffer 2 MB. 16
    Gaussian-oracle pairs or one trained-flow pair at 512^2 (through the
    flow's grid pass) peak at about 10 or 11 MB of traced numpy memory.
    Reserved for dim_theta <= 2.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    _check_pairs(thetas, xs, chunk)
    require_grid_dim(thetas.shape[1])
    levels = np.asarray(levels, dtype=np.float64)
    layout = grid_layout(problem, resolution)
    g = len(layout)
    cells, inside = layout.cell_index(thetas)
    n = thetas.shape[0]
    if chunk is None:
        chunk = max(1, estimators.ROW_BLOCK // g)
    chunk = min(chunk, n)
    ld_buf = np.empty((chunk, g))
    rel_buf = np.empty((chunk, g))
    mask_buf = np.empty((chunk, g), dtype=bool)
    denser = np.ones(n)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        ld, rel, mask = ld_buf[:hi - lo], rel_buf[:hi - lo], mask_buf[:hi - lo]
        posterior.log_density_grid(layout, xs[lo:hi], out=ld)
        nominal = ld[np.arange(hi - lo), cells[lo:hi], None]
        np.greater(ld, nominal, out=mask)
        np.subtract(ld, ld.max(axis=1, keepdims=True), out=rel)
        np.exp(rel, out=rel)
        denser[lo:hi] = rel.sum(axis=1, where=mask) / rel.sum(axis=1)
    denser[~inside] = 1.0
    ecp = np.mean(denser < levels[:, None], axis=1)
    return CoverageCurve(levels, ecp, n, "grid-hpdr")


def coverage_auc(curve):
    """Signed area between the coverage curve and the diagonal.

    Endpoints (0,0) and (1,1) are appended; positive means conservative on
    average, negative overconfident.
    """
    t = np.concatenate([[0.0], curve.levels, [1.0]])
    gap = np.concatenate([[0.0], curve.ecp - curve.levels, [0.0]])
    return float(np.trapezoid(gap, t))


def calibration_error(curve):
    return float(np.mean(np.abs(curve.levels - curve.ecp)))


def conservativeness_error(curve):
    return float(np.mean(np.maximum(curve.levels - curve.ecp, 0.0)))


def ks_statistic(values):
    """Two-sided sup gap between the sample ECDF and the uniform CDF."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 1:
        raise ValueError("ks_statistic needs at least one value")
    if np.any((values < 0) | (values > 1)):
        raise ValueError("values must lie in [0, 1]")
    v = np.sort(values)
    n = v.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - v), np.max(v - (grid - 1.0 / n))))


def expected_log_posterior(posterior, thetas, xs, prior=None):
    """Mean log density at the nominal parameters, with a prior baseline.

    Support violations (-inf) are excluded from the mean and counted. The
    report keeps the posterior's normalization flag: for unnormalized models
    the value is only a surrogate.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    ld = posterior.log_density(thetas, xs)
    bad = ~np.isfinite(ld)
    value = float(np.mean(ld[~bad])) if np.any(~bad) else -math.inf
    baseline = None
    if prior is not None:
        baseline = float(np.mean(prior.log_density(thetas)))
    return ExpectedLogDensityReport(value=value, excluded=int(bad.sum()),
                                    normalized=bool(getattr(posterior, "normalized", False)),
                                    prior_baseline=baseline)


def sbc_histogram(values, bins=20):
    """Equal-width right-closed histogram of rank statistics over [0, 1].

    Bin b holds values in (b/B, (b+1)/B], with 0 counted in the first bin,
    so an exact i/N grid lands in equal counts whenever B divides N.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    values = np.asarray(values, dtype=np.float64)
    if np.any((values < 0) | (values > 1)):
        raise ValueError("values must lie in [0, 1]")
    edges = np.arange(bins + 1) / bins
    idx = np.clip(np.searchsorted(edges, values, side="left") - 1, 0, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return SbcHistogram(counts=counts, bins=bins, total=int(values.size))


def hpdr_intervals_1d(pdf, bounds, level, resolution=4096):
    """Highest-density super-level intervals of a 1D density.

    Threshold search on a dense grid: cells are ranked by density, the
    smallest threshold reaching the target mass is taken, and contiguous
    runs of super-threshold cells become intervals (cell-edge endpoints).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie strictly inside (0, 1)")
    lo, hi = bounds
    step = (hi - lo) / resolution
    centers = lo + step * (np.arange(resolution) + 0.5)
    dens = np.asarray(pdf(centers), dtype=np.float64)
    mass = dens / dens.sum()
    order = np.argsort(-dens, kind="stable")
    cmass = np.cumsum(mass[order])
    pos = min(int(np.searchsorted(cmass, level, side="left")), resolution - 1)
    threshold = dens[order[pos]]
    mask = dens >= threshold
    segments = []
    start = None
    for i, inside in enumerate(mask):
        if inside and start is None:
            start = i
        elif not inside and start is not None:
            segments.append((lo + start * step, lo + i * step))
            start = None
    if start is not None:
        segments.append((lo + start * step, hi))
    return segments


def mixture_demo(n_samples=1000, level=0.9, seed=0, self_test=False,
                 bounds=(-5.0, 6.0), resolution=4096):
    """Coverage check of the under-dispersed mixture against the wide one.

    Finds the narrow (red) density's highest-density region at the given
    level, samples from the wide (black) density, and reports the fraction
    landing inside. With self_test the wide density audits itself.
    """
    from .problems import mixture_demo_densities

    black, red = mixture_demo_densities()
    target = black if self_test else red
    segments = hpdr_intervals_1d(target.pdf, bounds, level, resolution)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    draws = black.sample(rng, n_samples)
    inside = np.zeros(n_samples, dtype=bool)
    for seg_lo, seg_hi in segments:
        inside |= (draws >= seg_lo) & (draws <= seg_hi)
    return MixtureDemoReport(level=level, ecp=float(inside.mean()),
                             segments=segments, n_samples=n_samples,
                             self_test=self_test)


# -- CSV emission ---------------------------------------------------------------


def _fmt(v):
    return f"{v:.17g}"


def write_coverage_csv(path, curves):
    with open(path, "w") as f:
        f.write("level,ecp,method,n,L\n")
        for curve in curves:
            for lev, e in zip(curve.levels, curve.ecp):
                ns = "" if curve.num_samples is None else str(curve.num_samples)
                f.write(f"{_fmt(lev)},{_fmt(e)},{curve.method},{curve.n_pairs},{ns}\n")


def write_metrics_csv(path, metrics):
    with open(path, "w") as f:
        f.write("name,value\n")
        for name, value in metrics.items():
            f.write(f"{name},{_fmt(value)}\n")


def write_sbc_csv(path, hist):
    edges = hist.edges()
    with open(path, "w") as f:
        f.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(hist.counts):
            f.write(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(c)}\n")
