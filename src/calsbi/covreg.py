"""Differentiable coverage regularizer via importance-sampled rank statistics.

For each pair (theta*, x*) the rank statistic is the self-normalized
importance-sampling estimate of the posterior mass where the density lies
strictly below the density at theta*:

    alpha = sum_j w_j * 1[p(theta_j|x*) < p(theta*|x*)] / sum_j w_j,
    w_j = p(theta_j|x*) / I(theta_j|x*),   theta_j ~ proposal I.

The proposal is the prior (`PriorProposal`) in training and by default in
evaluation, or a posterior that samples (`DensityProposal`). Its draws stay
(n, L, d) point sets, one per pair: `sample_batch` returns them and
`log_density_rows` maps them to (n, L) log densities. The rank statistics
take the caller's block: the draws and the (n, 1 + L) log densities at each
pair's nominal parameter and its draws. A training step's base loss builds
it in the step's one graph call (`stacked_log_density`); the rank audit
builds it with the posterior's numpy `log_density_sets`.

A calibrated model produces uniformly distributed rank statistics, so the
regularizer drives the batch of alphas toward the uniform order statistics
(sorting form) or pins the alpha-ECDF at chosen levels (direct form); the
conservative mode rectifies the differences so only overconfident deviations
are penalized.

Forward values use hard indicators and exact sorting. Gradients use a
straight-through indicator (unit gain on the band |u| <= temperature, the
Hard-Tanh derivative profile) and permutation-routed sort gradients, with an
optional smoothed sort behind the relaxation knob. Everything is invariant
to per-x* rescaling of the density: indicators compare same-x* values and
the importance weights self-normalize.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import Value, concat, gather_rows, repeat_rows, straight_through

DEFAULT_LEVELS = tuple((np.arange(1, 20) / 20.0).tolist())


@dataclass
class RegConfig:
    """Knobs of the coverage regularizer; its proposal is always the prior."""

    mode: str = "conservative"          # calibration | conservative
    loss_form: str = "sorting"          # sorting | direct
    weight: float = 5.0                 # multiplier applied by the trainer
    num_samples: int = 16               # prior draws per pair
    levels: tuple = DEFAULT_LEVELS      # direct form only
    temperature: float = 1.0            # straight-through band half-width
    sort_relaxation: float = 0.0        # > 0 enables the smoothed sort backward

    def __post_init__(self):
        if self.mode not in ("calibration", "conservative"):
            raise ValueError(f"unknown regularizer mode {self.mode!r}")
        if self.loss_form not in ("sorting", "direct"):
            raise ValueError(f"unknown loss form {self.loss_form!r}")
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not (0 <= self.weight < np.inf and self.temperature > 0
                and self.sort_relaxation >= 0):     # NaN fails each test
            raise ValueError(f"need weight in [0, inf), temperature > 0 and "
                             f"sort_relaxation >= 0; got {self.weight}, "
                             f"{self.temperature}, {self.sort_relaxation}")
        if self.loss_form == "direct":
            if len(self.levels) < 1 or not all(0 < a < 1 for a in self.levels):
                raise ValueError("direct form needs levels strictly inside (0, 1)")


@dataclass
class RankStatisticBatch:
    """Differentiable rank statistics plus importance-weight health data."""

    values: Value                        # (n, 1), each in [0, 1]
    degenerate: np.ndarray               # (n,) bool mask of all-zero-weight rows

    @property
    def size(self):
        return self.values.data.shape[0]

    @property
    def degenerate_count(self):
        return int(self.degenerate.sum())


def ste_indicator(u, temperature=1.0):
    """Hard indicator 1[u > 0] with a straight-through backward.

    The surrogate gradient is 1 on the band |u / temperature| <= 1 and 0
    outside, i.e. the derivative profile of a Hard-Tanh stretched to the
    band width. Forward values never depend on the temperature.
    """
    if not temperature > 0:
        raise ValueError("temperature must be positive")
    u = u if isinstance(u, Value) else Value(u)
    hard = (u.data > 0).astype(np.float64)
    band = (np.abs(u.data) <= temperature).astype(np.float64)
    return Value._node(hard, (u,), "ste_indicator", lambda g: u._accum(g * band))


class DensityProposal:
    """A posterior that samples, as the importance-sampling proposal.

    The draws stay the (n, count, d) sets that the density's
    `sample_batch(xs, rng, count)` returns: `log_density_rows` hands them
    unchanged to its `log_density_sets`, the call the rank audit makes on
    the audited posterior.
    """

    def __init__(self, density):
        self.density = density

    def sample_batch(self, xs, rng, count):
        return self.density.sample_batch(xs, rng, count)

    def log_density_rows(self, draws, xs):
        """(n, L) log densities of the (n, L, d) draws, set i under xs[i]."""
        return self.density.log_density_sets(draws, xs)


class PriorProposal:
    """The prior as the proposal: its draws and densities do not read x."""

    def __init__(self, prior):
        self.prior = prior

    def sample_batch(self, xs, rng, count):
        """(n, count, d) prior draws for n observations, in one stream."""
        n = len(xs)
        return self.prior.sample(rng, n * count).reshape(n, count, self.prior.dim)

    def log_density_rows(self, draws, xs):
        """(n, L) prior log densities of the (n, L, d) draws; x is not read."""
        n, count, d = draws.shape
        return self.prior.log_density(draws.reshape(-1, d)).reshape(n, count)


def rank_statistic_core(lp_star, lp_draws, log_prop, temperature=1.0):
    """Assemble rank statistics from log densities (the differentiable core).

    lp_star: Value (n, 1) log density at the nominal parameter; lp_draws:
    Value (n, L) log densities at the proposal draws; log_prop: constant
    (n, L) proposal log densities. Densities are compared on a per-row
    max-normalized scale; both shifts are detached, so gradients match the
    unshifted algebra exactly. Returns (alpha Value, degenerate mask).
    """
    n = lp_star.data.shape[0]
    shift = np.maximum(lp_star.data, lp_draws.data.max(axis=1, keepdims=True))
    shift = np.where(np.isfinite(shift), shift, 0.0)
    dens_star = (lp_star - Value(shift)).exp()                          # (n, 1)
    dens_draws = (lp_draws - Value(shift)).exp()                        # (n, L)
    indicators = ste_indicator(dens_star - dens_draws, temperature)     # (n, L)

    log_w = lp_draws - Value(np.asarray(log_prop, dtype=np.float64))
    w_shift = log_w.data.max(axis=1, keepdims=True)
    degenerate = ~np.isfinite(w_shift[:, 0])
    w_shift = np.where(np.isfinite(w_shift), w_shift, 0.0)
    weights = (log_w - Value(w_shift)).exp()                            # (n, L)
    numer = (weights * indicators).sum(axis=1, keepdims=True)
    denom = weights.sum(axis=1, keepdims=True)
    if degenerate.any():
        denom = denom + Value(degenerate.astype(np.float64).reshape(n, 1))
    return numer / denom, degenerate


def stacked_points(thetas, draws):
    """(n, 1 + L, d): each pair's nominal parameter followed by its L draws."""
    # autodiff's concat, so that a rank audit's workspace hands every chunk
    # the same array; a fresh one per chunk fragmented the heap (+0.35 MB
    # peak RSS on a 4,096-pair oracle audit)
    return concat([Value(thetas[:, None]), Value(draws)], axis=1).data


def stacked_log_density(model, emb, thetas, draws):
    """(n, 1 + L) log densities at each pair's nominal parameter and its draws.

    `draws` is (n, L, d). The model's graph runs once, on n * (1 + L) rows
    (`stacked_points`), with the pair's embedding `emb` repeated over them.
    Column 0 is the nominal parameter, columns 1: the draws.
    """
    n, count, d = draws.shape
    rows = stacked_points(thetas, draws).reshape(-1, d)
    return model.log_density_graph(
        Value(rows), repeat_rows(emb, count + 1)).reshape(n, count + 1)


def rank_statistics(xs, proposal, block, temperature=1.0):
    """Batched differentiable rank statistics (one per (theta, x) row).

    `block` is the (draws (n, L, d), log densities Value (n, 1 + L)) pair
    of a forward pass the caller has made: column 0 at the nominal
    parameter, columns 1: at the draws. `proposal`, a `PriorProposal` or
    `DensityProposal`, drew the draws under the observations `xs` and
    supplies their proposal densities. Rows whose importance weights all
    vanish are flagged degenerate and pinned to alpha = 0.
    """
    draws, lp = block
    log_prop = proposal.log_density_rows(draws, xs)
    alpha, degenerate = rank_statistic_core(lp[:, :1], lp[:, 1:], log_prop,
                                            temperature)
    return RankStatisticBatch(values=alpha, degenerate=degenerate)


def soft_sort(values, strength):
    """Exact-forward sort whose backward routes through a smoothed permutation.

    The smoothed permutation is a row-stochastic matrix built from
    exp(-|sorted_i - value_j| / strength); forward values come from the hard
    sort via a straight-through connection.
    """
    n = values.data.shape[0]
    perm = np.argsort(values.data[:, 0], kind="stable")
    hard = values.data[perm]
    diff = (Value(hard) - values.transpose()).abs() * (-1.0 / strength)
    expd = diff.exp()
    weights = expd / expd.sum(axis=1, keepdims=True)
    return straight_through(hard, weights @ values)


def sorting_loss(values, mode="calibration", sort_relaxation=0.0):
    """Mean squared gap between sorted rank statistics and the i/N grid.

    `values` is the (n, 1) Value of rank statistics. Calibration penalizes
    both directions; conservative rectifies first so sorted values that
    dominate their targets cost nothing.
    """
    n = values.data.shape[0]
    if n < 2:
        raise ValueError(f"sorting loss needs a batch of >= 2, got {n}")
    if sort_relaxation > 0:
        ordered = soft_sort(values, sort_relaxation)
    else:
        perm = np.argsort(values.data[:, 0], kind="stable")
        ordered = gather_rows(values, perm)
    targets = Value((np.arange(1, n + 1) / n).reshape(n, 1))
    gap = targets - ordered
    if mode == "conservative":
        gap = gap.relu()
    elif mode != "calibration":
        raise ValueError(f"unknown mode {mode!r}")
    return gap.square().mean()


def direct_loss(values, levels=DEFAULT_LEVELS, mode="calibration", temperature=1.0):
    """Squared ECDF-vs-level gaps at fixed levels, straight-through ECDF.

    F_N(a_k) counts the (n, 1) rank statistics `values` <= a_k; calibration
    sums (F_N - a_k)^2 over levels, conservative rectifies so only an ECDF
    sitting above the level (overconfidence) is penalized. All K levels are
    one (n, K) indicator.
    """
    levels = np.asarray(levels, dtype=np.float64).reshape(1, -1)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"levels must lie strictly inside (0,1), got {levels[0]}")
    if mode not in ("calibration", "conservative"):
        raise ValueError(f"unknown mode {mode!r}")
    membership = 1.0 - ste_indicator(values - Value(levels), temperature)   # (n, K)
    gap = membership.mean(axis=0, keepdims=True) - Value(levels)           # (1, K)
    if mode == "conservative":
        gap = gap.relu()
    return gap.square().sum()


def regularizer(xs, config, prior, block):
    """Regularizer loss over a batch, per the training-time recipe.

    `block` is the base loss's (prior draws, log densities), which
    `rank_statistics` takes. Returns (loss Value, RankStatisticBatch); the
    batch carries degeneracy counts so the trainer can surface warnings.
    """
    if len(block[0]) < 2:
        raise ValueError("regularizer needs a batch of >= 2 pairs")
    batch = rank_statistics(xs, PriorProposal(prior), block, config.temperature)
    if config.loss_form == "sorting":
        loss = sorting_loss(batch.values, config.mode, config.sort_relaxation)
    else:
        loss = direct_loss(batch.values, config.levels, config.mode,
                           config.temperature)
    return loss, batch
