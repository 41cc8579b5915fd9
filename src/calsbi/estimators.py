"""Posterior density models behind one evaluable interface.

Implementations: a ratio-based classifier model (posterior = prior x ratio,
unnormalized), a conditional coupling-flow density model (normalized, exact
sampling), and the conjugate Gaussian oracle for the linear-Gaussian
problem (`problems.LikelihoodPosterior` is the other oracle).

Every posterior answers three numpy calls: `log_density(theta, x)` on
paired rows; `log_density_sets(thetas, xs)`, (n, k, d) parameters with
(n, dx) observations to (n, k), set i under observation i, which the rank
audit calls; and `log_density_grid(layout, xs)`, every observation on the
points of one `problems.GridLayout`, the ij product of its per-dimension
`axes`. The trained models (`NetworkPosterior`) also have a graph
surface, `embed_graph` / `log_density_graph` on autodiff Values, for
training. Their numpy calls are that graph run under `no_grad`, each
observation embedded once, so the surfaces agree bit for bit; the oracles
broadcast each observation over its points. A set's rows equal paired
rows bit for bit. The prior's density and its draws work one column
at a time, with the operations of the broadcast formulas in the same
order, so they agree with those formulas bit for bit, off the prior's
support (-inf) included.

Grid passes read the layout's axes instead of rediscovering them. The
flow's first inverse block sees one grid coordinate, so its network runs
once per observation on that coordinate's axis and the result is gathered
onto the grid rows. The Gaussian oracle's quadratic splits into one term
per dimension, so each term is computed once per axis value and the terms
are broadcast-added. Grid rows still equal paired rows bit for bit.
"""

import math

import numpy as np

from . import autodiff as ad
from .autodiff import Value, concat, dense

LOG_2PI = math.log(2.0 * math.pi)

# Network densities are evaluated this many (parameter, embedding) rows at a
# time, so one block's hidden activations are 0.5 MB at width 8 and a rank
# audit's array pool (`autodiff.workspace`) stays a few MB. On 512^2 grids,
# blocks of 4k-8k rows ran fastest.
ROW_BLOCK = 8192


def sum_sq_scaled(u, v, scale, out=None):
    """sum_d ((u_d - v_d) / scale_d)^2 over the last axis, into `out` if given.

    `scale` is one number or one per dimension. u[..., d] and v[..., d]
    broadcast to `out`'s shape, one dimension at a time. Paired rows and an
    (observations, grid) surface therefore get the same floating-point
    operations, and neither an (n, G, dim) temporary nor the cancellation of
    |u|^2 - 2 u.v + |v|^2 arises. From the second dimension on, one
    `out`-sized scratch holds each term.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(u.shape[:-1], v.shape[:-1]))
    per_dim = np.ndim(scale) > 0
    term = out
    for d in range(u.shape[-1]):
        if d == 1:
            term = np.empty_like(out)
        np.subtract(u[..., d], v[..., d], out=term)
        term /= scale[d] if per_dim else scale
        term *= term
        if d:
            out += term
    return out


def _rows(arr, dim, name):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        if dim == 1:
            arr = arr.reshape(-1, 1)
        elif arr.size == dim:
            arr = arr.reshape(1, dim)
    if arr.ndim != 2 or arr.shape[1] != dim:
        raise ValueError(f"{name} must have shape (n, {dim}), got {arr.shape}")
    return arr


def _point_sets(thetas, xs, dim_theta, dim_x):
    """(n, k, dim_theta) and (n, dim_x) float arrays, else ValueError: one
    observation row must not broadcast over n point sets."""
    thetas = np.asarray(thetas, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if thetas.ndim != 3 or thetas.shape[2] != dim_theta:
        raise ValueError(f"thetas must have shape (n, k, {dim_theta}), got {thetas.shape}")
    if xs.shape != (thetas.shape[0], dim_x):
        raise ValueError(f"xs must have shape ({thetas.shape[0]}, {dim_x}) for "
                         f"{thetas.shape[0]} point sets, got {xs.shape}")
    return thetas, xs


def _grid_out(out, n, g):
    """`out`, or a new (n, g) array; grid passes write through reshapes of
    it, so a given `out` must be a C-contiguous (n, g) array."""
    if out is None:
        return np.empty((n, g))
    if out.shape != (n, g) or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous ({n}, {g}) array")
    return out


class Prior:
    """Uniform-box or diagonal-Gaussian prior over parameters."""

    def __init__(self, kind, dim, low=None, high=None, mean=None, scale=None):
        self.kind = kind
        self.dim = dim
        if kind == "uniform-box":
            self.low = np.asarray(low, dtype=np.float64)
            self.high = np.asarray(high, dtype=np.float64)
            if self.low.shape != (dim,) or self.high.shape != (dim,):
                raise ValueError("bounds must match prior dimension")
            if not np.all(self.low < self.high):
                raise ValueError("uniform-box bounds require low < high per dimension")
            self._log_const = -float(np.sum(np.log(self.high - self.low)))
        elif kind == "diagonal-gaussian":
            self.mean = np.asarray(mean, dtype=np.float64)
            self.scale = np.asarray(scale, dtype=np.float64)
            if self.mean.shape != (dim,) or self.scale.shape != (dim,):
                raise ValueError("mean/scale must match prior dimension")
            if not np.all(self.scale > 0):
                raise ValueError("gaussian prior scales must be positive")
            self._log_const = -float(np.sum(np.log(self.scale))) - 0.5 * dim * LOG_2PI
        else:
            raise ValueError(f"unknown prior kind {kind!r}")

    @classmethod
    def uniform_box(cls, low, high):
        low = np.atleast_1d(np.asarray(low, dtype=np.float64))
        return cls("uniform-box", low.size, low=low,
                   high=np.atleast_1d(np.asarray(high, dtype=np.float64)))

    @classmethod
    def gaussian(cls, mean, scale):
        mean = np.atleast_1d(np.asarray(mean, dtype=np.float64))
        return cls("diagonal-gaussian", mean.size, mean=mean,
                   scale=np.atleast_1d(np.asarray(scale, dtype=np.float64)))

    def sample(self, rng, count):
        """(count, dim) draws, scaled and shifted one column at a time.

        The values equal `low + (high - low) * u` and `mean + scale * z` on
        the same stream as `rng.uniform(low, high, size)` and
        `rng.standard_normal(size)`, bit for bit.
        """
        if self.kind == "uniform-box":
            out = rng.random((count, self.dim))
            shift, scale = self.low, self.high - self.low
        else:
            out = rng.standard_normal((count, self.dim))
            shift, scale = self.mean, self.scale
        for d in range(self.dim):
            col = out[:, d]
            col *= scale[d]
            col += shift[d]
        return out

    def in_support(self, theta):
        theta = _rows(theta, self.dim, "theta")
        inside = np.ones(theta.shape[0], dtype=bool)
        if self.kind == "uniform-box":
            for d in range(self.dim):
                inside &= theta[:, d] >= self.low[d]
                inside &= theta[:, d] <= self.high[d]
        return inside

    def log_density(self, theta):
        """Log prior densities of rows, -inf off the uniform box.

        Equal bit for bit to the broadcast formula
        `np.square((theta - mean) / scale).sum(axis=1) * -0.5 + const`. The
        quadratic is summed one column at a time; from 8 columns on, numpy's
        row sum adds pairwise, not in order, so there the rows are summed
        as the formula sums them.
        """
        theta = _rows(theta, self.dim, "theta")
        if self.kind == "uniform-box":
            return np.where(self.in_support(theta), self._log_const, -np.inf)
        if self.dim < 8:
            sq = sum_sq_scaled(theta, self.mean, self.scale)
        else:
            sq = np.square((theta - self.mean) / self.scale).sum(axis=1)
        sq *= -0.5
        sq += self._log_const
        return sq


class Mlp:
    """Dense SELU network; parameters named `{prefix}.w{i}` / `{prefix}.b{i}`."""

    def __init__(self, sizes, rng, prefix, last_scale=None):
        self.sizes = list(sizes)
        self.prefix = prefix
        self.params = {}
        self._layers = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            last = i == len(sizes) - 2
            scale = last_scale if (last and last_scale is not None) else 1.0 / math.sqrt(fan_in)
            w = Value(scale * rng.standard_normal((fan_in, fan_out)), requires_grad=True)
            b = Value(np.zeros((1, fan_out)), requires_grad=True)
            self.params[f"{prefix}.w{i}"] = w
            self.params[f"{prefix}.b{i}"] = b
            self._layers.append((w, b, last))

    def __call__(self, v):
        for w, b, last in self._layers:
            v = dense(v, w, b, selu=not last)
        return v


class NetworkPosterior:
    """The surface both trained models share.

    A subclass builds `x_net`, the observation embedding, and defines
    `log_density_graph`; the numpy surface, paired rows, point sets and the
    grid of a coverage audit alike, is that graph run under no_grad.
    """

    def embed_graph(self, x):
        return self.x_net(x)

    def embed(self, x):
        x = _rows(x, self.dim_x, "x")
        with ad.no_grad():
            return self.embed_graph(Value(x)).data

    def log_density_from_embedding(self, theta, x_emb):
        theta = _rows(theta, self.dim_theta, "theta")
        with ad.no_grad():
            return self.log_density_graph(Value(theta), Value(x_emb)).data[:, 0]

    def log_density(self, theta, x):
        return self.log_density_from_embedding(theta, self.embed(x))

    def log_density_sets(self, thetas, xs):
        """(n, k) log densities of n sets of k parameters, set i under xs[i];
        the network runs once, each observation embedded once."""
        thetas, xs = _point_sets(thetas, xs, self.dim_theta, self.dim_x)
        n, k, d = thetas.shape
        with ad.no_grad():
            emb = ad.repeat_rows(self.embed_graph(Value(xs)), k)
            lp = self.log_density_graph(Value(thetas.reshape(-1, d)), emb)
        return lp.data.reshape(n, k)

    def log_density_grid(self, layout, xs, out=None):
        """(n_x, len(layout)) log densities of the layout's points, written
        into `out` when one is given.

        Each observation is embedded once, then the network runs over the
        n_x * n_grid rows in blocks of `ROW_BLOCK`, so its hidden
        activations stay the same size whatever the grid.
        """
        grid = _rows(layout.points, self.dim_theta, "grid")
        emb = self.embed(xs)
        g = grid.shape[0]
        out = _grid_out(out, emb.shape[0], g)
        # flat row r pairs grid row r % g with embedding r // g
        flat = out.reshape(-1)
        for r in range(0, flat.size, ROW_BLOCK):
            rows = np.arange(r, min(r + ROW_BLOCK, flat.size))
            flat[r:r + rows.size] = self.log_density_from_embedding(
                grid[rows % g], emb[rows // g])
        return out


class NreModel(NetworkPosterior):
    """Ratio classifier: separate parameter/observation embeddings, joint head.

    The head emits a logit z; the classifier output sigmoid(z) lies in (0, 1)
    and the log posterior is log prior + z (unnormalized, -inf off the
    prior's support). The log prior has no parameters, so it enters the
    graph as a constant.
    """

    normalized = False
    method = "nre"

    def __init__(self, prior, dim_x, hidden=8, embed_dim=8, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.prior = prior
        self.dim_theta = prior.dim
        self.dim_x = dim_x
        self.hidden = hidden
        self.embed_dim = embed_dim
        self.theta_net = Mlp([self.dim_theta, hidden, hidden, embed_dim], rng, "theta_net")
        self.x_net = Mlp([dim_x, hidden, hidden, embed_dim], rng, "x_net")
        self.head = Mlp([2 * embed_dim, hidden, hidden, 1], rng, "head")

    def parameters(self):
        return {**self.theta_net.params, **self.x_net.params, **self.head.params}

    def logit_graph(self, theta, x_emb):
        return self.head(concat([self.theta_net(theta), x_emb], axis=1))

    def log_density_graph(self, theta, x_emb):
        log_prior = Value(self.prior.log_density(theta.data)[:, None])
        return log_prior + self.logit_graph(theta, x_emb)


class NpeFlow(NetworkPosterior):
    """Conditional normalizing flow of affine coupling blocks.

    The flow holds theta as two strided halves, its even and its odd
    columns. Block j conditions on the half of parity j % 2 plus the
    observation embedding, and moves the other half by a shift and a scale.
    A 1D flow is one block, `affine0`, whose conditioning half is empty, so
    it conditions on the embedding alone. Pre-scales pass through tanh and
    a bound before exponentiation so the scale cannot explode. One concat
    and one fixed column order turn the halves back into theta.
    """

    normalized = True
    method = "npe"
    scale_bound = 3.0                   # bound on the tanh pre-scales

    def __init__(self, dim_theta, dim_x, hidden=8, embed_dim=8, blocks=2,
                 rng=None, last_scale=0.0):
        rng = rng if rng is not None else np.random.default_rng(0)
        if blocks < 2 and dim_theta >= 2:
            raise ValueError("need at least 2 coupling blocks so every dim transforms")
        self.dim_theta = dim_theta
        self.dim_x = dim_x
        self.hidden = hidden
        self.embed_dim = embed_dim
        self.blocks = blocks
        self.x_net = Mlp([dim_x, hidden, hidden, embed_dim], rng, "x_net")
        if dim_theta == 1:
            layout = [(1, "affine0")]       # conditions on the empty odd half
        else:
            layout = [(j % 2, f"coupling{j}") for j in range(blocks)]
        self.coupling = []
        for parity, prefix in layout:
            n_cond = len(range(parity, dim_theta, 2))
            net = Mlp([n_cond + embed_dim, hidden, hidden, 2 * (dim_theta - n_cond)],
                      rng, prefix, last_scale=last_scale)
            self.coupling.append((parity, net))
        # concat(halves) lists the even columns, then the odd ones; the order
        # is the identity (and skipped) up to two dimensions
        order = np.argsort(np.r_[0:dim_theta:2, 1:dim_theta:2])
        self._order = None if np.array_equal(order, np.arange(dim_theta)) else order

    def parameters(self):
        out = dict(self.x_net.params)
        for _, net in self.coupling:
            out.update(net.params)
        return out

    def _scale_shift(self, net, cond, x_emb):
        raw = net(concat([cond, x_emb], axis=1))
        half = raw.data.shape[1] // 2
        return raw[:, :half].tanh() * self.scale_bound, raw[:, half:]

    def _merge(self, halves):
        z = concat(halves, axis=1)
        return z if self._order is None else z[:, self._order]

    def _invert_block(self, net, cond, moved, x_emb, scale_shift=None):
        """One block backwards: (the moved half before it, its log-scale row sums).

        `scale_shift` is the block's (s, shift) when the caller has it;
        otherwise the block's network computes it from `cond` and `x_emb`.
        A method of its own so that the block's scale and shift are freed
        before the next block's network runs; on 512^2 grid rows per pair
        that lowers the peak memory of a flow's grid-HPDR audit by ~20 MB.
        """
        s, shift = scale_shift or self._scale_shift(net, cond, x_emb)
        return (moved - shift) * (-s).exp(), s.sum(axis=1, keepdims=True)

    def _pull_back(self, theta, x_emb, first=None):
        """Invert the flow: theta -> (base point z, inverse log-determinant).

        `first` is the (s, shift) of the first inverse block if the caller
        has computed it, as the grid pass does.
        """
        halves = [theta[:, 0::2], theta[:, 1::2]]
        logdet = Value(np.zeros((theta.data.shape[0], 1)))
        for parity, net in reversed(self.coupling):
            halves[1 - parity], log_scale = self._invert_block(
                net, halves[parity], halves[1 - parity], x_emb, first)
            first = None
            logdet = logdet - log_scale
        return self._merge(halves), logdet

    def _push_forward(self, z, x_emb):
        halves = [z[:, 0::2], z[:, 1::2]]
        for parity, net in self.coupling:
            s, shift = self._scale_shift(net, halves[parity], x_emb)
            halves[1 - parity] = halves[1 - parity] * s.exp() + shift
        return self._merge(halves)

    def log_density_graph(self, theta, x_emb, first=None):
        """Base log density of the inverse-mapped point plus the inverse log-det.

        `first` passes the first inverse block's (s, shift) to `_pull_back`.
        """
        z, logdet = self._pull_back(theta, x_emb, first)
        base = z.square().sum(axis=1, keepdims=True) * (-0.5) - 0.5 * self.dim_theta * LOG_2PI
        if not np.all(np.isfinite(base.data)) or not np.all(np.isfinite(logdet.data)):
            raise FloatingPointError("non-finite value in flow inverse pass")
        return base + logdet

    def log_density_grid(self, layout, xs, out=None):
        """(n_x, len(layout)) log densities of the layout's points, written
        into `out` when one is given.

        The grid runs in blocks of `ROW_BLOCK` rows, each block for every
        observation in turn, and each observation is embedded once. The
        first inverse block conditions on one half of theta only: grid
        column c, whose values are `layout.axes[c]`, for 2-D theta, nothing
        for 1-D. Its network therefore runs once per observation, on that
        axis, and its s and shift are gathered onto each block's rows; the
        other blocks and the base density run on all rows. A row equals
        paired `log_density` bit for bit. Beyond two dimensions the halves
        have several columns and the paired-row surface is used.
        """
        if self.dim_theta > 2:
            return super().log_density_grid(layout, xs, out)
        grid = _rows(layout.points, self.dim_theta, "grid")
        emb = self.embed(xs)
        out = _grid_out(out, emb.shape[0], len(grid))
        parity, net = self.coupling[-1]
        r = layout.resolution
        # column `parity` (2-D) or no column (1-D); numpy's matmul sends a
        # single row through gemv, whose sums may differ from gemm's in the
        # last bit, so the network sees at least two rows
        cond = layout.axes[parity][:, None] if self.dim_theta == 2 else np.empty((1, 0))
        cond = np.resize(cond, (max(len(cond), 2), cond.shape[1]))
        with ad.no_grad():
            firsts = [self._scale_shift(net, Value(cond),
                                        ad.repeat_rows(Value(e[None]), len(cond)))
                      for e in emb]
            for lo in range(0, len(grid), ROW_BLOCK):
                theta = grid[lo:lo + ROW_BLOCK]
                rows = np.arange(lo, lo + len(theta))
                # in ij order row i holds axis values (i // r, i % r)
                if self.dim_theta == 1:
                    index = np.zeros_like(rows)
                else:
                    index = rows // r if parity == 0 else rows % r
                for i, (s, shift) in enumerate(firsts):
                    out[i, lo:lo + len(theta)] = self.log_density_graph(
                        Value(theta), ad.repeat_rows(Value(emb[i:i + 1]), len(theta)),
                        (ad.gather_rows(s, index), ad.gather_rows(shift, index))
                    ).data[:, 0]
        return out

    def sample_batch(self, x, rng, count):
        """(n, count, dim_theta) draws, one set per observation row."""
        x = _rows(x, self.dim_x, "x")
        n = x.shape[0]
        emb = np.repeat(self.embed(x), count, axis=0)
        z = rng.standard_normal((n * count, self.dim_theta))
        with ad.no_grad():
            flat = self._push_forward(Value(z), Value(emb)).data
        return flat.reshape(n, count, self.dim_theta)


class GaussianLinearPosterior:
    """Conjugate posterior for x = theta + noise under a standard normal prior.

    Per dimension: N(x / (1 + sigma^2), sigma^2 / (1 + sigma^2)), optionally
    with the standard deviation multiplied by `scale_factor` to build
    deliberately over/under-dispersed references.
    """

    normalized = True
    method = "oracle"

    def __init__(self, noise_sigma, dim, scale_factor=1.0):
        self.noise_sigma = noise_sigma
        self.dim_theta = dim
        self.coef = 1.0 / (1.0 + noise_sigma ** 2)
        self.std = math.sqrt(noise_sigma ** 2 / (1.0 + noise_sigma ** 2)) * scale_factor

    def log_density(self, theta, x):
        theta = _rows(theta, self.dim_theta, "theta")
        x = _rows(x, self.dim_theta, "x")
        return self._finish(sum_sq_scaled(theta, self.coef * x, self.std))

    def log_density_sets(self, thetas, xs):
        """(n, k) log densities of n sets of k parameters, set i under xs[i];
        each observation's mean broadcasts over its set, in `log_density`'s
        operations."""
        thetas, xs = _point_sets(thetas, xs, self.dim_theta, self.dim_theta)
        return self._finish(sum_sq_scaled(thetas, self.coef * xs[:, None], self.std))

    def log_density_grid(self, layout, xs, out=None):
        """(n_x, len(layout)) log densities of the layout's points, written
        into `out` when one is given.

        The quadratic is summed one dimension at a time as
        ((theta_d - coef x_d) / std)^2, the form `log_density` uses, so a
        grid row equals the paired rows bit for bit and no |grid|^2 term is
        computed. Each term is computed once per value of its axis
        (`layout.axes`) and the terms are broadcast-added into `out`.
        """
        _rows(layout.points, self.dim_theta, "grid")
        xs = _rows(xs, self.dim_theta, "xs")
        n, r, dim = xs.shape[0], layout.resolution, self.dim_theta
        out = _grid_out(out, n, len(layout))
        # out[i] seen as (r, ..., r): axis d's term varies along index d only
        cube = out.reshape((n,) + (r,) * dim)
        total = None
        for d, axis in enumerate(layout.axes):
            term = axis - self.coef * xs[:, d:d + 1]                # (n, r)
            term /= self.std
            term *= term
            shape = [n] + [1] * dim
            shape[1 + d] = r
            term = term.reshape(shape)
            total = term if total is None else np.add(total, term, out=cube)
        if dim == 1:
            cube[...] = total
        return self._finish(out)

    def _finish(self, sq):
        """-sq / 2 minus the log normalizer, in place."""
        sq *= -0.5
        sq -= self.dim_theta * (math.log(self.std) + 0.5 * LOG_2PI)
        return sq

    def sample_batch(self, x, rng, count):
        x = _rows(x, self.dim_theta, "x")
        mean = self.coef * x[:, None, :]
        return mean + self.std * rng.standard_normal((x.shape[0], count, self.dim_theta))


def build_model(method, prior, dim_x, arch, rng=None):
    """Construct an estimator from its method tag and architecture dict."""
    if method == "nre":
        return NreModel(prior, dim_x, hidden=arch.get("hidden", 8),
                        embed_dim=arch.get("embed_dim", 8), rng=rng)
    if method == "npe":
        return NpeFlow(prior.dim, dim_x, hidden=arch.get("hidden", 8),
                       embed_dim=arch.get("embed_dim", 8),
                       blocks=arch.get("blocks", 2), rng=rng)
    raise ValueError(f"unknown method {method!r}")
