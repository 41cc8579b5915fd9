import threading

import numpy as np
import pytest

from calsbi import autodiff as ad
from calsbi import covreg
from calsbi.autodiff import Value


def finite_difference(func, arr, eps=1e-5):
    """Central-difference gradient of a scalar-returning func w.r.t. arr.

    func re-evaluates the full computation from current array contents, so
    mutating arr in place perturbs the graph input.
    """
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = func()
        flat[i] = orig - eps
        fm = func()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def assert_close_rel(actual, expected, rtol=1e-4, atol=1e-7):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


class RowCounter:
    """Counts a model's embedding, density and head calls and their rows.

    Wraps the instance's `embed_graph` and `log_density_graph`, through
    which the graph surface and every numpy call (paired rows, point sets,
    grids) run, and the ratio model's `logit_graph`, its head, which its
    training loss calls directly.
    """

    def __init__(self, model):
        self._lock = threading.Lock()   # the rank audit calls from several threads
        self.reset()
        for kind, attr in (("embed", "embed_graph"), ("density", "log_density_graph"),
                           ("head", "logit_graph")):
            if hasattr(model, attr):
                setattr(model, attr, self._counted(kind, getattr(model, attr)))

    def _counted(self, kind, fn):
        def counted(value, *rest):
            with self._lock:
                vars(self)[f"{kind}_calls"] += 1
                vars(self)[f"{kind}_rows"] += value.data.shape[0]
            return fn(value, *rest)
        return counted

    def reset(self):
        for kind in ("embed", "density", "head"):
            vars(self).update({f"{kind}_calls": 0, f"{kind}_rows": 0})


class PairedSets:
    """`log_density_sets` from paired `log_density`, each observation
    repeated over its set, for test densities that define only the latter."""

    def log_density_sets(self, thetas, xs):
        n, k, d = np.shape(thetas)
        rows = np.reshape(thetas, (n * k, d))
        return self.log_density(rows, np.repeat(xs, k, axis=0)).reshape(n, k)


class PriorAsPosterior(PairedSets):
    """The prior as a posterior that ignores the observation.

    Calibrated by construction, so its coverage is known; it samples, so it
    can also be a `covreg.DensityProposal`.
    """

    normalized = True

    def __init__(self, prior):
        self.prior = prior
        self.dim_theta = prior.dim

    def log_density(self, theta, x):
        return self.prior.log_density(theta)

    def sample_batch(self, xs, rng, count):
        n = len(xs)
        return self.prior.sample(rng, n * count).reshape(n, count, self.dim_theta)


def paired_log_density(posterior, thetas, xs, per_x=1):
    """Value (len(thetas), 1): log densities with `per_x` consecutive rows of
    `thetas` per row of `xs`.

    A graph model (one with `log_density_graph`) embeds each observation
    once and runs its graph, so gradients reach its parameters; any other
    density answers paired `log_density`, each observation repeated.
    """
    if hasattr(posterior, "log_density_graph"):
        emb = ad.repeat_rows(posterior.embed_graph(Value(xs)), per_x)
        return posterior.log_density_graph(Value(thetas), emb)
    return Value(posterior.log_density(thetas, np.repeat(xs, per_x, axis=0))[:, None])


def rank_block(posterior, thetas, xs, num_samples, proposal, rng):
    """The (draws, log densities) block `covreg.rank_statistics` takes.

    The draws are `num_samples` a pair from `proposal` with `rng`; the
    (n, 1 + L) log densities, at each pair's nominal parameter followed by
    its draws, come from one `paired_log_density` call, as a training step
    makes them.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    draws = proposal.sample_batch(xs, rng, num_samples)
    n, d = thetas.shape
    rows = covreg.stacked_points(thetas, draws).reshape(-1, d)
    lp = paired_log_density(posterior, rows, xs, num_samples + 1)
    return draws, lp.reshape(n, num_samples + 1)
