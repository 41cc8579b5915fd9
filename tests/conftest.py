import numpy as np
import pytest


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
    """Counts a model's embedding calls and rows and its density rows.

    Wraps the instance's `embed_graph` and `log_density_graph`, through
    which both the graph and the numpy surface run.
    """

    def __init__(self, model):
        self.reset()
        embed, density = model.embed_graph, model.log_density_graph

        def counted_embed(x):
            self.embed_calls += 1
            self.embed_rows += x.data.shape[0]
            return embed(x)

        def counted_density(theta, x_emb, *rest):
            self.density_rows += theta.data.shape[0]
            return density(theta, x_emb, *rest)

        model.embed_graph = counted_embed
        model.log_density_graph = counted_density

    def reset(self):
        self.embed_calls = 0
        self.embed_rows = 0
        self.density_rows = 0
