import threading

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
    """Counts a model's embedding, density and head calls and their rows.

    Wraps the instance's `embed_graph` and `log_density_graph`, through
    which both the graph and the numpy surface run, and the ratio model's
    `logit_graph`, its head, which its training loss calls directly.
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
