"""AdamW with decoupled weight decay, plus global gradient-norm clipping."""

import math

import numpy as np


def clip_grad_norm(grad, max_norm):
    """Scale a flat gradient vector so its L2 norm does not exceed max_norm.

    Returns (scaled gradient, pre-clip norm); a gradient within the bound is
    returned as it is.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = math.sqrt(float(grad @ grad))
    if total <= max_norm:
        return grad, total
    return grad * (max_norm / total), total


class AdamW:
    """Standard AdamW over a name -> Value parameter dict.

    Bias-corrected first/second moments; weight decay applied directly to
    parameters (decoupled from the moment update). Deterministic given
    identical inputs and state.

    The parameters are copied once into one float64 vector, `data`, and each
    parameter's `.data` becomes a view of its slice, so a step is a few
    whole-vector ops and writes through the views (a checkpoint load or a
    `data[...] = ...` lands in the vector). `m` and `v` are vectors of the
    same length. The parameters belong to the last AdamW built on them.
    """

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        if not 0.0 < betas[0] < 1.0 or not 0.0 < betas[1] < 1.0:
            raise ValueError(f"betas must lie in (0, 1), got {betas}")
        if lr <= 0 or eps <= 0 or weight_decay < 0:
            raise ValueError("lr and eps must be positive, weight_decay non-negative")
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        values = list(self.params.values())
        self._offsets = np.cumsum([0] + [p.data.size for p in values])
        self.data = np.empty(self._offsets[-1])
        for p, lo, hi in zip(values, self._offsets[:-1], self._offsets[1:]):
            view = self.data[lo:hi].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
        self.m = np.zeros_like(self.data)
        self.v = np.zeros_like(self.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def gradients(self):
        """The parameters' gradients as one vector laid out like `data`;
        zeros where a gradient is unset."""
        out = np.zeros_like(self.data)
        for (name, p), lo, hi in zip(self.params.items(), self._offsets[:-1],
                                     self._offsets[1:]):
            if p.grad is None:
                continue
            if p.grad.shape != p.data.shape:
                raise ValueError(f"gradient shape {p.grad.shape} does not match "
                                 f"parameter {name!r} shape {p.data.shape}")
            out[lo:hi] = p.grad.ravel()
        return out

    def step(self, grad=None):
        """Apply one AdamW update from the .grad fields or a flat gradient
        vector laid out like `data`."""
        if grad is None:
            grad = self.gradients()
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match "
                             f"parameter vector shape {self.data.shape}")
        finite = np.isfinite(grad)
        if not finite.all():
            first = np.argmin(finite)
            name = list(self.params)[np.searchsorted(self._offsets, first, "right") - 1]
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        if self.weight_decay:
            self.data -= self.lr * self.weight_decay * self.data
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        self.data -= self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
