"""Gradient-descent optimizers operating on named parameter dicts.

All three update in place and keep per-parameter accumulator slots
shaped exactly like the parameters. A step consumes its gradients: each
block's gradient array is overwritten as scratch, so that an update
allocates at most one temporary the size of its block, and the caller
must not read the gradients after the step. A non-finite gradient
aborts with a diagnostic naming the offending block, before that block
is modified.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceError

RMSPROP_RHO = 0.9
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
EPS = 1e-8


def _check_finite(name: str, g: np.ndarray) -> None:
    if not np.isfinite(g).all():
        raise DivergenceError(f"non-finite gradient in parameter block {name!r}")


class Sgd:
    """theta <- theta - lr * g."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: dict, grads: dict) -> None:
        for name, p in params.items():
            g = grads[name]
            _check_finite(name, g)
            g *= self.learning_rate
            p -= g


class RmsProp:
    """Running mean-square scaling: s <- rho*s + (1-rho)*g^2,
    theta <- theta - lr * g / (sqrt(s) + eps)."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.s: dict[str, np.ndarray] = {}

    def step(self, params: dict, grads: dict) -> None:
        for name, p in params.items():
            g = grads[name]
            _check_finite(name, g)
            s = self.s.get(name)
            if s is None:
                s = self.s[name] = np.zeros_like(p)
            tmp = np.multiply(g, 1.0 - RMSPROP_RHO)
            tmp *= g
            s *= RMSPROP_RHO
            s += tmp
            g *= self.learning_rate
            np.sqrt(s, out=tmp)
            tmp += EPS
            g /= tmp
            p -= g


class Adam:
    """Bias-corrected first/second moment updates."""

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name, p in params.items():
            g = grads[name]
            _check_finite(name, g)
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            v = self.v[name]
            tmp = np.multiply(g, 1.0 - ADAM_BETA1)
            m *= ADAM_BETA1
            m += tmp
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            tmp *= g
            v *= ADAM_BETA2
            v += tmp
            m_hat = np.divide(m, 1.0 - ADAM_BETA1 ** self.t, out=g)
            m_hat *= self.learning_rate
            v_hat = np.divide(v, 1.0 - ADAM_BETA2 ** self.t, out=tmp)
            np.sqrt(v_hat, out=v_hat)
            v_hat += EPS
            m_hat /= v_hat
            p -= m_hat


# Each optimizer under the name a config gives it; ``ExperimentConfig``
# checks the name and the rate when it is built.
OPTIMIZERS = {"sgd": Sgd, "rmsprop": RmsProp, "adam": Adam}


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale the whole gradient set so its global L2 norm is at most
    max_norm. Returns the pre-clip norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = total ** 0.5
    if norm > max_norm and norm > 0.0:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return norm
