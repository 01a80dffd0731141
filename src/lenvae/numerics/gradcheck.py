"""Finite-difference gradient checking.

A stochastic loss is checked by seeding a fresh generator per evaluation:
when the shapes of its draws do not depend on the parameter values, every
evaluation then sees the same noise.
"""

import numpy as np

from .params import ParamStore


class NonFiniteLossError(RuntimeError):
    pass


def grad_check(loss_function, params: ParamStore, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``loss_function(params)`` must return a scalar Tensor and be deterministic
    given the parameter values (seed a fresh generator per evaluation). The
    error for each parameter entry is |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8); the maximum over all entries of all
    parameters is returned.
    """
    params.zero_grads()
    loss = loss_function(params)
    if not np.isfinite(loss.data).all():
        raise NonFiniteLossError(f"loss is not finite: {loss.data}")
    loss.backward()
    analytic = {name: t.dense_grad() for name, t in params.items()}
    params.zero_grads()

    worst = 0.0
    for name, t in params.items():
        # index the value itself, so each perturbation writes through
        for i in np.ndindex(t.data.shape):
            orig = t.data[i]
            t.data[i] = orig + eps
            lo_hi = float(loss_function(params).data)
            t.data[i] = orig - eps
            lo_lo = float(loss_function(params).data)
            t.data[i] = orig
            if not (np.isfinite(lo_hi) and np.isfinite(lo_lo)):
                raise NonFiniteLossError(f"loss not finite while perturbing {name}{list(i)}")
            numeric = (lo_hi - lo_lo) / (2.0 * eps)
            a = analytic[name][i]
            denom = max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, abs(a - numeric) / denom)
    return worst
