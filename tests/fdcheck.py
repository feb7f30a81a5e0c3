"""Finite-difference gradient oracle shared by the test modules.

Central differences with h = 1e-5; independent of the tape it checks.
"""

import numpy as np

from cisosdm import numerics as nm

H = 1e-5
REL_TOL = 1e-4
ABS_FLOOR = 1e-7


def fd_gradient(loss_fn, param: nm.Tensor, h: float = H) -> np.ndarray:
    """Central-difference gradient of a scalar-valued loss_fn() w.r.t. param."""
    fd = np.zeros_like(param.values)
    flat = param.values.ravel()
    out = fd.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn()
        flat[i] = orig - h
        dn = loss_fn()
        flat[i] = orig
        out[i] = (up - dn) / (2.0 * h)
    return fd


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Relative error with an absolute floor: differences below ABS_FLOOR pass
    outright (covers parameters whose true gradient is exactly zero)."""
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), ABS_FLOOR)
    return float(np.where(diff <= ABS_FLOOR, 0.0, diff / scale).max())


def check_gradients(loss_fn, params: dict, tol: float = REL_TOL) -> dict:
    """Backprop loss_fn once, compare every parameter grad to the oracle;
    return the gradient map."""
    with nm.Tape() as tape:
        loss = loss_fn()
        grads = nm.backward(tape, loss)
    for name, p in params.items():
        assert grads.get(p) is not None, f"no gradient for {name}"
        fd = fd_gradient(lambda: loss_fn().item(), p)
        err = max_rel_err(grads[p], fd)
        assert err < tol, f"{name}: rel err {err:.2e} exceeds {tol}"
    return grads
