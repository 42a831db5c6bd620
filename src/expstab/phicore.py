"""Evaluation of the phi functions used by exponential integrators.

phi_0(z) = e^z,  phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,
phi_k(z) = sum_{j>=0} z^j / (j+k)!

Everything operates elementwise on diagonal (spectral) operators, so a
"table" is the set of arrays phi_0..phi_K evaluated at h*L_diag; a stack of
diagonals (one row per run of a batch) gets one table of the same shape.

A `PhiCache` has one memo, of what steppers derive from the tables: each
stepper folds its per-step phi combinations (exponential Euler's phi_0 and
h*phi_1, the Krogstad weights, the deferred-correction quadrature products,
the block method's node propagators) into coefficient arrays, built on the
first step of each h (`PhiCache.coefficients`).  Each problem carries the
PhiCache of its own operator (`DiagonalProblem.phis`).  Tables are
transient: one is built for each request, while those arrays are built, and
not kept.  One cap, `_MAX_INDEX` = 8, bounds phi_table's K and phi_scalar's k.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["phi_scalar", "phi_table", "PhiTable", "PhiCache"]

# phi_0 = exp everywhere.  phi_1..phi_K in two regimes: their Taylor
# series of 60 terms for |z| < 8, all orders in one Horner pass, and the
# forward recurrence from phi_0 beyond (per-level error there is damped by
# 1/|z| <= 1/8, so no cancellation buildup).  phi_0's own series would
# cancel for Re z < 0: at z = -7.5 its 60 terms lose 7.9e-11 relative.
_SERIES_RADIUS = 8.0
_SERIES_TERMS = 60
_MAX_INDEX = 8

_INV_FACT = np.array([1.0 / math.factorial(j)
                      for j in range(_SERIES_TERMS + _MAX_INDEX + 1)])


def _series(z, kmax):
    """phi_1..phi_kmax at each entry of the 1-D array z, from their
    truncated Taylor series in one Horner pass: row k-1 of the (kmax, n)
    accumulator holds phi_k, and each pass adds the column 1/(j+k)!."""
    acc = np.empty((kmax,) + z.shape, dtype=np.complex128)
    acc[...] = _INV_FACT[_SERIES_TERMS:_SERIES_TERMS + kmax, None]
    for j in range(_SERIES_TERMS - 2, -1, -1):
        acc *= z
        acc += _INV_FACT[j + 1:j + kmax + 1, None]
    return acc


def _phi_block(z, kmax):
    """phi_0..phi_kmax at each entry of the complex array z."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    out = np.empty((kmax + 1,) + z.shape, dtype=np.complex128)
    out[0] = np.exp(z)
    near = np.abs(z) < _SERIES_RADIUS
    far = ~near
    if near.any():
        out[1:, near] = _series(z[near], kmax)
    if far.any():
        zf = z[far]
        prev = out[0, far]
        for k in range(kmax):
            prev = (prev - _INV_FACT[k]) / zf
            out[k + 1, far] = prev
    return out


def phi_scalar(k: int, z: complex) -> complex:
    """phi_k(z) for a single complex argument, k in 0.._MAX_INDEX."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > _MAX_INDEX:
        raise ValueError("phi index must be an integer in 0..%d" % _MAX_INDEX)
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("invalid argument")
    return complex(_phi_block(np.array([z]), k)[k, 0])


@dataclass(frozen=True)
class PhiTable:
    """phi_0..phi_K evaluated at args = h * L_diag (values[k] is the phi_k
    array, shaped like L_diag)."""
    args: np.ndarray
    values: np.ndarray


def phi_table(L_diag: np.ndarray, h: float, K: int = 4) -> PhiTable:
    """Build the phi table for a diagonal operator (or a stack of them along
    leading axes) at step size h, which may be negative (a backward step)
    but not zero."""
    L = np.asarray(L_diag, dtype=np.complex128)
    if L.ndim < 1 or L.size == 0:
        raise ValueError("empty operator diagonal")
    if not np.isfinite(L).all():
        raise ValueError("invalid argument")
    h = float(h)
    if not (h != 0.0 and math.isfinite(h)):
        raise ValueError("step size must be nonzero and finite")
    if not 4 <= int(K) <= _MAX_INDEX:
        raise ValueError("table order K must be in 4..%d" % _MAX_INDEX)
    args = h * L
    values = _phi_block(args, int(K))
    args.setflags(write=False)
    values.setflags(write=False)
    return PhiTable(args=args, values=values)


class PhiCache:
    """The stepper coefficients of one diagonal operator, memoized by
    (builder, h); its phi tables are built afresh on each request, so a
    fixed-step run keeps none after the arrays drawn from them exist."""

    def __init__(self, L_diag: np.ndarray):
        self.L_diag = np.asarray(L_diag, dtype=np.complex128)
        self._coefficients: dict = {}

    def table(self, h: float, K: int = 4) -> PhiTable:
        return phi_table(self.L_diag, h, K)

    def coefficients(self, build, h: float):
        """`build(self, h)`, run on the first request for (build, h) and
        returned from the memo after that: a builder's arrays depend on
        (L, h) alone, so (build, h) identifies them."""
        key = (build, float(h))
        out = self._coefficients.get(key)
        if out is None:
            out = self._coefficients[key] = build(self, h)
        return out
