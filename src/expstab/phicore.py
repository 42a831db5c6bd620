"""Evaluation of the phi functions used by exponential integrators.

phi_0(z) = e^z,  phi_{k+1}(z) = (phi_k(z) - 1/k!) / z,
phi_k(z) = sum_{j>=0} z^j / (j+k)!

Everything operates elementwise on diagonal (spectral) operators, so a
"table" is the set of arrays phi_0..phi_K evaluated at h*L_diag; a stack of
diagonals (one row per run of a batch) gets one table of the same shape.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["phi_scalar", "phi_table", "PhiTable", "PhiCache"]

# series tiers: 30 terms inside the unit disk, 60 terms out to |z| = 8,
# phi_0 = exp + forward recurrence beyond (per-level error there is damped
# by 1/|z| <= 1/8, so no cancellation buildup).
_INNER_RADIUS = 1.0
_OUTER_RADIUS = 8.0
_INNER_TERMS = 30
_OUTER_TERMS = 60
_MAX_INDEX = 16

_INV_FACT = np.array([1.0 / math.factorial(j)
                      for j in range(_OUTER_TERMS + _MAX_INDEX + 1)])


def _series(z, kmax, terms):
    """Horner-evaluated truncated Taylor series, all orders 0..kmax at once."""
    out = np.empty((kmax + 1,) + z.shape, dtype=np.complex128)
    for k in range(kmax + 1):
        acc = np.full(z.shape, _INV_FACT[terms - 1 + k], dtype=np.complex128)
        for j in range(terms - 2, -1, -1):
            acc *= z
            acc += _INV_FACT[j + k]
        out[k] = acc
    return out


def _phi_block(z, kmax):
    """phi_0..phi_kmax at each entry of the complex array z."""
    z = np.ascontiguousarray(z, dtype=np.complex128)
    out = np.empty((kmax + 1,) + z.shape, dtype=np.complex128)
    r = np.abs(z)
    inner = r < _INNER_RADIUS
    outer = ~inner & (r < _OUTER_RADIUS)
    far = r >= _OUTER_RADIUS
    if inner.any():
        out[:, inner] = _series(z[inner], kmax, _INNER_TERMS)
    if outer.any():
        out[:, outer] = _series(z[outer], kmax, _OUTER_TERMS)
    if far.any():
        zf = z[far]
        vals = np.empty((kmax + 1,) + zf.shape, dtype=np.complex128)
        vals[0] = np.exp(zf)
        for k in range(kmax):
            vals[k + 1] = (vals[k] - _INV_FACT[k]) / zf
        out[:, far] = vals
    return out


def phi_scalar(k: int, z: complex) -> complex:
    """phi_k(z) for a single complex argument, k in 0..8."""
    if not isinstance(k, (int, np.integer)) or k < 0 or k > 8:
        raise ValueError("phi index must be an integer in 0..8")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("invalid argument")
    return complex(_phi_block(np.array([z]), k)[k, 0])


@dataclass(frozen=True)
class PhiTable:
    """phi_0..phi_K evaluated at h * L_diag (values[k] is the phi_k array,
    shaped like L_diag)."""
    h: float
    K: int
    args: np.ndarray
    values: np.ndarray

    def phi(self, k: int) -> np.ndarray:
        return self.values[k]


def phi_table(L_diag: np.ndarray, h: float, K: int = 4) -> PhiTable:
    """Build the phi table for a diagonal operator (or a stack of them along
    leading axes) at step size h."""
    L = np.asarray(L_diag, dtype=np.complex128)
    if L.ndim < 1 or L.size == 0:
        raise ValueError("empty operator diagonal")
    if not np.isfinite(L).all():
        raise ValueError("invalid argument")
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError("step size must be positive and finite")
    if not 4 <= int(K) <= _MAX_INDEX:
        raise ValueError("table order K must be in 4..%d" % _MAX_INDEX)
    args = h * L
    values = _phi_block(args, int(K))
    args.setflags(write=False)
    values.setflags(write=False)
    return PhiTable(h=h, K=int(K), args=args, values=values)


class PhiCache:
    """Memoized phi tables for one diagonal operator, keyed by (h, K).

    Steppers ask for tables every step; reuse makes repeated fixed-step
    integration pay the evaluation cost once per distinct substep length.
    """

    def __init__(self, L_diag: np.ndarray):
        self.L_diag = np.asarray(L_diag, dtype=np.complex128)
        self._tables: dict[tuple[float, int], PhiTable] = {}

    def table(self, h: float, K: int = 4) -> PhiTable:
        key = (float(h), int(K))
        tab = self._tables.get(key)
        if tab is None:
            tab = phi_table(self.L_diag, h, K)
            self._tables[key] = tab
        return tab
