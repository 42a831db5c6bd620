"""Linear stability analysis on the partitioned oscillatory test problem

    y' = i k1 y + i k2 y,

with i k1 assigned to the integrator's linear (exponential/implicit) slot and
i k2 y treated as the nonlinearity.  Repartitioning by angle rho is the
'abs_k3' repartition of expstab.spectral applied to that problem: the shift
eps*D = -tan(rho)*|k1| moves from the explicit slot into the linear one,

    L = i k1 + eps D,   N(y) = (i k2 - eps D) y,

which rotates the linear eigenvalue by rho into the left half-plane.

Every probe builds that problem as a DiagonalProblem and executes literal
steps of the method's production stepper, `MethodSpec.step(problem, t, y, h,
phis, tableau)`, from t=0.  One-step methods are probed by one h=1 step from
y=1; the block method gets a 5x5 transfer matrix, one composite step of each
basis block, whose spectral radius decides stability (`region_grid`
classifies every method by radius alone; `power_bounded_classification` is
a separate check of a single matrix's powers, which no grid calls).  A
(k1, k2) grid is one problem broadcast from a k1
column and a k2 row: L depends on k1 alone, so its phi tables hold one entry
per distinct k1 while the state holds one per grid point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import DiagonalProblem, MethodSpec
# perfbench/tracer.py times stability steps by rebinding these six names on
# this module; the probes step through `method.step`, so the names are kept
# only for that lookup.
from .integrators import (step_erk4, step_esdc6, step_epbm5,  # noqa: F401
                          step_exp_euler, step_imrk4, step_rk4)
from .phicore import PhiCache
from .spectral import RepartitionSpec, repartition_shift

__all__ = [
    "DahlquistPoint", "RepartitionAngle", "StabilityGrid",
    "stability_scalar", "epbm_transfer_matrix", "power_bounded_classification",
    "check_resolution", "region_grid", "grid_to_csv", "column_split_exists",
    "asymptotic_decay",
    "STABLE_TOL", "MARGINAL_LIMIT", "POWER_TOL",
]

STABLE_TOL = 1e-10      # |R| <= 1 + STABLE_TOL classifies stable
MARGINAL_LIMIT = 1.01   # .. <= MARGINAL_LIMIT classifies marginal
POWER_TOL = 1e-8        # |radius - 1| <= POWER_TOL runs the power check


@dataclass(frozen=True)
class DahlquistPoint:
    k1: float
    k2: float


def RepartitionAngle(rho: float) -> RepartitionSpec:
    """Rotation of the linear eigenvalue by rho into the left half-plane:
    the 'abs_k3' repartition with eps = tan(rho)."""
    return RepartitionSpec("abs_k3", rho=rho)


def _probe(method: MethodSpec, k1, k2,
           angle: Optional[RepartitionSpec]) -> np.ndarray:
    """One literal h=1 step of `method` on the partitioned oscillator at the
    (k1, k2) arrays broadcast together, repartitioned by `angle` (None is
    the angle 0): R from y=1 for a one-step method, and for the block method
    the (..., 5, 5) transfer matrices, whose column j is the composite step
    of the j-th basis block.  L has the shape of k1, and so do its phi
    tables, which every step and column share."""
    if angle is None:
        angle = RepartitionAngle(0.0)
    if angle.kind != "abs_k3":
        raise ValueError("stability probes take an 'abs_k3' repartition, "
                         "not %r" % (angle.kind,))
    L = 1j * k1
    shift = repartition_shift(L, angle)
    z2 = 1j * k2 - shift
    problem = DiagonalProblem(L_diag=L + shift, nonlinear=lambda t, y: z2 * y)
    phis = PhiCache(problem.L_diag)
    if not method.block:
        y = np.ones(z2.shape, dtype=np.complex128)
        return method.step(problem, 0.0, y, 1.0, phis, method.tableau)
    M = np.empty(z2.shape + (5, 5), dtype=np.complex128)
    for col in range(5):
        block = np.zeros((5,) + z2.shape, dtype=np.complex128)
        block[col] = 1.0
        M[..., col] = np.moveaxis(method.step(problem, 0.0, block, 1.0, phis,
                                              method.tableau), 0, -1)
    return M


def stability_scalar(method: MethodSpec, point: DahlquistPoint,
                     angle: Optional[RepartitionSpec] = None) -> complex:
    """Amplification factor R^(k1, k2) of a one-step method."""
    if method.block:
        raise ValueError("stability_scalar needs a one-step method; "
                         "use epbm_transfer_matrix for epbm5")
    return complex(_probe(method, np.array([point.k1]), np.array([point.k2]),
                          angle)[0])


def epbm_transfer_matrix(method: MethodSpec, point: DahlquistPoint,
                         angle: Optional[RepartitionSpec] = None) -> np.ndarray:
    """5x5 one-composite-step transfer matrix at a single (k1, k2)."""
    if not method.block:
        raise ValueError("transfer matrix is defined for epbm5")
    return _probe(method, np.array([point.k1]), np.array([point.k2]), angle)[0]


_POWER_BLOCK = 64          # powers advanced per product in the power check
_LAST_POWER = 10_001       # the power check covers M^2 .. M^_LAST_POWER


def power_bounded_classification(M: np.ndarray) -> str:
    """Classify a square matrix by spectral radius; near radius 1 also check
    every power M^2..M^10001 as a defective-eigenvalue surrogate (max-norm
    must stay within 10x that of M).  The powers are advanced 64 at a time:
    the stack M^1..M^64 times M^64 per block."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError("need a non-empty square matrix, got shape %s"
                         % (M.shape,))
    try:
        radius = float(np.max(np.abs(np.linalg.eigvals(M))))
    except np.linalg.LinAlgError:
        warnings.warn("eigenvalue computation failed; classifying marginal")
        return "marginal"
    if radius > MARGINAL_LIMIT:
        return "unstable"
    if abs(radius - 1.0) <= POWER_TOL:
        limit = 10.0 * float(np.max(np.abs(M)))
        with np.errstate(over="ignore", invalid="ignore"):
            P = [M.astype(np.result_type(M, 1.0))]
            for _ in range(_POWER_BLOCK - 1):
                P.append(P[-1] @ M)
            P = np.stack(P)       # M^1 .. M^64; M^1 is within the limit
            step = P[-1]
            for first in range(1, _LAST_POWER + 1, _POWER_BLOCK):
                if first > 1:
                    P = P @ step
                if not np.max(np.abs(P[:_LAST_POWER + 1 - first])) <= limit:
                    return "unstable"
    return "stable" if radius <= 1.0 + STABLE_TOL else "marginal"


_CLASS_NAMES = np.array(["stable", "marginal", "unstable"])


def _classify(absR: np.ndarray) -> np.ndarray:
    idx = np.where(absR <= 1.0 + STABLE_TOL, 0,
                   np.where(absR <= MARGINAL_LIMIT, 1, 2))
    return _CLASS_NAMES[idx]


@dataclass
class StabilityGrid:
    method: str
    rho: float
    k1_samples: np.ndarray      # (n1,)
    k2_samples: np.ndarray      # (n2,)
    absR: np.ndarray            # (n1, n2) spectral radius / |R|
    classification: np.ndarray  # (n1, n2) of {stable, marginal, unstable}


def check_resolution(resolution) -> tuple[int, int]:
    """(n1, n2) of a grid resolution, or ValueError unless it is two
    positive integers."""
    if len(resolution) != 2 or not all(isinstance(n, (int, np.integer))
                                       for n in resolution):
        raise ValueError("resolution must be two integers, got %r"
                         % (resolution,))
    n1, n2 = int(resolution[0]), int(resolution[1])
    if n1 < 1 or n2 < 1:
        raise ValueError("resolution must be positive")
    return n1, n2


def region_grid(method: MethodSpec, k1_range: tuple[float, float],
                k2_range: tuple[float, float], resolution: tuple[int, int],
                angle: Optional[RepartitionSpec] = None) -> StabilityGrid:
    """Sample |R^| on a (k1, k2) product grid, stepped once as one problem
    broadcast from the k1 column and the k2 row (phi tables per k1 only)."""
    n1, n2 = check_resolution(resolution)
    if not np.isfinite(np.concatenate([k1_range, k2_range])).all():
        raise ValueError("k1 and k2 ranges must be finite")
    if k1_range[0] < 0:
        raise ValueError("k1 range must lie in [0, inf)")
    k1 = np.linspace(k1_range[0], k1_range[1], n1)
    k2 = np.linspace(k2_range[0], k2_range[1], n2)
    with np.errstate(over="ignore", invalid="ignore"):
        R = _probe(method, k1[:, None], k2[None, :], angle)
        absR = np.abs(np.linalg.eigvals(R)).max(axis=-1) if method.block \
            else np.abs(R)
    rho = 0.0 if angle is None else (
        angle.rho if angle.rho is not None else math.atan(angle.epsilon))
    return StabilityGrid(method=method.family, rho=rho,
                         k1_samples=k1, k2_samples=k2, absR=absR,
                         classification=_classify(absR))


def grid_to_csv(grid: StabilityGrid, path) -> None:
    """k1-major CSV dump: header k1,k2,absR,class; 17 significant digits.
    Each k1 row is written by one format call."""
    k2s = ["%.17g" % b for b in grid.k2_samples.tolist()]
    row_format = "%s,%s,%.17g,%s\n" * len(k2s)
    cells = [None] * (4 * len(k2s))
    cells[1::4] = k2s
    with open(path, "w", newline="\n") as f:
        f.write("k1,k2,absR,class\n")
        for a, row_abs, row_cls in zip(grid.k1_samples.tolist(),
                                       grid.absR.tolist(),
                                       grid.classification.tolist()):
            cells[0::4] = ["%.17g" % a] * len(k2s)
            cells[2::4] = row_abs
            cells[3::4] = row_cls
            f.write(row_format % tuple(cells))


def column_split_exists(grid: StabilityGrid) -> bool:
    """True when some k1 column's stable set is disconnected along k2
    (stable, then unstable, then stable again) -- the over-partitioning
    split signature."""
    S = grid.classification == "stable"
    stable_above = np.logical_or.accumulate(S[:, ::-1], axis=1)[:, ::-1]
    stable_below = np.logical_or.accumulate(S, axis=1)
    gap = ~S & np.roll(stable_below, 1, axis=1) & np.roll(stable_above, -1, axis=1)
    gap[:, 0] = False
    gap[:, -1] = False
    return bool(gap.any())


def asymptotic_decay(poly_coeffs, k1_values) -> np.ndarray:
    """|integral_0^1 e^{i k (s-1)} p(s) ds| via the integration-by-parts series

        sum_m (-1)^m (p^(m)(1) - e^{-ik} p^(m)(0)) / (ik)^(m+1),

    exact for polynomials.  Decays like 1/k, which is why the explicit
    stage couplings of exponential methods lose a power of k1.
    """
    from numpy.polynomial import polynomial as P
    c = np.atleast_1d(np.asarray(poly_coeffs, dtype=np.float64))
    if c.size == 0 or not np.isfinite(c).all():
        raise ValueError("invalid polynomial coefficients")
    k = np.atleast_1d(np.asarray(k1_values, dtype=np.float64))
    if np.any(k == 0) or not np.isfinite(k).all():
        raise ValueError("k1 values must be finite and nonzero")
    ik = 1j * k
    emk = np.exp(-ik)
    total = np.zeros(k.shape, dtype=np.complex128)
    d = c.copy()
    for m in range(c.size):
        total += (-1.0) ** m * (P.polyval(1.0, d) - emk * P.polyval(0.0, d)) / ik ** (m + 1)
        d = P.polyder(d)
    return np.abs(total)
