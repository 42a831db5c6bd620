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
basis block, whose spectral radius (plus a power-boundedness check near 1)
decides stability.
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
    "region_grid", "grid_to_csv", "column_split_exists", "asymptotic_decay",
    "STABLE_TOL", "MARGINAL_LIMIT",
]

STABLE_TOL = 1e-10      # |R| <= 1 + STABLE_TOL classifies stable
MARGINAL_LIMIT = 1.01   # .. <= MARGINAL_LIMIT classifies marginal


@dataclass(frozen=True)
class DahlquistPoint:
    k1: float
    k2: float


def RepartitionAngle(rho: float) -> RepartitionSpec:
    """Rotation of the linear eigenvalue by rho into the left half-plane:
    the 'abs_k3' repartition with eps = tan(rho)."""
    return RepartitionSpec("abs_k3", rho=rho)


def _test_problem(k1, k2, angle: Optional[RepartitionSpec]) -> DiagonalProblem:
    """The partitioned oscillator at (k1, k2) arrays, repartitioned by
    `angle` (None is the angle 0)."""
    if angle is None:
        angle = RepartitionAngle(0.0)
    if angle.kind != "abs_k3":
        raise ValueError("stability probes take an 'abs_k3' repartition, "
                         "not %r" % (angle.kind,))
    L = 1j * k1
    shift = repartition_shift(L, angle)
    z2 = 1j * k2 - shift
    return DiagonalProblem(L_diag=L + shift, nonlinear=lambda t, y: z2 * y)


def _one_step_R(method: MethodSpec, problem: DiagonalProblem) -> np.ndarray:
    """Execute one literal h=1 step from y=1."""
    y = np.ones(problem.L_diag.shape, dtype=np.complex128)
    return method.step(problem, 0.0, y, 1.0, PhiCache(problem.L_diag),
                       method.tableau)


def stability_scalar(method: MethodSpec, point: DahlquistPoint,
                     angle: Optional[RepartitionSpec] = None) -> complex:
    """Amplification factor R^(k1, k2) of a one-step method."""
    if method.block:
        raise ValueError("stability_scalar needs a one-step method; "
                         "use epbm_transfer_matrix for epbm5")
    problem = _test_problem(np.array([point.k1]), np.array([point.k2]), angle)
    return complex(_one_step_R(method, problem)[0])


def _epbm_transfer_batch(method: MethodSpec,
                         problem: DiagonalProblem) -> np.ndarray:
    """(n, 5, 5) transfer matrices: column j is the composite step applied
    to the j-th basis block.  The five columns share one phi cache."""
    phis = PhiCache(problem.L_diag)
    n = problem.L_diag.size
    M = np.empty((n, 5, 5), dtype=np.complex128)
    for col in range(5):
        block = np.zeros((5, n), dtype=np.complex128)
        block[col] = 1.0
        M[:, :, col] = method.step(problem, 0.0, block, 1.0, phis,
                                   method.tableau).T
    return M


def epbm_transfer_matrix(method: MethodSpec, point: DahlquistPoint,
                         angle: Optional[RepartitionSpec] = None) -> np.ndarray:
    """5x5 one-composite-step transfer matrix at a single (k1, k2)."""
    if not method.block:
        raise ValueError("transfer matrix is defined for epbm5")
    problem = _test_problem(np.array([point.k1]), np.array([point.k2]), angle)
    return _epbm_transfer_batch(method, problem)[0]


def power_bounded_classification(M: np.ndarray, tol: float = 1e-8) -> str:
    """Classify by spectral radius; near radius 1 additionally power the
    matrix 10^4 times as a defective-eigenvalue surrogate (max-norm must
    stay within 10x its initial value)."""
    try:
        radius = float(np.max(np.abs(np.linalg.eigvals(M))))
    except np.linalg.LinAlgError:
        warnings.warn("eigenvalue computation failed; classifying marginal")
        return "marginal"
    if radius > MARGINAL_LIMIT:
        return "unstable"
    if abs(radius - 1.0) <= tol:
        norm0 = float(np.max(np.abs(M)))
        P = M.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(10_000):
                P = P @ M
                if not np.max(np.abs(P)) <= 10.0 * norm0:
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


def region_grid(method: MethodSpec, k1_range: tuple[float, float],
                k2_range: tuple[float, float], resolution: tuple[int, int],
                angle: Optional[RepartitionSpec] = None) -> StabilityGrid:
    """Sample |R^| on a (k1, k2) product grid (vectorized: the whole grid is
    flattened into one diagonal problem and stepped once)."""
    n1, n2 = int(resolution[0]), int(resolution[1])
    if n1 < 1 or n2 < 1:
        raise ValueError("resolution must be positive")
    if k1_range[0] < 0:
        raise ValueError("k1 range must lie in [0, inf)")
    k1 = np.linspace(k1_range[0], k1_range[1], n1)
    k2 = np.linspace(k2_range[0], k2_range[1], n2)
    K1, K2 = (a.ravel() for a in np.meshgrid(k1, k2, indexing="ij"))
    problem = _test_problem(K1, K2, angle)
    with np.errstate(over="ignore", invalid="ignore"):
        if method.block:
            M = _epbm_transfer_batch(method, problem)
            absR = np.max(np.abs(np.linalg.eigvals(M)), axis=1)
        else:
            absR = np.abs(_one_step_R(method, problem))
    absR = absR.reshape(n1, n2)
    rho = 0.0 if angle is None else (
        angle.rho if angle.rho is not None else math.atan(angle.epsilon))
    return StabilityGrid(method=method.family, rho=rho,
                         k1_samples=k1, k2_samples=k2, absR=absR,
                         classification=_classify(absR))


def grid_to_csv(grid: StabilityGrid, path) -> None:
    """k1-major CSV dump: header k1,k2,absR,class; 17 significant digits."""
    lines = ["k1,k2,absR,class"]
    for i, a in enumerate(grid.k1_samples):
        row_abs = grid.absR[i]
        row_cls = grid.classification[i]
        for j, b in enumerate(grid.k2_samples):
            lines.append("%.17g,%.17g,%.17g,%s" % (a, b, row_abs[j], row_cls[j]))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


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
