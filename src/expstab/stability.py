"""Linear stability analysis on the partitioned oscillatory test problem

    y' = i k1 y + i k2 y,

with i k1 assigned to the integrator's linear (exponential/implicit) slot and
i k2 y treated as the nonlinearity.  Repartitioning by angle rho is the
'abs_k3' repartition of expstab.spectral applied to that problem: the shift
eps*D = -tan(rho)*|k1| moves from the explicit slot into the linear one,

    L = i k1 + eps D,   N(y) = (i k2 - eps D) y,

which rotates the linear eigenvalue by rho into the left half-plane.

Every probe builds that problem as a DiagonalProblem and executes literal
steps of the method's production stepper, `MethodSpec.step(problem, t, y,
h)`, from t=0, on the phi coefficients memoized on the problem
(`problem.phis`).  One-step methods are probed by one h=1 step from y=1;
the block method gets a 5x5 transfer matrix, one composite step of each
basis block, whose spectral radius decides stability (`region_grid`
classifies every method by radius alone; `power_bounded_classification` is
a separate check of a single matrix's powers, which no grid calls).  A
(k1, k2) grid is one problem broadcast from a k1 column and a k2 row: L
depends on k1 alone, so its phi tables hold one entry per distinct k1 while
the state holds one per grid point.

Spectral radii come from one private helper, `_spectral_radii`, a batched
port of LAPACK's zlahqr: chunks of 4096 matrices, stored batch-last, are
reduced to Hessenberg form by Householder reflectors and iterated by shifted
QR with Givens rotations, each NumPy call acting on a whole chunk.  A radius
is bitwise independent of the other matrices in the stack and agrees with
`np.linalg.eigvals` to rounding (within 1e-13 relative in the tests, 6e-15
on the 600x200 EPBM5 maps).  A probe that overflows, a non-finite R or
transfer matrix, reads |R| = inf and classifies unstable, for every family.
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

    def __post_init__(self):
        for name in ("k1", "k2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("DahlquistPoint.%s must be finite, got %r"
                                 % (name, getattr(self, name)))


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
    of the j-th basis block.  L has the shape of k1, and so do the phi
    coefficients on `problem.phis`, which every step and column share.
    A step that overflows gives a non-finite entry, not a RuntimeWarning."""
    if angle is None:
        angle = RepartitionAngle(0.0)
    if angle.kind != "abs_k3":
        raise ValueError("stability probes take an 'abs_k3' repartition, "
                         "not %r" % (angle.kind,))
    L = 1j * k1
    shift = repartition_shift(L, angle)
    z2 = 1j * k2 - shift
    problem = DiagonalProblem(L_diag=L + shift, nonlinear=lambda t, y: z2 * y)
    with np.errstate(over="ignore", invalid="ignore"):
        if not method.block:
            y = np.ones(z2.shape, dtype=np.complex128)
            return method.step(problem, 0.0, y, 1.0)
        M = np.empty(z2.shape + (5, 5), dtype=np.complex128)
        for col in range(5):
            block = np.zeros((5,) + z2.shape, dtype=np.complex128)
            block[col] = 1.0
            M[..., col] = np.moveaxis(method.step(problem, 0.0, block, 1.0),
                                      0, -1)
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


# --- spectral radii -------------------------------------------------------------
#
# A batched port of what LAPACK's zlahqr does for eigenvalues only, so that a
# chunk of 4096 transfer matrices costs a few thousand NumPy calls, not 4096
# zgeev calls.  Matrices are stored batch-last, H[i, j, lane], so every
# operation acts on all lanes of a chunk at once and touches contiguous rows.
# No operation mixes lanes, and a lane's windows, shifts and rotations are
# functions of its own entries, so each radius is bitwise independent of the
# other matrices in its chunk and of where the chunks split the stack.

_RADII_CHUNK = 4096                     # matrices reduced together
_ULP = np.finfo(np.float64).eps         # dlamch('P')
_SAFMIN = np.finfo(np.float64).tiny     # dlamch('S')
_MIN_R2 = 2.0 ** -1000                  # below, |x|^2 + |y|^2 loses digits


def _cabs1(z: np.ndarray) -> np.ndarray:
    return np.abs(z.real) + np.abs(z.imag)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _csqrt(z: np.ndarray) -> np.ndarray:
    """Principal square root by real operations (NumPy's complex sqrt is a
    libm call per element), for |z| of order 1."""
    a, b = z.real, z.imag
    t = np.sqrt(0.5 * (np.abs(a) + np.sqrt(a * a + b * b)))
    q = 0.5 * b / np.where(t > 0, t, 1.0)
    out = np.empty_like(z)
    right = a >= 0
    out.real = np.where(right, t, np.abs(q))
    out.imag = np.where(right, q, np.copysign(t, b))
    return out


def _hessenberg(H: np.ndarray) -> None:
    """Reduce every lane of H (n, n, b) to upper Hessenberg form in place, by
    Householder reflectors I - tau v v^H that map column k below the
    diagonal to beta e_1 (the identity for a column that is already 0).
    H's largest entry is at least 1/2 (see `_chunk_radii`), so a column
    whose entries all lie below _SAFMIN is dropped to 0, as the entries
    below _SAFMIN were before the reduction: its 1/s would overflow."""
    n = H.shape[0]
    for k in range(n - 2):
        x = H[k + 1:, k]
        # |x0| and ||x|| from x scaled to entries near 1: no underflow
        s = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=0)
        tiny = s < _SAFMIN
        if tiny.any():
            x[:, tiny] = 0.0
            s[tiny] = 0.0
        inv = np.divide(1.0, s, out=np.ones_like(s), where=s > 0)
        ax0 = s * np.sqrt(_abs2(x[0] * inv))
        norm = s * np.sqrt(_abs2(x * inv).sum(axis=0))
        on = norm > 0
        phase = np.where(ax0 > 0, x[0] / np.where(ax0 > 0, ax0, 1.0), 1.0)
        beta = -phase * norm
        v = x / np.where(on, x[0] - beta, 1.0)
        v[0] = 1.0
        tau = np.where(on, 1.0 + ax0 / np.where(on, norm, 1.0), 0.0)
        vc = v.conj()
        w = vc[0] * H[k + 1, k + 1:]
        for i in range(1, n - k - 1):
            w += vc[i] * H[k + 1 + i, k + 1:]
        w *= tau
        for i in range(n - k - 1):
            H[k + 1 + i, k + 1:] -= v[i] * w
        u = H[:, k + 1] * v[0]
        for i in range(1, n - k - 1):
            u += H[:, k + 1 + i] * v[i]
        u *= tau
        for i in range(n - k - 1):
            H[:, k + 1 + i] -= u * vc[i]
        H[k + 1, k] = np.where(on, beta, x[0])
        H[k + 2:, k] = 0.0


def _negligible(diag, sub, sup, smlnum: float) -> np.ndarray:
    """zlahqr's test of each subdiagonal H[k, k-1] (rows of `sub`): below
    `smlnum`, or small next to its diagonal neighbours and passing Ahues and
    Tisseur's conservative criterion."""
    asub = _cabs1(sub)
    ad = _cabs1(diag)
    tst = ad[:-1] + ad[1:]
    zero = tst == 0
    if zero.any():
        re = np.abs(sub.real)
        tst[1:] += np.where(zero[1:], re[:-1], 0.0)
        tst[:-1] += np.where(zero[:-1], re[1:], 0.0)
    neg = asub <= smlnum
    maybe = (asub <= _ULP * tst) & ~neg
    if maybe.any():
        i, j = np.nonzero(maybe)
        ab = np.maximum(asub[i, j], _cabs1(sup[i, j]))
        ba = np.minimum(asub[i, j], _cabs1(sup[i, j]))
        dd = _cabs1(diag[i, j] - diag[i + 1, j])
        aa = np.maximum(ad[i + 1, j], dd)
        bb = np.minimum(ad[i + 1, j], dd)
        s = aa + ab
        neg[i, j] = ba * (ab / s) <= np.maximum(smlnum,
                                                _ULP * (bb * (aa / s)))
    return neg


def _givens(x, y, on):
    """(a, b) of the rotation [[a*, b*], [-b, a]] that maps (x, y) to
    (r, 0); the identity where `on` is False or r = 0."""
    r2 = _abs2(x)
    r2 += _abs2(y)
    r = np.sqrt(r2)
    tiny = r2 < _MIN_R2
    if tiny.any():
        r[tiny] = np.hypot(np.abs(x[tiny]), np.abs(y[tiny]))
    ok = r > 0
    if on is not None:
        ok &= on
    inv = np.divide(1.0, r, out=np.zeros_like(r), where=ok)
    return np.where(ok, x * inv, 1.0), y * inv


def _rotate(G, k: int, a, b) -> None:
    """G <- Q G Q^H for the rotation (a, b) in the plane (k, k+1): rows from
    column k-1 on, then columns down to the bulge row k+2."""
    ca, cb = a.conj(), b.conj()
    Rk, Rk1 = G[k, max(k - 1, 0):], G[k + 1, max(k - 1, 0):]
    t = ca * Rk
    t += cb * Rk1
    Rk1 *= a
    Rk1 -= b * Rk
    Rk[...] = t
    Ck, Ck1 = G[:k + 3, k], G[:k + 3, k + 1]
    t = a * Ck
    t += b * Ck1
    Ck1 *= ca
    Ck1 -= cb * Ck
    Ck[...] = t


def _sweep(G, lo, its) -> None:
    """One single-shift QR sweep on lanes whose unreduced blocks are
    G[lo:, lo:] of G (m, m, b), the leading m x m of their matrices: the
    Wilkinson shift of the trailing 2 x 2 (zlahqr's exceptional shifts on
    sweeps 10 and 20 since the last deflation), then the bulge chased from
    row lo down by Givens rotations."""
    h = G.shape[0] - 1
    h22, h21, h12 = G[h, h], G[h, h - 1], G[h - 1, h]
    x = 0.5 * (G[h - 1, h - 1] - h22)
    # the eigenvalue of the trailing 2 x 2 nearer h22, h22 - p/(x + y) with
    # y^2 = x^2 + p, p = h12 h21; computed scaled by s as zlahqr does
    s = np.maximum(np.maximum(_cabs1(x), _cabs1(h12)), _cabs1(h21))
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
    x = x * inv
    p = (h12 * inv) * (h21 * inv)
    y = _csqrt(x * x + p)
    np.negative(y, out=y, where=x.real * y.real + x.imag * y.imag < 0)
    den = x + y
    shift = h22 - s * (p / np.where(den != 0, den, 1.0))
    if (its == 10).any() or (its == 20).any():
        top = G[lo, lo, np.arange(G.shape[2])]
        below = G[lo + 1, lo, np.arange(G.shape[2])]
        shift = np.where(its == 10, top + 0.75 * np.abs(below),
                         np.where(its == 20, h22 + 0.75 * np.abs(h21), shift))
    lo_max = int(lo.max())
    for k in range(h):
        if k == 0:
            x, y = G[0, 0] - shift, G[1, 0]
        elif k > lo_max:
            x, y = G[k, k - 1], G[k + 1, k - 1]
        else:
            first = lo == k
            x = np.where(first, G[k, k] - shift, G[k, k - 1])
            y = np.where(first, G[k + 1, k], G[k + 1, k - 1])
        a, b = _givens(x, y, lo <= k if k < lo_max else None)
        _rotate(G, k, a, b)
        if k > 0:
            G[k + 1, k - 1] = 0.0


def _chunk_radii(H: np.ndarray) -> np.ndarray:
    """Spectral radii of the b finite matrices in H (n, n, b), which it
    overwrites.  Lanes still iterating are H[..., :m], grouped by the bottom
    `hi` of their unreduced block in descending order, so each group sweeps
    its leading (hi+1) x (hi+1) block as one slice; a deflation moves only
    the lanes that land outside their new group.  Sweeping every lane full
    width under a mask gives the same bits on the 600x200 EPBM5 stacks, but
    took 2.9x as long at rho = 0 and 1.3x as long at rho = pi/2048."""
    n, _, b = H.shape
    # scale each matrix by a power of two (exactly) to entries below 1
    exponent = np.maximum(np.frexp(np.maximum(
        np.abs(H.real), np.abs(H.imag)).max(axis=(0, 1)))[1], -1022)
    H *= np.ldexp(1.0, -exponent)
    # drop every entry (real and imaginary parts apart) of the scaled
    # matrix below _SAFMIN, diagonal and superdiagonal included: each is a
    # change of under 2.3e-308 beside a largest entry of at least 1/2
    # (unless the whole matrix lies below 2**-1022).  Left subnormal, such
    # an entry overflows the reduction's reciprocal 1/s.
    for part in (H.real, H.imag):
        part[np.abs(part) < _SAFMIN] = 0.0
    _hessenberg(H)
    flat = H.reshape(n * n, b)
    diag, sub, sup = flat[::n + 1], flat[n::n + 1], flat[1::n + 1]
    smlnum = _SAFMIN * (n / _ULP)
    radii = np.empty(b)
    lane = np.arange(b)                 # the matrix in each column of H
    hi = np.full(b, n - 1)
    its = np.zeros(b, dtype=np.intp)    # sweeps since hi last moved
    rows = np.arange(1, n)[:, None]
    windows = np.arange(n - 1, -1, -1)
    m = b
    while m:
        neg = _negligible(diag[:, :m], sub[:, :m], sup[:, :m], smlnum)
        np.copyto(sub[:, :m], 0.0, where=neg)
        top = np.max(np.where((rows <= hi) & ~neg, rows, 0), axis=0,
                     initial=0)
        moved = top != hi
        hi = top
        lo = np.max(np.where((rows <= hi) & neg, rows, 0), axis=0, initial=0)
        counts = np.bincount(hi, minlength=n)[::-1]
        if moved.any() or counts[-1]:
            its[moved] = 0
            wrong = np.flatnonzero(hi != np.repeat(windows, counts))
            src = wrong[np.argsort(-hi[wrong], kind="stable")]
            flat[:, wrong] = flat[:, src]
            hi[wrong], lo[wrong], its[wrong], lane[wrong] = \
                hi[src], lo[src], its[src], lane[src]
            m, done = m - counts[-1], m
            radii[lane[m:done]] = np.abs(diag[:, m:done]).max(axis=0)
            hi, lo, its = hi[:m], lo[:m], its[:m]
        if (its >= 30 * n).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        start = 0
        for h, count in zip(windows[:-1], counts[:-1]):
            if count:
                part = slice(start, start + count)
                _sweep(H[:h + 1, :h + 1, part], lo[part], its[part])
            start += count
        its += 1
    return np.ldexp(radii, exponent)


def _spectral_radii(R) -> np.ndarray:
    """max |eigenvalue| of each matrix of a (..., n, n) stack, real or
    complex; inf for a matrix with a non-finite entry.  Chunks of
    `_RADII_CHUNK` matrices are reduced to Hessenberg form and iterated by
    shifted QR as in LAPACK's zlahqr (its deflation test, Wilkinson and
    exceptional shifts, and LinAlgError after 30 n sweeps without a
    deflation), so a radius agrees with `np.linalg.eigvals`' to rounding."""
    R = np.asarray(R)
    n = R.shape[-1]
    stack = R.reshape(-1, n, n)
    radii = np.full(len(stack), np.inf)
    for start in range(0, len(stack), _RADII_CHUNK):
        chunk = stack[start:start + _RADII_CHUNK]
        finite = np.flatnonzero(np.isfinite(chunk).all(axis=(1, 2)))
        if finite.size:
            H = chunk[finite].transpose(1, 2, 0).astype(np.complex128,
                                                        order="C")
            radii[start + finite] = _chunk_radii(H)
    return radii.reshape(R.shape[:-2])


_POWER_BLOCK = 64          # powers advanced per product in the power check
_LAST_POWER = 10_001       # the power check covers M^2 .. M^_LAST_POWER


def power_bounded_classification(M: np.ndarray) -> str:
    """Classify a square matrix by spectral radius; near radius 1 also check
    every power M^2..M^10001 as a defective-eigenvalue surrogate (max-norm
    must stay within 10x that of M).  The powers are advanced 64 at a time:
    the stack M^1..M^64 times M^64 per block.  The radius comes from the
    batched `_spectral_radii`: about 1.3 ms for one 5x5 matrix, against
    about 12 us for `np.linalg.eigvals`, so a caller with many matrices
    should take their radii as one stack."""
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError("need a non-empty square matrix, got shape %s"
                         % (M.shape,))
    if not np.isfinite(M).all():
        raise ValueError("M must be finite")
    try:
        radius = float(_spectral_radii(M))
    except np.linalg.LinAlgError:
        warnings.warn("eigenvalue computation failed; classifying marginal")
        return "marginal"
    label = str(_classify(radius))
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
    return label


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
    if len(resolution) != 2 or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool)
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
    R = _probe(method, k1[:, None], k2[None, :], angle)
    absR = _spectral_radii(R) if method.block \
        else np.where(np.isfinite(R), np.abs(R), np.inf)
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
