"""Fourier pseudo-spectral problems and their stabilizing modifications.

Spectra use the unnormalized-forward convention (inverse carries 1/Nx) and
wavenumber ordering k_j = dk * (0, 1, .., Nx/2, -Nx/2+1, .., -1): the Nyquist
slot holds +Nx/2.  Nonlinear terms are kept to the retained two-thirds band
|j| <= B = floor((2/3)(Nx/2)), and products are formed alias-free on it in
one of two ways.

A complex field (ZDS, and `dealiased_product`) goes through full complex
transforms on the 3/2-size grid, which is exactly alias-free for the retained
band whatever the input spectrum (the only alias, Nyquist^2, lands on -Nx/2
of the padded grid and is dropped on truncation).  A real field (KdV) has a
Hermitian spectrum, u_hat(-k) = conj(u_hat(k)), so its square is formed from
modes 0..B alone, with real-input transforms on the Nx-point grid itself:
3B < Nx, so the square of a field confined to the band folds no mode onto the
band (Orszag's 2/3 rule).  The result keeps modes 0..B; a caller that
passed all Nx modes gets them back, the negative ones the exact conjugate
mirror of the nonnegative ones.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import DiagonalProblem, _expand

__all__ = [
    "PeriodicGrid", "RepartitionSpec", "HyperviscositySpec", "build_zds",
    "build_kdv", "dealiased_product", "repartition_shift", "parse_angle",
    "parse_modification", "REPARTITION_KINDS", "spectral_radius_fraction",
    "write_spectrum", "read_spectrum", "KDV_DELTA", "HYPERVISCOSITY_POWER",
]

KDV_DELTA = 0.022           # build_kdv's dispersion coefficient on u_xxx
HYPERVISCOSITY_POWER = 4    # the power of dt in the hyperviscosity damping


def _require_power_of_two(nx: int, minimum: int) -> int:
    n = int(nx) if float(nx).is_integer() else 0    # not whole: refused
    if n < minimum or n & (n - 1) != 0:
        raise ValueError("Nx must be a power of two >= %d" % minimum)
    return n


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [a, b) with Nx points."""
    nx: int
    a: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "nx", _require_power_of_two(self.nx, 8))
        if not (self.b > self.a and math.isfinite(self.b - self.a)):
            raise ValueError("need b > a, both finite")

    @property
    def dk(self) -> float:
        return 2.0 * math.pi / (self.b - self.a)

    @property
    def x(self) -> np.ndarray:
        return self.a + (self.b - self.a) * np.arange(self.nx) / self.nx

    @property
    def wavenumbers(self) -> np.ndarray:
        n = self.nx
        j = np.concatenate([np.arange(0, n // 2 + 1), np.arange(-n // 2 + 1, 0)])
        return self.dk * j


@functools.cache
def _pocketfft():
    """NumPy's pocketfft gufunc module, bound on the first transform: in
    NumPy 2.x `numpy.fft` is a lazy submodule, and importing it on first use
    keeps it out of a process that only builds problems."""
    from numpy.fft import _pocketfft_umath
    return _pocketfft_umath


class _Dealias:
    """The retained band |j| <= B = floor((2/3)(nx/2)) of an nx-mode
    spectrum, with two alias-free ways to form products on it.

    The complex pair pads to the 3/2-size grid, which makes a quadratic
    product exact on the band for any input spectrum; the real pair works on
    the nx-point grid itself and reads only the band of its input.  Results
    are restricted to the band: modes above the two-thirds cutoff carry no
    nonlinear forcing, so the highest third of the spectrum stays
    dynamically inert.  Spectra lie along the last axis; leading axes (the
    rows of a batch) are transformed independently."""

    def __init__(self, nx: int):
        self.nx = nx
        self.m = (3 * nx) // 2
        self.half = nx // 2
        j = np.minimum(np.arange(nx), nx - np.arange(nx))
        self.cut = cut = (2 * self.half) // 3
        self.band = j <= cut
        # last-axis slots of the nx modes on the padded grid, built once:
        # these run on every N call, where a per-call slice costs ~3%
        h = self.half
        self._low = (Ellipsis, slice(0, h + 1))
        self._high_in = (Ellipsis, slice(h + 1, None))
        self._high_out = (Ellipsis, slice(self.m - (h - 1), None))
        self._slots = np.r_[0:h + 1, self.m - (h - 1):self.m]
        # the real pair: modes 0..B in and out
        self._band_low = (Ellipsis, slice(0, cut + 1))

    def pad(self, u_hat: np.ndarray) -> np.ndarray:
        out = np.zeros(u_hat.shape[:-1] + (self.m,), dtype=np.complex128)
        out[self._low] = u_hat[self._low]
        out[self._high_out] = u_hat[self._high_in]
        return out

    # Both transforms call the pocketfft gufuncs that np.fft.ifft/fft end
    # in, without np.fft's per-call Python set-up, which costs more than the
    # transform at these sizes.  Each passes the whole 3/2-rule scale as the
    # gufunc's factor, which pocketfft applies inside the transform: 1/nx
    # for the inverse (1/m of the padded-grid transform times m/nx), and
    # nx/m for the forward one.  Each overwrites its own input, the inverse
    # its padded copy and the forward one the caller's temporary product.
    # The forward transform then keeps its nx retained slots and multiplies
    # them once by `weight`: the band mask (dealiased_product), or a
    # caller's precomputed mask times its own factor, so that N scales,
    # masks and weights its output in one product.
    def to_phys(self, u_hat: np.ndarray) -> np.ndarray:
        p = self.pad(u_hat)
        return _pocketfft().ifft(p, 1.0 / self.nx, out=p)

    def from_phys(self, w: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Retained spectrum of w times `weight`, an array over the nx
        slots (`band` for the plain dealiased spectrum).  w is overwritten."""
        wh = _pocketfft().fft(w, self.nx / self.m, out=w)
        wh = wh.take(self._slots, axis=-1)
        wh *= weight
        return wh

    # The real pair, for a real field (KdV's u), calls the gufuncs that
    # np.fft.irfft/rfft end in, on the nx-point grid with np.fft's default
    # factors, 1/nx and 1.  The inverse is handed modes 0..B alone: the
    # gufunc reads a short input as zero-padded to the nx // 2 + 1 modes,
    # so the field is that of P_B u, where P_B keeps the band, and nothing
    # above the band, nor the negative half, is read; u_hat may hold all nx
    # modes or only 0..B.  Precondition: u_hat is Hermitian on the band.
    def to_phys_real(self, u_hat: np.ndarray) -> np.ndarray:
        """The real field of P_B u_hat on the nx-point grid."""
        return _pocketfft().irfft(u_hat[self._band_low], 1.0 / self.nx,
                                  out=np.empty(u_hat.shape[:-1] + (self.nx,)))

    def from_phys_real(self, w: np.ndarray, weight: np.ndarray
                       ) -> np.ndarray:
        """Modes 0..B of a real nx-point field w, times `weight` over those
        B + 1 slots, as a (..., B + 1) array: the rest of the spectrum of a
        band-limited result is their conjugate mirror and zeros."""
        low = _pocketfft().rfft_n_even(w, 1.0, out=np.empty(
            w.shape[:-1] + (self.half + 1,), dtype=np.complex128))
        return low[self._band_low] * weight


@functools.lru_cache(maxsize=None)
def _dealias_for(nx: int) -> _Dealias:
    return _Dealias(nx)


def dealiased_product(grid: PeriodicGrid, u_hat: np.ndarray,
                      v_hat: np.ndarray) -> np.ndarray:
    """Spectrum of the pointwise product u*v: exact convolution on the
    retained two-thirds band, zero above it."""
    if np.shape(u_hat)[-1:] != (grid.nx,) or np.shape(v_hat)[-1:] != (grid.nx,):
        raise ValueError("dealiased_product needs spectra of grid.nx = %d "
                         "modes along the last axis, got shapes %s and %s"
                         % (grid.nx, np.shape(u_hat), np.shape(v_hat)))
    d = _dealias_for(grid.nx)
    return d.from_phys(d.to_phys(u_hat) * d.to_phys(v_hat), d.band)


def build_zds(nx: int = 128) -> tuple[DiagonalProblem, np.ndarray]:
    """Cubic-nonlinearity dispersive problem on [-4pi, 4pi):

        u_t = -u_xxx + 2i |u|^2 u,   u(x, 0) = 1 + (1/100) e^{3ix/4}

    L = i k^3; the cubic term is evaluated in one physical-space pass on the
    3/2-size grid.  Spectra are confined to the two-thirds band B, and the
    cubic bandwidth 3B stays clear of the retained band after folding on the
    3/2-size grid (3B - M < -B), so the product is exact there.
    """
    nx = _require_power_of_two(nx, 32)
    grid = PeriodicGrid(nx=nx, a=-4.0 * math.pi, b=4.0 * math.pi)
    k = grid.wavenumbers
    L = 1j * k ** 3
    d = _dealias_for(nx)
    weight = 2j * d.band

    def nonlinear(t, u_hat):
        up = d.to_phys(u_hat)
        cube = up * np.conj(up)
        cube *= up
        return d.from_phys(cube, weight)

    u0 = np.zeros(nx, dtype=np.complex128)
    u0[0] = nx * 1.0
    u0[round(0.75 / grid.dk)] = nx * 0.01
    return DiagonalProblem(L, nonlinear, grid), u0


def build_kdv(nx: int = 512) -> tuple[DiagonalProblem, np.ndarray]:
    """Korteweg-de Vries with small dispersion on [0, 2):

        u_t = -delta u_xxx - (1/2)(u^2)_x,   u(x, 0) = cos(pi x)

    with delta = KDV_DELTA.  L = i delta k^3;  N = -(i k / 2) P_B (P_B u)^2,
    where P_B keeps the retained two-thirds band |j| <= B.  u is real, so N
    squares it on the real-field path of the Nx-point grid: it reads modes
    0..B of its input and returns the layout it is given, modes 0..B for a
    (..., B + 1) input and the exactly Hermitian spectrum, zero above the
    band, for a full one.  Every state a stepper reaches from u0 is
    confined to the band (N's output is, and L and every modification are
    diagonal), so there P_B u = u and N is the exactly dealiased
    -(i k / 2) (u^2): on the band, 3B < Nx keeps the square free of aliases
    without padding.  The problem's `band` is B + 1: `integrate_many` steps
    modes 0..B alone, from a u0 that must be their Hermitian expansion, and
    expands what it returns to Nx modes.
    """
    nx = _require_power_of_two(nx, 32)
    grid = PeriodicGrid(nx=nx, a=0.0, b=2.0)
    k = grid.wavenumbers
    L = 1j * KDV_DELTA * k ** 3
    d = _dealias_for(nx)
    band = d.cut + 1
    weight = -0.5j * k[:band]

    def nonlinear(t, u_hat):
        up = d.to_phys_real(u_hat)
        up *= up
        out = d.from_phys_real(up, weight)
        return out if u_hat.shape[-1] == band else _expand(out, nx)

    u0 = np.zeros(nx, dtype=np.complex128)
    u0[1] = 0.5 * nx
    u0[-1] = 0.5 * nx
    return DiagonalProblem(L, nonlinear, grid, band), u0


# --- stabilizing modifications ------------------------------------------------
# A modification is one pair of diagonals: `spec.diagonals(problem, dt)` is
# (dL, dN), and the problem stepped is y' = (L + dL) y + N(t, y) - dN*y (dN
# None: N unchanged), which `integrators.with_diagonals` builds; runs that
# share a step size stack these pairs row by row (`integrate_many`).

REPARTITION_KINDS = ("abs_k3", "k2", "identity")


@dataclass(frozen=True)
class RepartitionSpec:
    """Move a negative-definite diagonal D from the explicit to the
    exponential side: L^ = L + eps*D, N^ = N - eps*D*u (same equation).

    kind 'abs_k3':  D = -|L_diag| (modulus of the dispersion eigenvalues),
                    eps = tan(rho) -> every eigenvalue rotated by rho.
    kind 'k2':      D = -k^2, eps = tan(rho) / k*^2 where k* is the
                    wavenumber with |L(k*)| = 1: the unit-modulus eigenvalue
                    is rotated by exactly rho, smaller ones are over-rotated
                    (harmless: their step arguments are tiny) and larger
                    ones under-rotated, so comparable damping of the top
                    modes needs a larger rho than 'abs_k3'.
    kind 'identity': D = -1, eps given directly.

    Exactly one of rho and a raw eps is given (identity takes eps only).
    """
    kind: str
    rho: Optional[float] = None
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.kind not in REPARTITION_KINDS:
            raise ValueError("unknown repartition kind: %r" % (self.kind,))
        if (self.rho is None) == (self.epsilon is None):
            raise ValueError("repartition needs exactly one of rho and a raw "
                             "epsilon")
        if self.epsilon is not None:
            if not 0.0 <= self.epsilon < math.inf:
                raise ValueError("epsilon must be finite and >= 0")
        elif self.kind == "identity":
            raise ValueError("identity repartition needs a raw epsilon")
        elif not 0.0 <= self.rho < math.pi / 2:
            raise ValueError("rho must lie in [0, pi/2)")

    def describe(self) -> str:
        if self.epsilon is not None:
            return "%s:eps=%.17g" % (self.kind, self.epsilon)
        return "%s:rho=%.17g" % (self.kind, self.rho)

    def diagonals(self, problem: DiagonalProblem, dt: float) -> tuple:
        """dL = dN = the repartition shift: the same equation, so `dt` is
        unused."""
        shift = repartition_shift(problem.L_diag, self, problem.grid)
        return shift, shift


def _unit_modulus_wavenumber(L: np.ndarray, grid: PeriodicGrid) -> float:
    """Wavenumber magnitude at which |L| crosses 1, by log-log interpolation
    over the grid's modes (clamped to the grid's |L| range)."""
    kk = np.abs(grid.wavenumbers)
    aL = np.abs(np.asarray(L))
    keep = (kk > 0) & (aL > 0)
    if not np.any(keep):
        raise ValueError("k2 repartition needs a nonzero dispersive operator")
    order = np.argsort(aL[keep])
    log_kstar = np.interp(0.0, np.log(aL[keep][order]), np.log(kk[keep][order]))
    return float(math.exp(log_kstar))


def repartition_shift(L: np.ndarray, spec: RepartitionSpec,
                      grid: Optional[PeriodicGrid] = None) -> np.ndarray:
    """The diagonal eps*D that `spec` moves into the linear slot of an
    operator with diagonal L ('k2' also needs the operator's grid)."""
    if spec.kind == "abs_k3":
        D = -np.abs(L)
        eps = spec.epsilon if spec.epsilon is not None else math.tan(spec.rho)
    elif spec.kind == "k2":
        if grid is None:
            raise ValueError("k2 repartition needs the problem grid")
        D = -grid.wavenumbers ** 2
        if spec.epsilon is not None:
            eps = spec.epsilon
        else:
            eps = math.tan(spec.rho) / _unit_modulus_wavenumber(L, grid) ** 2
    else:
        D = -np.ones_like(L, dtype=np.float64)
        eps = spec.epsilon
    return eps * D


@dataclass(frozen=True)
class HyperviscositySpec:
    """Add the artificial dissipation

        dL = -dt^HYPERVISCOSITY_POWER * gamma * (k / k_cut)^m

    to L, where k_cut = B dk is the edge of the retained two-thirds band
    (10.5 on ZDS-128).  Unlike repartitioning, this changes the equation,
    and the power of dt bounds the change: at every mode the band retains,
    |dL| <= dt^4 gamma, so the damped equation differs from the true one by
    O(dt^4) and a fourth-order method run on it still converges at order 4
    to the undamped solution.  On a coarse step the same term damps the top
    of the band, where a dispersive |dt L| is largest, by exp(-dt^5 gamma)
    per step at the band's edge.  Measuring k in units of k_cut makes each
    mode's damping depend only on its place in the band, so one gamma means
    the same on any domain and at any Nx."""
    m: int
    gamma: float

    def __post_init__(self):
        if self.m not in (4, 6, 8):
            raise ValueError("hyperviscosity power m must be 4, 6 or 8")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError("gamma must be finite and >= 0")

    def describe(self) -> str:
        return "hyperviscosity:m=%d:gamma=%.17g" % (self.m, self.gamma)

    def diagonals(self, problem: DiagonalProblem, dt: float) -> tuple:
        """dL = -damp; N is unchanged."""
        if not dt > 0:
            raise ValueError("dt must be positive")
        if problem.grid is None:
            raise ValueError("hyperviscosity needs the problem grid")
        grid = problem.grid
        k = grid.wavenumbers / (_dealias_for(grid.nx).cut * grid.dk)
        return -((dt ** HYPERVISCOSITY_POWER) * self.gamma * k ** self.m), None


def parse_angle(s: str) -> float:
    """'pi', 'pi/<divisor>' or a plain float."""
    head, slash, div = s.strip().partition("/")
    try:
        if head == "pi":
            return math.pi / float(div) if slash else math.pi
        if not slash:
            return float(head)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError("cannot parse angle: %r" % (s,))


_CASTS = {"m": int, "gamma": float, "eps": float, "rho": parse_angle}


def parse_modification(s: str):
    """Inverse of `describe()`, and the one spelling of a modification:
    'none' is None, anything else 'kind:key=value[:key=value]' with each
    field keyed and given once: 'abs_k3:rho=pi/64', 'k2:eps=0.5' (rho or
    eps), 'identity:eps=8' or 'hyperviscosity:m=8:gamma=1e10'."""
    s = s.strip()
    if s == "none":
        return None
    kind, *fields = s.split(":")
    if kind not in REPARTITION_KINDS + ("hyperviscosity",):
        raise ValueError("unknown modification kind %r in %r" % (kind, s))
    names = ("m", "gamma") if kind == "hyperviscosity" else ("rho", "eps")
    vals = {}
    for field in fields:
        key, eq, val = field.partition("=")
        if not eq:
            raise ValueError("field %r in %r is not key=value" % (field, s))
        if key not in names:
            raise ValueError("unknown field %r in %r" % (key, s))
        if key in vals:
            raise ValueError("field %r given twice in %r" % (key, s))
        vals[key] = _CASTS[key](val)
    if kind != "hyperviscosity":
        return RepartitionSpec(kind, rho=vals.get("rho"),
                               epsilon=vals.get("eps"))
    if "m" not in vals or "gamma" not in vals:
        raise ValueError("hyperviscosity needs m and gamma: %r" % (s,))
    return HyperviscositySpec(**vals)


def spectral_radius_fraction(L_diag: np.ndarray, h: float,
                             fraction: float) -> float:
    """max |h * L| over the modes whose index magnitude is within the given
    fraction of Nyquist (transform ordering assumed)."""
    L = np.asarray(L_diag)
    if L.ndim != 1 or L.size == 0:
        raise ValueError("empty operator diagonal")
    if not np.all(np.isfinite(L)):
        raise ValueError("operator diagonal is not finite")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    n = L.size
    j = np.arange(n)
    jabs = np.minimum(j, n - j)
    jmax = math.floor(fraction * (n // 2))
    return float(np.max(np.abs(h * L[jabs <= jmax])))


# --- spectrum snapshots ---------------------------------------------------------

_SNAP_MAGIC = "# expstab-spectrum v1"


def write_spectrum(path, problem_name: str, t: float, u_hat: np.ndarray,
                   status: str = "ok") -> None:
    """One header line, then Nx 're,im' rows at 17 significant digits
    (lossless float64 round trip), LF line endings."""
    u = np.asarray(u_hat, dtype=np.complex128)
    header = "%s problem=%s Nx=%d t=%.17g" % (_SNAP_MAGIC, problem_name, u.size, t)
    if status != "ok":
        header += " status=%s" % status
    lines = [header]
    lines.extend("%.17g,%.17g" % (c.real, c.imag) for c in u)
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def read_spectrum(path) -> tuple[dict, np.ndarray]:
    """Inverse of write_spectrum; a truncated file, a negative Nx or rows
    beyond Nx raise ValueError."""
    with open(path, "r") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(_SNAP_MAGIC):
            raise ValueError("not a spectrum snapshot: %r" % (path,))
        meta = {}
        for tok in header[len(_SNAP_MAGIC):].split():
            key, _, val = tok.partition("=")
            meta[key] = val
        if not {"Nx", "t"} <= meta.keys():
            raise ValueError("truncated spectrum snapshot %s: header lacks "
                             "Nx or t" % (path,))
        nx = int(meta["Nx"])
        if nx < 0:
            raise ValueError("spectrum snapshot %s: header Nx=%d is negative"
                             % (path, nx))
        meta["Nx"] = nx
        meta["t"] = float(meta["t"])
        u = np.empty(nx, dtype=np.complex128)
        for i in range(nx):
            row = f.readline()
            if not row.endswith("\n"):
                raise ValueError("truncated spectrum snapshot %s: expected %d "
                                 "rows, found %d complete" % (path, nx, i))
            re_s, _, im_s = row.partition(",")
            u[i] = complex(float(re_s), float(im_s))
        if f.readline():
            raise ValueError("spectrum snapshot %s has rows beyond its Nx=%d"
                             % (path, nx))
    return meta, u
