"""Fourier pseudo-spectral problems and their stabilizing modifications.

Spectra use the unnormalized-forward convention (inverse carries 1/Nx) and
wavenumber ordering k_j = dk * (0, 1, .., Nx/2, -Nx/2+1, .., -1): the Nyquist
slot holds +Nx/2.  Quadratic products are dealiased by the 3/2 rule, which is
exactly alias-free for the retained band under this ordering (the only alias,
Nyquist^2, lands on -Nx/2 of the padded grid and is dropped on truncation).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .integrators import DiagonalProblem

__all__ = [
    "PeriodicGrid", "RepartitionSpec", "HyperviscositySpec", "build_zds",
    "build_kdv", "dealiased_product", "repartition_shift", "parse_angle",
    "parse_modification", "REPARTITION_KINDS", "spectral_radius_fraction",
    "write_spectrum", "read_spectrum",
]


def _require_power_of_two(nx: int, minimum: int) -> int:
    nx = int(nx)
    if nx < minimum or nx & (nx - 1) != 0:
        raise ValueError("Nx must be a power of two >= %d" % minimum)
    return nx


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid on [a, b) with Nx points."""
    nx: int
    a: float
    b: float

    def __post_init__(self):
        _require_power_of_two(self.nx, 8)
        if not self.b > self.a:
            raise ValueError("need b > a")

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


class _Dealias:
    """3/2-rule pad/truncate machinery with the wavenumber-slot mapping.

    Products are evaluated on a 3/2-size grid (alias-free), and results are
    restricted to the retained band |j| <= floor((2/3)(nx/2)): modes above
    the two-thirds cutoff carry no nonlinear forcing, so the highest third of
    the spectrum stays dynamically inert.  Spectra lie along the last axis;
    leading axes (the rows of a batch) are transformed independently."""

    def __init__(self, nx: int):
        self.nx = nx
        self.m = (3 * nx) // 2
        self.half = nx // 2
        self._fwd = nx / self.m
        self._inv = self.m / nx
        j = np.minimum(np.arange(nx), nx - np.arange(nx))
        self.band = j <= (2 * self.half) // 3
        # last-axis slots of the nx modes on the padded grid, built once:
        # these run on every N call, where a per-call slice costs ~3%
        h = self.half
        self._low = (Ellipsis, slice(0, h + 1))
        self._high_in = (Ellipsis, slice(h + 1, None))
        self._high_out = (Ellipsis, slice(self.m - (h - 1), None))
        self._slots = np.r_[0:h + 1, self.m - (h - 1):self.m]

    def pad(self, u_hat: np.ndarray) -> np.ndarray:
        out = np.zeros(u_hat.shape[:-1] + (self.m,), dtype=np.complex128)
        out[self._low] = u_hat[self._low]
        out[self._high_out] = u_hat[self._high_in]
        return out

    def to_phys(self, u_hat: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self.pad(u_hat), axis=-1) * self._inv

    def from_phys(self, w: np.ndarray) -> np.ndarray:
        wh = np.fft.fft(w, axis=-1) * self._fwd
        return wh.take(self._slots, axis=-1) * self.band


@functools.lru_cache(maxsize=None)
def _dealias_for(nx: int) -> _Dealias:
    return _Dealias(nx)


def dealiased_product(grid: PeriodicGrid, u_hat: np.ndarray,
                      v_hat: np.ndarray) -> np.ndarray:
    """Spectrum of the pointwise product u*v: exact convolution on the
    retained two-thirds band, zero above it."""
    d = _dealias_for(grid.nx)
    return d.from_phys(d.to_phys(u_hat) * d.to_phys(v_hat))


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

    def nonlinear(t, u_hat):
        up = d.to_phys(u_hat)
        return 2j * d.from_phys(up * np.conj(up) * up)

    u0 = np.zeros(nx, dtype=np.complex128)
    u0[0] = nx * 1.0
    u0[round(0.75 / grid.dk)] = nx * 0.01
    return DiagonalProblem(L, nonlinear, grid, "zds"), u0


def build_kdv(nx: int = 512, delta: float = 0.022
              ) -> tuple[DiagonalProblem, np.ndarray]:
    """Korteweg-de Vries with small dispersion on [0, 2):

        u_t = -delta u_xxx - (1/2)(u^2)_x,   u(x, 0) = cos(pi x)

    L = i delta k^3;  N = -(i k / 2) * dealiased_square(u).
    """
    nx = _require_power_of_two(nx, 32)
    if not delta > 0:
        raise ValueError("delta must be positive")
    grid = PeriodicGrid(nx=nx, a=0.0, b=2.0)
    k = grid.wavenumbers
    L = 1j * delta * k ** 3
    d = _dealias_for(nx)
    halfik = -0.5j * k

    def nonlinear(t, u_hat):
        up = d.to_phys(u_hat)
        return halfik * d.from_phys(up * up)

    u0 = np.zeros(nx, dtype=np.complex128)
    u0[1] = 0.5 * nx
    u0[-1] = 0.5 * nx
    return DiagonalProblem(L, nonlinear, grid, "kdv"), u0


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

    A raw eps may be supplied for any kind (overrides the rho-derived value).
    """
    kind: str
    rho: Optional[float] = None
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.kind not in REPARTITION_KINDS:
            raise ValueError("unknown repartition kind: %r" % (self.kind,))
        if self.epsilon is None:
            if self.rho is None:
                raise ValueError("repartition needs rho or a raw epsilon")
            if self.kind == "identity":
                raise ValueError("identity repartition needs a raw epsilon")
            if not 0.0 <= self.rho < math.pi / 2:
                raise ValueError("rho must lie in [0, pi/2)")
        elif self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

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
    """Add artificial dissipation -(dt)^(q+1) * gamma * k^m to L (this
    changes the equation, unlike repartitioning)."""
    m: int
    gamma: float
    q: int = 4

    def __post_init__(self):
        if self.m not in (4, 6, 8):
            raise ValueError("hyperviscosity power m must be 4, 6 or 8")
        if not self.gamma >= 0:
            raise ValueError("gamma must be >= 0")

    def describe(self) -> str:
        s = "hyperviscosity:m=%d:gamma=%.17g" % (self.m, self.gamma)
        return s if self.q == 4 else s + ":q=%d" % self.q

    def diagonals(self, problem: DiagonalProblem, dt: float) -> tuple:
        """dL = -damp; N is unchanged."""
        if not dt > 0:
            raise ValueError("dt must be positive")
        if problem.grid is None:
            raise ValueError("hyperviscosity needs the problem grid")
        k = problem.grid.wavenumbers
        return -((dt ** (self.q + 1)) * self.gamma * k ** self.m), None


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


# field names of each modification kind, in positional order
_FIELDS = {"hyperviscosity": ("m", "gamma", "q"), "identity": ("eps", "rho")}
_CASTS = {"m": int, "gamma": float, "q": int, "eps": float, "rho": parse_angle}


def parse_modification(s: str):
    """Inverse of `describe()`: 'none' is None, otherwise 'kind:field:..'
    with keyed fields ('rho=pi/64', 'eps=8', 'm=8', 'gamma=1e10', 'q=3') or
    bare ones named by position: 'hyperviscosity:m:gamma[:q]',
    'identity:eps' and 'abs_k3:rho' / 'k2:rho'."""
    s = s.strip()
    if s == "none":
        return None
    kind, *fields = s.split(":")
    names = _FIELDS.get(kind, ("rho", "eps"))
    fields = [f for f in fields if f]
    if len(fields) > len(names):
        raise ValueError("too many fields in %r" % (s,))
    vals = {}
    for name, field in zip(names, fields):
        key, _, val = field.rpartition("=")
        if key and key not in names:
            raise ValueError("unknown field %r in %r" % (key, s))
        vals[key or name] = _CASTS[key or name](val)
    if kind != "hyperviscosity":
        return RepartitionSpec(kind, rho=vals.get("rho"),
                               epsilon=vals.get("eps"))
    if "m" not in vals or "gamma" not in vals:
        raise ValueError("hyperviscosity needs m and gamma (m:gamma)")
    return HyperviscositySpec(**vals)


def spectral_radius_fraction(L_diag: np.ndarray, h: float,
                             fraction: float) -> float:
    """max |h * L| over the modes whose index magnitude is within the given
    fraction of Nyquist (transform ordering assumed)."""
    L = np.asarray(L_diag)
    if L.ndim != 1 or L.size == 0:
        raise ValueError("empty operator diagonal")
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    if not h > 0:
        raise ValueError("h must be positive")
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
    """Inverse of write_spectrum; a truncated file raises ValueError."""
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
    return meta, u
