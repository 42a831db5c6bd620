"""Time steppers for semilinear diagonal problems y' = L y + N(t, y).

Every stepper, step(problem, t, y, h), maps (t, y) to the y one step later,
elementwise on a diagonal L (spectral operators or flattened stability
grids) for both uses.  Leading axes broadcast: a stack of runs that share h
steps as one (R, n) state with an (R, n) L (`integrate_many`).

  erk4      4-stage exponential Runge-Kutta (Krogstad), order 4
  esdc6     exponential spectral deferred correction, 4 Lobatto nodes,
            exponential-Euler predictor + 6 sweeps, order 6
  epbm5     5-node exponential polynomial block method, two-pass composite,
            order 5
  imrk4     6-stage additive (implicit/explicit) Runge-Kutta, order 4;
            L treated implicitly (diagonal solves), N explicitly
  rk4       classical Runge-Kutta on the unsplit right-hand side
  exp_euler first-order exponential Euler

The phi combinations of a step depend on (L, h) alone, so the steppers fold
them into coefficient arrays built on the first step of each h and memoized
on the problem's `phis`, the PhiCache of its own L_diag that every
DiagonalProblem carries (its one memo; the tables are not kept): exponential
Euler's phi_0 and h*phi_1; ERK4's Krogstad weights; ESDC6's per-substep
phi_0 and h_j*phi_1, and its quadrature weights folded into the phi_k as
one (3, 4, ...) stack, so that four products with the node values give a
sweep's three quadratures; EPBM5's phi_k and r*eta_j^k stacked over its
nodes, so that a pass combines them at once; IMRK4's stage denominator and
its tableau scaled by h as one stage matrix.  Exponential Euler, ERK4 and
EPBM5 combine each array as the per-step form combined it, and their
stacked products repeat the per-node ones elementwise, so they (and RK4)
step byte-identically to that form (tests/step_oracle.py keeps it).  Two
families regroup its sums, and so round differently: ESDC6 applies
sum_nu W_j[nu, l] phi_(nu+1) to each node value where the per-step form
applies W_j to the node values first and the phi_k after, and IMRK4 sums
each stage's couplings as one matrix-vector product where that form sums
them term by term.  Both agree with it to within 1e-14 of the state's
max-norm (tests/test_step_parity.py measures at most 1.1e-15 for ESDC6 and
1.5e-15 for IMRK4 over three steps).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .phicore import PhiCache

__all__ = [
    "DiagonalProblem", "MethodSpec", "METHODS", "make_method",
    "ESDCTableau", "EPBMTableau", "ButcherPair",
    "esdc_tableau", "epbm_tableau", "imrk_tableau",
    "step_erk4", "step_esdc6", "step_epbm5", "step_imrk4", "step_rk4",
    "step_exp_euler", "epbm_initialize", "with_diagonals", "integrate",
    "integrate_many", "IntegrationResult", "FAMILIES",
]

_STARTUP_SUBSTEPS = 200    # Krogstad substeps per EPBM5 startup node gap
_ESDC_SWEEPS = 6           # ESDC6 correction sweeps after its predictor


@dataclass
class DiagonalProblem:
    """y' = L_diag * y + nonlinear(t, y), with optional grid metadata.

    A `band` (KdV's B + 1) declares that states are Hermitian and carried by
    modes 0..band-1: every other mode is their conjugate mirror or zero.
    Such a problem's `nonlinear` returns the layout it is given, all Nx
    modes or the band's, and `integrate_many` steps the band alone.

    `phis`, made with the problem, is the PhiCache of its own L_diag: the
    memo of the phi coefficients every stepper reads.  It would not follow
    a new L_diag, so another operator is a new problem (`with_diagonals`)."""
    L_diag: np.ndarray
    nonlinear: Callable[[float, np.ndarray], np.ndarray]
    grid: object = None       # spectral.PeriodicGrid
    band: Optional[int] = None
    phis: PhiCache = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.phis = PhiCache(self.L_diag)


def _expand(y: np.ndarray, nx: int) -> np.ndarray:
    """The nx-mode Hermitian spectrum whose modes 0..b-1 are y's b modes:
    modes -(b-1)..-1 are their conjugates, and the rest zero."""
    b = y.shape[-1]
    out = np.zeros(y.shape[:-1] + (nx,), dtype=np.complex128)
    out[..., :b] = y
    np.conjugate(y[..., b - 1:0:-1], out=out[..., nx - b + 1:])
    return out


def with_diagonals(problem: DiagonalProblem, L_diag: np.ndarray,
                   dN: Optional[np.ndarray] = None) -> DiagonalProblem:
    """`problem` stepped with the linear diagonal L_diag and, unless dN is
    None, the nonlinearity N(t, y) - dN*y: the problem a modification with
    diagonals (dL, dN) steps, for one run or a stack of them."""
    if dN is None:
        return DiagonalProblem(L_diag, problem.nonlinear, problem.grid)
    base = problem.nonlinear

    def nonlinear(t, y):
        return base(t, y) - dN * y

    return DiagonalProblem(L_diag, nonlinear, problem.grid)


# --- tableaux ----------------------------------------------------------------

@dataclass(frozen=True)
class ESDCTableau:
    """Gauss-Lobatto(4) nodes on [0,1], substep lengths, and the quadrature
    weight matrices a^(nu)_{j,l} = (nu-1)! * V_j^{-1}[nu, l] mapping node
    values of N to the phi-expansion coefficients of
    int e^{(t_{j+1}-tau)L} N(tau) dtau on each substep."""
    nodes: np.ndarray         # (4,)
    delta: np.ndarray         # (3,) substep lengths, delta[0] == delta[2]
    weights: np.ndarray       # (3, 4, 4), weights[j][nu-1] are the phi_nu coeffs


def esdc_tableau() -> ESDCTableau:
    s5 = math.sqrt(5.0)
    nodes = np.array([0.0, 0.5 - s5 / 10.0, 0.5 + s5 / 10.0, 1.0])
    delta = np.diff(nodes)
    weights = np.empty((3, 4, 4))
    fact = np.array([math.factorial(nu) for nu in range(4)])
    for j in range(3):
        tau = (nodes - nodes[j]) / delta[j]
        V = np.vander(tau, 4, increasing=True)
        weights[j] = fact[:, None] * np.linalg.inv(V)
    for a in (nodes, delta, weights):
        a.setflags(write=False)
    return ESDCTableau(nodes=nodes, delta=delta, weights=weights)


@dataclass(frozen=True)
class EPBMTableau:
    """Block nodes z = (-1, -eta+, -eta-, eta-, eta+) and the 4x4 map taking
    N at nodes 2..5 to the scaled derivative coefficients v_1..v_4 of their
    interpolating polynomial expanded about node 1 (v_k = (k-1)! c_k)."""
    z: np.ndarray             # (5,)
    vmap: np.ndarray          # (4, 4), Vandermonde-derived


def epbm_tableau() -> EPBMTableau:
    etap = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
    etam = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
    z = np.array([-1.0, -etap, -etam, etam, etap])
    V = np.vander(z[1:] + 1.0, 4, increasing=True)
    fact = np.array([math.factorial(k) for k in range(4)])
    vmap = fact[:, None] * np.linalg.inv(V)
    z.setflags(write=False)
    vmap.setflags(write=False)
    return EPBMTableau(z=z, vmap=vmap)


@dataclass(frozen=True)
class ButcherPair:
    """Additive Runge-Kutta pair sharing nodes c and weights b."""
    A_implicit: np.ndarray    # (6, 6) lower triangular, ESDIRK with gamma=1/4
    A_explicit: np.ndarray    # (6, 6) strictly lower triangular
    b: np.ndarray             # (6,)
    c: np.ndarray             # (6,)

    @property
    def gamma(self) -> float:
        """The diagonal entry that implicit stages 2..6 share (stage 1 is
        explicit), so that one denominator serves every stage solve."""
        diag = np.diag(self.A_implicit)[1:]
        if np.any(diag != diag[0]):
            raise ValueError("implicit stages do not share one diagonal entry")
        return float(diag[0])


def imrk_tableau() -> ButcherPair:
    c = np.array([0.0, 1 / 2, 83 / 250, 31 / 50, 17 / 20, 1.0])
    b = np.array([82889 / 524892, 0.0, 15625 / 83664, 69875 / 102672,
                  -2260 / 8211, 1 / 4])
    AI = np.zeros((6, 6))
    AI[1, :2] = [1 / 4, 1 / 4]
    AI[2, :3] = [8611 / 62500, -1743 / 31250, 1 / 4]
    AI[3, :4] = [5012029 / 34652500, -654441 / 2922500, 174375 / 388108, 1 / 4]
    AI[4, :5] = [15267082809 / 155376265600, -71443401 / 120774400,
                 730878875 / 902184768, 2285395 / 8070912, 1 / 4]
    AI[5] = b
    AE = np.zeros((6, 6))
    AE[1, 0] = 1 / 2
    AE[2, :2] = [13861 / 62500, 6889 / 62500]
    AE[3, :3] = [-116923316275 / 2393684061468, -2731218467317 / 15368042101831,
                 9408046702089 / 11113171139209]
    AE[4, :4] = [-451086348788 / 2902428689909, -2682348792572 / 7519795681897,
                 12662868775082 / 11960479115383, 3355817975965 / 11060851509271]
    AE[5, :5] = [647845179188 / 3216320057751, 73281519250 / 8382639484533,
                 552539513391 / 3454668386233, 3354512671639 / 8306763924573,
                 4040 / 17871]
    for a in (AI, AE, b, c):
        a.setflags(write=False)
    return ButcherPair(A_implicit=AI, A_explicit=AE, b=b, c=c)


# each family's one tableau, read by its stepper and coefficient builder
_ESDC, _EPBM, _IMRK = esdc_tableau(), epbm_tableau(), imrk_tableau()


# --- steppers ----------------------------------------------------------------
# Every stepper takes (problem, t, y, h) and returns the new y (the block
# method's: its (5, n) node block).  A family's `_*_coefficients(phis, h)`
# runs on the first step of each h, through the memo `problem.phis`, and
# copies the table rows it keeps, so that no table outlives it.

def _exp_euler_coefficients(phis: PhiCache, h) -> tuple:
    values = phis.table(h).values
    return values[0].copy(), h * values[1]


def step_exp_euler(problem, t, y, h) -> np.ndarray:
    E, D = problem.phis.coefficients(_exp_euler_coefficients, h)
    return E * y + D * problem.nonlinear(t, y)


def _erk4_coefficients(phis: PhiCache, h) -> tuple:
    """e^(hL/2), e^(hL) and the Krogstad weights, each combined as the
    per-step form combined it, so the step is unchanged to the bit."""
    e2, p12, p22 = phis.table(0.5 * h).values[:3]
    e1, p1, p2, p3 = phis.table(h).values[:4]
    return (e2.copy(), e1.copy(), (0.5 * h) * p12, 0.5 * p12 - p22,
            p22.copy(), p1 - 2.0 * p2, 2.0 * p2, p1 - 3.0 * p2 + 4.0 * p3,
            2.0 * p2 - 4.0 * p3, -p2 + 4.0 * p3)


def step_erk4(problem, t, y, h) -> np.ndarray:
    """Krogstad exponential RK4; reduces to classical RK4 at L = 0."""
    N = problem.nonlinear
    e2, e1, a10, a20, a21, a30, a32, b0, b12, b3 = \
        problem.phis.coefficients(_erk4_coefficients, h)
    e2y, e1y = e2 * y, e1 * y

    K0 = N(t, y)
    Y1 = e2y + a10 * K0
    K1 = N(t + 0.5 * h, Y1)
    Y2 = e2y + h * (a20 * K0 + a21 * K1)
    K2 = N(t + 0.5 * h, Y2)
    Y3 = e1y + h * (a30 * K0 + a32 * K2)
    K3 = N(t + h, Y3)
    return e1y + h * (b0 * K0 + b12 * (K1 + K2) + b3 * K3)


def _esdc6_coefficients(phis: PhiCache, h) -> tuple:
    """Per substep j of length h_j: E_j = phi_0(h_j L), D_j = h_j phi_1(h_j
    L), and the quadrature weight stack Q (3, 4, *L.shape),

        Q[j, l] = h_j sum_nu W_j[nu, l] phi_(nu+1)(h_j L)  - [l == j] D_j,

    for j = 1, 2, so that G_j = sum_l Q[j, l] N_l (l over the four nodes) is
    substep j's quadrature of the old node values less D_j times its own
    old value.  Substep 0 subtracts nothing: its node-0 value is N(t0, y0)
    in every sweep, so its new and old values cancel exactly."""
    E, D, Q = [], [], []
    for j, d in enumerate(_ESDC.delta):
        hj = h * d
        v = phis.table(hj).values
        E.append(v[0].copy())
        D.append(hj * v[1])
        q = hj * np.tensordot(_ESDC.weights[j].T, v[1:5], axes=1)
        if j:
            q[j] -= D[j]
        Q.append(q)
    return E, D, np.stack(Q)


def _esdc6_quadratures(Nold, Q) -> np.ndarray:
    """G_j = sum_l Q[j, l] N_l for the three substeps j at once (shape (3,
    *N.shape)), accumulated in place: four products and no larger
    temporary, which matters on a stability grid's large node values."""
    G = Q[:, 0] * Nold[0]
    for l in range(1, 4):
        G += Q[:, l] * Nold[l]
    return G


def step_esdc6(problem, t0, y0, h) -> np.ndarray:
    """Exponential-Euler predictor over the three Lobatto substeps, then
    _ESDC_SWEEPS correction sweeps: 4 + 3 * 6 - 1 = 21 N calls, as the
    final sweep skips its unused node-3 value.  A sweep's substep j is
    Y_(j+1) = E_j Y_j + D_j N_j^new + G_j (substep 0: E_0 y0 + G_0)."""
    N = problem.nonlinear
    E, D, Q = problem.phis.coefficients(_esdc6_coefficients, h)
    tn = [t0 + h * eta for eta in _ESDC.nodes]
    e0y = E[0] * y0

    # exponential-Euler predictor along the substeps
    Nval = [N(t0, y0)]
    Y = e0y + D[0] * Nval[0]
    for j in (1, 2):
        Nval.append(N(tn[j], Y))
        Y = E[j] * Y + D[j] * Nval[j]
    Nval.append(N(tn[3], Y))

    for sweep in range(_ESDC_SWEEPS):
        G = _esdc6_quadratures(Nval, Q)
        Y = e0y + G[0]
        Nval = Nval[:1]
        for j in (1, 2):
            Nval.append(N(tn[j], Y))
            Y = E[j] * Y + D[j] * Nval[j] + G[j]
        if sweep < _ESDC_SWEEPS - 1:   # the final sweep's node-3 value is unused
            Nval.append(N(tn[3], Y))
    return Y


def _epbm5_coefficients(phis: PhiCache, r) -> list:
    """(E, P, c, zero) for the predictor pass (alpha = 1) and the corrector
    pass (alpha = 0), stacked over the five nodes j with eta_j = z_j +
    alpha + 1: E[j] = phi_0(r eta_j L), P[k-1][j] = phi_k(r eta_j L),
    c[k-1][j] = r eta_j^k, and `zero` the node at eta_j = 0, which is y_1
    itself."""
    shape = phis.L_diag.shape
    passes = []
    for alpha in (1.0, 0.0):
        E = np.ones((5,) + shape, dtype=np.complex128)
        P = np.zeros((4, 5) + shape, dtype=np.complex128)
        c = np.zeros((4, 5) + (1,) * len(shape), dtype=np.complex128)
        zero = None
        for j in range(5):
            eta = _EPBM.z[j] + alpha + 1.0
            if eta == 0.0:
                zero = j
                continue
            V = phis.table(r * eta).values
            E[j] = V[0]
            for k in range(1, 5):
                P[k - 1, j] = V[k]
                c[k - 1, j] = r * eta ** k
        passes.append((E, P, c, zero))
    return passes


def _epbm_derivatives(problem, block, t_base, r) -> np.ndarray:
    """v_1..v_4 from N at block nodes 2..5 (the node values die here)."""
    N = problem.nonlinear
    nvals = np.asarray([N(t_base + r * _EPBM.z[j], block[j])
                        for j in range(1, 5)])
    return (_EPBM.vmap @ nvals.reshape(4, -1)).reshape(nvals.shape)


def _epbm_pass(problem, block, t_base, r, E, P, c, zero) -> np.ndarray:
    """One interpolate-and-propagate pass over the five nodes at once."""
    v = _epbm_derivatives(problem, block, t_base, r)
    out = E * block[0]
    term = np.empty_like(out)   # one buffer: a grid's (5, n1, n2) is large
    for k in range(4):
        np.multiply(P[k], v[k], out=term)
        np.multiply(c[k], term, out=term)
        out += term
    if zero is not None:
        out[zero] = block[0]
    return out


def step_epbm5(problem, t, block, h) -> np.ndarray:
    """Two-pass composite step: predictor pass advances the block by h,
    corrector pass rebuilds it about the advanced node 1."""
    pred, corr = problem.phis.coefficients(_epbm5_coefficients, h)
    mid = _epbm_pass(problem, block, t, h, *pred)
    return _epbm_pass(problem, mid, t + h, h, *corr)


def _imrk4_coefficients(phis: PhiCache, h) -> tuple:
    """The stage denominator 1 - h gamma L (checked for singularity), the
    (6, 12) stage matrix C of h a_ij, whose columns interleave the implicit
    (L Y_j, column 2j) and explicit (N_j, column 2j+1) couplings, and the
    weights h b_i in the same interleaved order."""
    denom = 1.0 - (h * _IMRK.gamma) * phis.L_diag
    if np.any(denom == 0):
        raise ZeroDivisionError("implicit stage solve is singular")
    C = np.zeros((6, 12), dtype=np.complex128)
    C[:, 0::2] = h * np.tril(_IMRK.A_implicit, -1)
    C[:, 1::2] = h * _IMRK.A_explicit
    B = np.repeat(h * _IMRK.b, 2).astype(np.complex128)
    return denom, C, B


def step_imrk4(problem, t, y, h) -> np.ndarray:
    """Additive RK step: diagonal L solved implicitly, N explicit.  The
    implicit stages share the tableau's diagonal entry `gamma`, so
    one denominator 1 - h gamma L serves every stage (ZeroDivisionError
    where it vanishes).  L Y_j and N_j fill the rows of one (12, ...)
    buffer K as the stages produce them, so stage i's coupling sum is the
    one product C[i, :2i] @ K[:2i], and the update B @ K."""
    L = problem.L_diag
    N = problem.nonlinear
    denom, C, B = problem.phis.coefficients(_imrk4_coefficients, h)
    K = np.empty((12,) + y.shape, dtype=np.complex128)
    Kf = K.reshape(12, -1)
    np.multiply(L, y, out=K[0])
    K[1] = N(t, y)
    for i in range(1, 6):
        Yi = (C[i, :2 * i] @ Kf[:2 * i]).reshape(y.shape)
        Yi += y
        Yi /= denom
        np.multiply(L, Yi, out=K[2 * i])
        K[2 * i + 1] = N(t + _IMRK.c[i] * h, Yi)
    y1 = (B @ Kf).reshape(y.shape)
    y1 += y
    return y1


def step_rk4(problem, t, y, h) -> np.ndarray:
    L = problem.L_diag
    N = problem.nonlinear
    f = lambda tt, yy: L * yy + N(tt, yy)
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass(frozen=True)
class MethodSpec:
    """One method family: its stepper, whether it is the block method (a
    startup block, one extra composite step, node 1 lagging by one step),
    and its default k2 window for stability maps."""
    family: str
    step: Callable
    block: bool
    k2_band: float


METHODS = {spec.family: spec for spec in (
    MethodSpec("erk4", step_erk4, False, 12.0),
    MethodSpec("esdc6", step_esdc6, False, 25.0),
    MethodSpec("epbm5", step_epbm5, True, 4.0),
    MethodSpec("imrk4", step_imrk4, False, 12.0),
    MethodSpec("rk4", step_rk4, False, 12.0),
    MethodSpec("exp_euler", step_exp_euler, False, 12.0),
)}
FAMILIES = tuple(METHODS)


def make_method(family: str) -> MethodSpec:
    if family not in METHODS:
        raise ValueError("unknown method family: %r" % (family,))
    return METHODS[family]


# --- block startup and the driving loop --------------------------------------

def epbm_initialize(problem, y0: np.ndarray, t0: float,
                    r: float) -> np.ndarray:
    """Fill the 5-node startup block by exponential (Krogstad) sub-stepping
    of the problem itself, _STARTUP_SUBSTEPS steps per span: node 1 (t0 - r)
    backward from y0 (negative steps), then each node gap forward.
    Exponential sub-stepping keeps the startup stable for arbitrarily stiff
    diagonal L, where an explicit bridge would need a prohibitive count.
    The sub-steps' coefficients are memoized on `problem.phis`."""
    z = _EPBM.z
    block = np.empty((5,) + y0.shape, dtype=np.complex128)

    def span(y, t, length):
        hh = length / _STARTUP_SUBSTEPS
        for i in range(_STARTUP_SUBSTEPS):
            y = step_erk4(problem, t + i * hh, y, hh)
        return y

    block[0] = span(np.asarray(y0, dtype=np.complex128), t0, r * z[0])
    for j in range(4):
        block[j + 1] = span(block[j], t0 + r * z[j], r * (z[j + 1] - z[j]))
    return block


def _check_rowwise(nonlinear, t0: float, y0: np.ndarray) -> None:
    """A batch calls N once on all its rows, so N must act on each row alone:
    N of the rows (y0, y0/2) must match N of each, or ValueError."""
    probe = np.stack([y0, 0.5 * y0])
    got = nonlinear(t0, probe)
    want = np.stack([nonlinear(t0, y0), nonlinear(t0, probe[1])])
    if np.shape(got) != want.shape or not np.allclose(
            got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want),
                                                       initial=0.0),
            equal_nan=True):
        raise ValueError("problem.nonlinear does not act row by row along the "
                         "last axis, so its runs cannot step as one batch")


@dataclass
class IntegrationResult:
    t: float
    y: np.ndarray
    ok: bool
    blowup_step: Optional[int]
    n_steps: int
    h: float
    samples: list    # [(t, y_hat), ...] aligned with requested sample_times


def integrate(problem, method: MethodSpec, y0: np.ndarray,
              t_span: tuple[float, float], n_steps: int, modification=None,
              sample_times: Optional[Sequence[float]] = None) -> IntegrationResult:
    """Fixed-step integration of one run: `integrate_many` with the single
    modification `modification` (None: the problem as given)."""
    return integrate_many(problem, method, y0, t_span, n_steps,
                          [modification], sample_times)[0]


def integrate_many(problem, method: MethodSpec, y0: np.ndarray,
                   t_span: tuple[float, float], n_steps: int, modifications,
                   sample_times: Optional[Sequence[float]] = None
                   ) -> list[IntegrationResult]:
    """Fixed-step integration with blow-up detection and nearest-step
    sampling, one run per entry of `modifications`, all from y0 with one h.
    The span, y0 and every sample time must be finite, and h = (t1 - t0) /
    n_steps positive and finite (ValueError before any step); a sample time
    outside [t0, t1] is clamped to the nearer end before it is divided by h.

    Each modification (a spectral.RepartitionSpec or HyperviscositySpec, or
    None) is a pair of diagonals `modification.diagonals(problem, h)`; the
    runs step together as one (R, n) state with one row per run, and one
    nonlinear call per stage serves every row, so `problem.nonlinear` must
    act on each row alone (checked on a two-row probe before any step,
    ValueError otherwise).  A single run, as in every run of zds_ladder,
    steps its own unstacked arrays: on ZDS-128 and the KdV-512 band, a 1-row
    stack cost 5-8% more per N call (9.6 against 8.9 us, 9.7 against 9.2)
    and 5-9% more per step across families (the least of 3x3 interleaved
    repeats of 150 steps, one core).  A row that turns non-finite reports
    its last finite (t, y) and leaves the batch; the others keep stepping.

    Every time comes from a step count, never from a sum of h's: step m is
    taken at t0 + (m-1) h, the state after it (a sample, or a blown-up
    row's last finite state) is reported at t0 + (m - lag) h, and a
    completed run at t1.  The lag is 0, except for the block method, which
    takes n+1 composite steps of h: node 1 of the block after step m sits
    at t0 + (m-1) h, so the endpoint is reached after n+1.  Its startup
    runs once, on a copy of the unmodified problem (the caller's keeps no
    startup coefficients), and every row starts from that block: a
    repartitioned problem is the same equation (so its startup values are
    identical), and integrating the damped variant backward to the t0 - h
    node would overflow.

    A problem with a `band` (KdV) steps modes 0..band-1 alone: y0 must be
    exactly their Hermitian expansion (ValueError before any step), L and
    each modification's diagonals, computed on the full problem, are cut to
    the band, and samples and final states are expanded back to Nx modes.
    """
    make_method(method.family)      # an unknown family raises ValueError
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("t_span %r is not finite" % ((t0, t1),))
    if not (t1 > t0) or n_steps % 1 != 0 or n_steps < 1:
        raise ValueError("need t1 > t0 and a whole n_steps >= 1")
    n_steps = int(n_steps)
    y0 = np.asarray(y0, dtype=np.complex128)
    L = problem.L_diag
    if y0.shape != np.shape(L):
        raise ValueError("y0 has shape %s, L_diag has shape %s"
                         % (y0.shape, np.shape(L)))
    if not np.isfinite(y0).all():
        i = np.flatnonzero(~np.isfinite(y0))[0]
        raise ValueError("y0 is not finite: entry %d is %r" % (i, y0.flat[i]))
    mods = list(modifications)
    if not mods:
        raise ValueError("need at least one modification (None: unmodified)")
    for mod in mods:
        if mod is not None and not hasattr(mod, "diagonals"):
            raise ValueError("modification %r has no diagonals()" % (mod,))
    h = (t1 - t0) / n_steps
    if not 0 < h < math.inf:
        raise ValueError("step size %r of t_span %r over %d steps is not "
                         "positive and finite" % (h, (t0, t1), n_steps))
    lag = 1 if method.block else 0
    # map each requested sample time to the step whose output is nearest
    wants = [] if sample_times is None else [float(s) for s in sample_times]
    sample_at = {}
    for i, s in enumerate(wants):
        if not math.isfinite(s):
            raise ValueError("sample time %r is not finite" % (s,))
        m = int(round((min(max(s, t0), t1) - t0) / h)) + lag
        sample_at.setdefault(m, []).append(i)
    pairs = [(None, None) if mod is None else mod.diagonals(problem, h)
             for mod in mods]
    full = np.copy      # a state as it leaves: all of its Nx modes
    if problem.band is not None:    # step modes 0..band-1 alone
        nx, band = y0.shape[-1], problem.band
        if not np.array_equal(y0, _expand(y0[..., :band], nx)):
            raise ValueError("y0 is not Hermitian and carried by modes "
                             "0..%d, as the problem's band says" % (band - 1))
        pairs = [tuple(None if d is None else d[..., :band] for d in pair)
                 for pair in pairs]
        y0, L = y0[..., :band], L[..., :band]
        full = lambda a: _expand(a, nx)
    problem = with_diagonals(problem, L)    # startup memo: not the caller's
    Ls = [L if dL is None else L + dL for dL, _ in pairs]
    dNs = [dN for _, dN in pairs]
    row_axis = -1 - y0.ndim     # the run axis of a batch's (block) state
    if len(mods) == 1:      # one run steps its own unstacked arrays
        Ls, dNs, batch = Ls[0], dNs[0], (lambda a: a)
    else:
        _check_rowwise(problem.nonlinear, t0, y0)
        Ls = np.stack(Ls)
        dNs = None if all(dN is None for dN in dNs) else np.stack(
            [np.zeros(y0.shape) if dN is None else dN for dN in dNs])
        batch = lambda a: np.stack([a] * len(mods), axis=row_axis)

    samples = [[None] * len(wants) for _ in mods]
    results: list = [None] * len(mods)
    live = list(range(len(mods)))     # the run of each batch row

    def rows(a):        # a batch state's rows, each a full-spectrum copy
        return full(a.reshape((len(live),) + y0.shape))

    def finish(ends, t, y, blowup_step=None):
        """The runs of batch rows `ends` end at (t, the batch state y)."""
        ys = rows(y)
        for j in ends:
            results[live[j]] = IntegrationResult(
                t=t, y=ys[j], ok=blowup_step is None, blowup_step=blowup_step,
                n_steps=n_steps, h=h, samples=samples[live[j]])

    for i in sample_at.get(0, ()):
        for run_samples in samples:
            run_samples[i] = (t0, full(y0))

    t, y = t0, batch(y0)      # the last finite (time, solution) pair
    state, stepped = y, None  # the stepper's state; the batch's problem
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method.block:
            state = batch(epbm_initialize(problem, y0, t0, h))
            if not np.isfinite(state).all():
                finish(range(len(live)), t, y, blowup_step=0)
                return results
        for m in range(1, n_steps + lag + 1):
            if stepped is None:     # at the start, and after rows leave
                stepped = with_diagonals(problem, Ls, dNs)
            state = method.step(stepped, t0 + (m - 1) * h, state, h)
            if not np.isfinite(state).all():
                ok = np.isfinite(state).reshape(
                    -1, len(live), y0.size).all(axis=(0, 2))
                finish(np.flatnonzero(~ok), t, y, blowup_step=m)
                keep = np.flatnonzero(ok)
                if keep.size == 0:
                    return results
                live = [live[j] for j in keep]
                state = np.take(state, keep, axis=row_axis)
                Ls, stepped = Ls[keep], None
                dNs = None if dNs is None else dNs[keep]
            t, y = t0 + (m - lag) * h, state[0] if method.block else state
            for i in sample_at.get(m, ()):
                snap = rows(y)
                for j, run in enumerate(live):
                    samples[run][i] = (t, snap[j])
    finish(range(len(live)), t1, y)
    return results
