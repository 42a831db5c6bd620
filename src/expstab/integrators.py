"""Time steppers for semilinear diagonal problems y' = L y + N(t, y).

Every stepper maps (t, y) to the y one step later, elementwise on a diagonal
L (spectral operators or flattened stability grids) for both uses.  Leading
axes broadcast: a stack of runs that share h steps as one (R, n) state with
an (R, n) L (`integrate_many`).

  erk4      4-stage exponential Runge-Kutta (Krogstad), order 4
  esdc6     exponential spectral deferred correction, 4 Lobatto nodes,
            exponential-Euler predictor + 6 sweeps, order 6
  epbm5     5-node exponential polynomial block method, two-pass composite,
            order 5
  imrk4     6-stage additive (implicit/explicit) Runge-Kutta, order 4;
            L treated implicitly (diagonal solves), N explicitly
  rk4       classical Runge-Kutta on the unsplit right-hand side
  exp_euler first-order exponential Euler
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass
class DiagonalProblem:
    """y' = L_diag * y + nonlinear(t, y), with optional grid metadata."""
    L_diag: np.ndarray
    nonlinear: Callable[[float, np.ndarray], np.ndarray]
    grid: object = None       # spectral.PeriodicGrid
    name: str = ""


def with_diagonals(problem: DiagonalProblem, L_diag: np.ndarray,
                   dN: Optional[np.ndarray] = None) -> DiagonalProblem:
    """`problem` stepped with the linear diagonal L_diag and, unless dN is
    None, the nonlinearity N(t, y) - dN*y: the problem a modification with
    diagonals (dL, dN) steps, for one run or a stack of them."""
    if dN is None:
        return DiagonalProblem(L_diag, problem.nonlinear, problem.grid,
                               problem.name)
    base = problem.nonlinear

    def nonlinear(t, y):
        return base(t, y) - dN * y

    return DiagonalProblem(L_diag, nonlinear, problem.grid, problem.name)


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
    sweeps: int = 6


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
    gamma: float = 0.25


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


# --- steppers ----------------------------------------------------------------
# Every stepper takes (problem, t, y, h, phis, tableau) and returns the new y
# (the block method's y is its (5, n) block of node values); the tableau is
# None for the families that have none.

def step_exp_euler(problem, t, y, h, phis: PhiCache, tableau=None) -> np.ndarray:
    T = phis.table(h)
    return T.values[0] * y + h * T.values[1] * problem.nonlinear(t, y)


def step_erk4(problem, t, y, h, phis: PhiCache, tableau=None) -> np.ndarray:
    """Krogstad exponential RK4; reduces to classical RK4 at L = 0."""
    N = problem.nonlinear
    Th = phis.table(0.5 * h)
    Tf = phis.table(h)
    e2, p12, p22 = Th.values[0], Th.values[1], Th.values[2]
    e1, p1, p2, p3 = Tf.values[0], Tf.values[1], Tf.values[2], Tf.values[3]

    K0 = N(t, y)
    Y1 = e2 * y + (0.5 * h) * p12 * K0
    K1 = N(t + 0.5 * h, Y1)
    Y2 = e2 * y + h * ((0.5 * p12 - p22) * K0 + p22 * K1)
    K2 = N(t + 0.5 * h, Y2)
    Y3 = e1 * y + h * ((p1 - 2.0 * p2) * K0 + 2.0 * p2 * K2)
    K3 = N(t + h, Y3)
    return e1 * y + h * ((p1 - 3.0 * p2 + 4.0 * p3) * K0
                         + (2.0 * p2 - 4.0 * p3) * (K1 + K2)
                         + (-p2 + 4.0 * p3) * K3)


def step_esdc6(problem, t0, y0, h, phis: PhiCache,
               tableau: ESDCTableau) -> np.ndarray:
    N = problem.nonlinear
    eta, delta, W = tableau.nodes, tableau.delta, tableau.weights
    T = [phis.table(h * d) for d in delta]    # delta[0] == delta[2]: 2 distinct

    # exponential-Euler predictor along the substeps
    Y = [y0, None, None, None]
    Nval = [N(t0, y0), None, None, None]
    for j in range(3):
        hj = h * delta[j]
        Y[j + 1] = T[j].values[0] * Y[j] + hj * T[j].values[1] * Nval[j]
        Nval[j + 1] = N(t0 + h * eta[j + 1], Y[j + 1])

    for sweep in range(tableau.sweeps):
        last = sweep == tableau.sweeps - 1
        Nold = np.asarray(Nval)
        Nflat = Nold.reshape(4, -1)
        Ynew = [y0, None, None, None]
        Nval = [Nold[0], None, None, None]
        for j in range(3):
            hj = h * delta[j]
            V = T[j].values
            b = (W[j] @ Nflat).reshape(Nold.shape)
            quad = hj * (V[1] * b[0] + V[2] * b[1] + V[3] * b[2] + V[4] * b[3])
            Ynew[j + 1] = V[0] * Ynew[j] + hj * V[1] * (Nval[j] - Nold[j]) + quad
            if j < 2 or not last:   # node-3 value of the final sweep is unused
                Nval[j + 1] = N(t0 + h * eta[j + 1], Ynew[j + 1])
        Y = Ynew
    return Y[3]


def _epbm_pass(problem, block, t_base, r, alpha, phis, tab) -> np.ndarray:
    """One interpolate-and-propagate pass.  alpha=1 advances the block by r,
    alpha=0 re-expands it in place about the new node-1 value."""
    z = tab.z
    N = problem.nonlinear
    nvals = np.asarray([N(t_base + r * z[j], block[j]) for j in range(1, 5)])
    v = (tab.vmap @ nvals.reshape(4, -1)).reshape(nvals.shape)
    y1 = block[0]
    out = np.empty_like(block)
    for j in range(5):
        etaj = z[j] + alpha + 1.0
        if etaj == 0.0:
            out[j] = y1
            continue
        T = phis.table(r * etaj)
        acc = T.values[0] * y1
        for k in range(1, 5):
            acc = acc + (r * etaj ** k) * (T.values[k] * v[k - 1])
        out[j] = acc
    return out


def step_epbm5(problem, t, block, h, phis: PhiCache,
               tableau: EPBMTableau) -> np.ndarray:
    """Two-pass composite step: predictor pass advances the block by h,
    corrector pass rebuilds it about the advanced node 1."""
    mid = _epbm_pass(problem, block, t, h, 1.0, phis, tableau)
    return _epbm_pass(problem, mid, t + h, h, 0.0, phis, tableau)


def step_imrk4(problem, t, y, h, phis: PhiCache,
               tableau: ButcherPair) -> np.ndarray:
    """Additive RK step: diagonal L solved implicitly, N explicit.
    All implicit diagonal entries share gamma, so one denominator serves
    every stage."""
    L = problem.L_diag
    N = problem.nonlinear
    AI, AE, b, c = tableau.A_implicit, tableau.A_explicit, tableau.b, tableau.c
    denom = 1.0 - (h * tableau.gamma) * L
    if np.any(denom == 0):
        raise ZeroDivisionError("implicit stage solve is singular")

    lin = [L * y]
    nl = [N(t, y)]
    for i in range(1, 6):
        rhs = y.astype(np.complex128, copy=True)
        for j in range(i):
            aij_i, aij_e = AI[i, j], AE[i, j]
            if aij_i != 0.0:
                rhs += (h * aij_i) * lin[j]
            if aij_e != 0.0:
                rhs += (h * aij_e) * nl[j]
        Yi = rhs / denom
        lin.append(L * Yi)
        nl.append(N(t + c[i] * h, Yi))
    y1 = y.astype(np.complex128, copy=True)
    for i in range(6):
        if b[i] != 0.0:
            y1 += (h * b[i]) * (lin[i] + nl[i])
    return y1


def step_rk4(problem, t, y, h, phis: PhiCache, tableau=None) -> np.ndarray:
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
    its tableau, and its default k2 window for stability maps."""
    family: str
    step: Callable
    block: bool
    tableau: object
    k2_band: float


METHODS = {spec.family: spec for spec in (
    MethodSpec("erk4", step_erk4, False, None, 12.0),
    MethodSpec("esdc6", step_esdc6, False, esdc_tableau(), 25.0),
    MethodSpec("epbm5", step_epbm5, True, epbm_tableau(), 4.0),
    MethodSpec("imrk4", step_imrk4, False, imrk_tableau(), 12.0),
    MethodSpec("rk4", step_rk4, False, None, 12.0),
    MethodSpec("exp_euler", step_exp_euler, False, None, 12.0),
)}
FAMILIES = tuple(METHODS)


def make_method(family: str) -> MethodSpec:
    if family not in METHODS:
        raise ValueError("unknown method family: %r" % (family,))
    return METHODS[family]


# --- block startup and the driving loop --------------------------------------

def epbm_initialize(problem, y0: np.ndarray, t0: float, r: float,
                    tableau: EPBMTableau) -> np.ndarray:
    """Fill the 5-node startup block by exponential (Krogstad) sub-stepping:
    node 1 (t0 - r) is seeded by integrating backward from y0, then each node
    gap is bridged forward with _STARTUP_SUBSTEPS steps.  Exponential
    sub-stepping keeps the startup stable for arbitrarily stiff diagonal L,
    where an explicit bridge would need a prohibitive substep count."""
    z = tableau.z
    block = np.empty((5,) + y0.shape, dtype=np.complex128)

    def span(prob, phis, y, t, span_len):
        hh = span_len / _STARTUP_SUBSTEPS
        for _ in range(_STARTUP_SUBSTEPS):
            y = step_erk4(prob, t, y, hh, phis)
            t = t + hh
        return y

    # node 1 sits at t0 - r: integrate the time-reversed field forward
    reversed_prob = DiagonalProblem(
        L_diag=-np.asarray(problem.L_diag),
        nonlinear=lambda s, w: -problem.nonlinear(t0 - s, w))
    block[0] = span(reversed_prob, PhiCache(reversed_prob.L_diag),
                    np.asarray(y0, dtype=np.complex128), 0.0, -r * z[0])
    phis = PhiCache(problem.L_diag)
    for j in range(4):
        block[j + 1] = span(problem, phis, block[j], t0 + r * z[j],
                            r * (z[j + 1] - z[j]))
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

    Each modification (a spectral.RepartitionSpec or HyperviscositySpec, or
    None) is a pair of diagonals `modification.diagonals(problem, h)`; the
    runs step together as one (R, n) state with one row per run, and one
    nonlinear call per stage serves every row, so `problem.nonlinear` must
    act on each row alone (checked on a two-row probe before any step,
    ValueError otherwise).  A single run steps its own unstacked arrays.
    A row that turns non-finite reports its last finite (t, y) and leaves
    the batch; the others keep stepping.

    The block method takes n+1 composite steps of h: node 1 of the block after
    step m sits at t0 + (m-1) h, so the endpoint is exact after n+1.  Its
    startup runs once, on the unmodified problem, and every row starts from
    that block: a repartitioned problem is the same equation (so its startup
    values are identical), and integrating the damped variant backward to
    the t0 - h node would overflow.
    """
    make_method(method.family)      # an unknown family raises ValueError
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = int(n_steps)
    if not (t1 > t0) or n_steps < 1:
        raise ValueError("need t1 > t0 and n_steps >= 1")
    y0 = np.asarray(y0, dtype=np.complex128)
    L = problem.L_diag
    if y0.shape != np.shape(L):
        raise ValueError("y0 has shape %s, L_diag has shape %s"
                         % (y0.shape, np.shape(L)))
    mods = list(modifications)
    if not mods:
        raise ValueError("need at least one modification (None: unmodified)")
    for mod in mods:
        if mod is not None and not hasattr(mod, "diagonals"):
            raise ValueError("modification %r has no diagonals()" % (mod,))
    h = (t1 - t0) / n_steps
    pairs = [(None, None) if mod is None else mod.diagonals(problem, h)
             for mod in mods]
    Ls = [L if dL is None else L + dL for dL, _ in pairs]
    dNs = [dN for _, dN in pairs]
    if len(mods) == 1:      # one run steps its own unstacked arrays
        Ls, dNs, batch = Ls[0], dNs[0], (lambda a: a)
    else:
        _check_rowwise(problem.nonlinear, t0, y0)
        Ls = np.stack(Ls)
        dNs = None if all(dN is None for dN in dNs) else np.stack(
            [np.zeros(y0.shape) if dN is None else dN for dN in dNs])
        batch = lambda a: np.stack([a] * len(mods), axis=-1 - y0.ndim)

    wants = list(float(s) for s in sample_times) if sample_times else []
    samples = [[None] * len(wants) for _ in mods]
    results: list = [None] * len(mods)
    lag = 1 if method.block else 0

    def finish(run, t, y, blowup_step=None):
        results[run] = IntegrationResult(
            t=t, y=y, ok=blowup_step is None, blowup_step=blowup_step,
            n_steps=n_steps, h=h, samples=samples[run])

    # map each requested sample time to the step whose output is nearest
    sample_at = {}
    for i, s in enumerate(wants):
        m = min(max(int(round((s - t0) / h)), 0), n_steps) + lag
        sample_at.setdefault(m, []).append(i)
    for i in sample_at.get(0, ()):
        for run_samples in samples:
            run_samples[i] = (t0, y0.copy())

    live = list(range(len(mods)))     # the run of each batch row

    def rows(a):
        return a.reshape((len(live),) + y0.shape)

    t, y = t0, batch(y0)      # the last finite (time, solution) pair
    ts, state = t0, y         # the stepper's time and state
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if method.block:
            state = batch(epbm_initialize(problem, y0, t0, h, method.tableau))
            if not np.isfinite(state).all():
                for run in live:
                    finish(run, t0, y0, blowup_step=0)
                return results
        stepped = with_diagonals(problem, Ls, dNs)
        phis = PhiCache(Ls)
        for m in range(1, n_steps + lag + 1):
            state = method.step(stepped, ts, state, h, phis, method.tableau)
            ts = ts + h
            if not np.isfinite(state).all():
                finite = np.isfinite(state)
                if method.block:
                    finite = finite.all(axis=0)
                ok = finite.reshape(len(live), -1).all(axis=1)
                for j in np.flatnonzero(~ok):
                    finish(live[j], t, rows(y)[j], blowup_step=m)
                keep = np.flatnonzero(ok)
                if keep.size == 0:
                    return results
                live = [live[j] for j in keep]
                state = np.take(state, keep, axis=1 if method.block else 0)
                Ls = Ls[keep]
                dNs = None if dNs is None else dNs[keep]
                stepped = with_diagonals(problem, Ls, dNs)
                phis = PhiCache(Ls)
            t, y = (t0 + (m - 1) * h, state[0]) if method.block else (ts, state)
            for i in sample_at.get(m, ()):
                snap = rows(y).copy()
                for j, run in enumerate(live):
                    samples[run][i] = (t, snap[j])
    for j, run in enumerate(live):
        finish(run, t1 if method.block else t, rows(y)[j])
    return results
