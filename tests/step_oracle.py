"""Per-step reference forms of the steppers and of the dealiased products.

These are the forms that rebuild every phi combination from the tables on
each step, sum IMRK4's stage couplings term by term, and evaluate N with
out-of-place temporaries through the public np.fft calls, scaling and
masking after each transform.  The library folds the combinations into
coefficient arrays built once per (method, h), sums ESDC6's quadratures
through one weight stack and IMRK4's couplings as one stacked product, and
folds its scales into the transforms and one output weight;
`test_step_parity.py` compares the two.
"""
import numpy as np


def step_erk4(problem, t, y, h, phis, tableau=None):
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


def step_esdc6(problem, t0, y0, h, phis, tableau):
    N = problem.nonlinear
    eta, delta, W = tableau.nodes, tableau.delta, tableau.weights
    T = [phis.table(h * d) for d in delta]

    Y = [y0, None, None, None]
    Nval = [N(t0, y0), None, None, None]
    for j in range(3):
        hj = h * delta[j]
        Y[j + 1] = T[j].values[0] * Y[j] + hj * T[j].values[1] * Nval[j]
        Nval[j + 1] = N(t0 + h * eta[j + 1], Y[j + 1])

    for sweep in range(6):
        last = sweep == 5
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
            if j < 2 or not last:
                Nval[j + 1] = N(t0 + h * eta[j + 1], Ynew[j + 1])
        Y = Ynew
    return Y[3]


def _epbm_pass(problem, block, t_base, r, alpha, phis, tab):
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


def step_epbm5(problem, t, block, h, phis, tableau):
    mid = _epbm_pass(problem, block, t, h, 1.0, phis, tableau)
    return _epbm_pass(problem, mid, t + h, h, 0.0, phis, tableau)


def step_imrk4(problem, t, y, h, phis, tableau):
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


def step_rk4(problem, t, y, h, phis, tableau=None):
    L = problem.L_diag
    N = problem.nonlinear
    f = lambda tt, yy: L * yy + N(tt, yy)
    k1 = f(t, y)
    k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = f(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_exp_euler(problem, t, y, h, phis, tableau=None):
    T = phis.table(h)
    return T.values[0] * y + h * T.values[1] * problem.nonlinear(t, y)


STEPS = {"erk4": step_erk4, "esdc6": step_esdc6, "epbm5": step_epbm5,
         "imrk4": step_imrk4, "rk4": step_rk4, "exp_euler": step_exp_euler}


class Dealias:
    """3/2-rule pad/truncate with out-of-place scaling and masking."""

    def __init__(self, nx):
        self.nx = nx
        self.m = (3 * nx) // 2
        self.half = nx // 2
        self._fwd = nx / self.m
        self._inv = self.m / nx
        j = np.minimum(np.arange(nx), nx - np.arange(nx))
        self.band = j <= (2 * self.half) // 3
        h = self.half
        self._slots = np.r_[0:h + 1, self.m - (h - 1):self.m]

    def pad(self, u_hat):
        h = self.half
        out = np.zeros(u_hat.shape[:-1] + (self.m,), dtype=np.complex128)
        out[..., :h + 1] = u_hat[..., :h + 1]
        out[..., self.m - (h - 1):] = u_hat[..., h + 1:]
        return out

    def to_phys(self, u_hat):
        return np.fft.ifft(self.pad(u_hat), axis=-1) * self._inv

    def from_phys(self, w):
        wh = np.fft.fft(w, axis=-1) * self._fwd
        return wh.take(self._slots, axis=-1) * self.band

    def to_phys_real(self, u_hat):
        """Real field of a Hermitian u_hat with a zero Nyquist slot, from
        its modes 0..nx/2."""
        h = self.half
        p = np.zeros(u_hat.shape[:-1] + (self.m // 2 + 1,),
                     dtype=np.complex128)
        p[..., :h + 1] = u_hat[..., :h + 1]
        return np.fft.irfft(p, n=self.m, axis=-1) * self._inv

    def from_phys_real(self, w):
        h = self.half
        wh = np.fft.rfft(w, axis=-1) * self._fwd
        low = wh[..., :h + 1] * self.band[:h + 1]
        return np.concatenate([low, np.conj(low[..., h - 1:0:-1])], axis=-1)


def zds_nonlinear(nx):
    d = Dealias(nx)

    def nonlinear(t, u_hat):
        up = d.to_phys(u_hat)
        return 2j * d.from_phys(up * np.conj(up) * up)
    return nonlinear


def kdv_nonlinear(nx, halfik):
    """KdV's N on the real-field path of the 3/2-size grid: reads modes
    0..nx/2 only, and squares them all (the library squares P_B u on the
    nx-point grid)."""
    d = Dealias(nx)

    def nonlinear(t, u_hat):
        up = d.to_phys_real(u_hat)
        return halfik * d.from_phys_real(up * up)
    return nonlinear


def kdv_nonlinear_complex(nx, halfik):
    """KdV's N through the complex transforms, as ZDS's N is formed."""
    d = Dealias(nx)

    def nonlinear(t, u_hat):
        up = d.to_phys(u_hat)
        return halfik * d.from_phys(up * up)
    return nonlinear
