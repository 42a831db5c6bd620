"""The steppers with their phi combinations folded into coefficients built
once per (method, h), and N with its scales folded into the transforms and
one output weight, against the per-step forms kept in `step_oracle`.

Every family but esdc6 and imrk4 agrees with its oracle bitwise, single,
batched and on a stability grid.  esdc6 sums each sweep's quadratures
through one weight stack and imrk4 its stage couplings as one stacked
product; both round differently from the oracle's term-by-term sums, so
they agree within REGROUPED_RTOL.  Both problems' N, the complex inverse
transform and dealiased_product, which runs the same inverse transform,
agree with the oracle's np.fft calls within N_RTOL, with exact zeros above
the band (the test names that say "bitwise" predate the folded scales);
the forward transforms and the real pair stay bitwise.  KdV's N squares
P_B u, the band of its input, on the Nx-point grid; it is checked against
the oracle's 3/2-rule square of P_B u, and every state a stepper reaches
from KdV's u0 is checked to lie in the band, where P_B u = u.  build_kdv's
problem steps modes 0..B alone (its `band`); its runs are checked against
the same problem stepping all nx modes."""
import dataclasses
import gc
import importlib.util
import math
import os
import weakref

import numpy as np
import pytest

import expstab as es
from expstab import (DiagonalProblem, FAMILIES, integrate, integrate_many,
                     make_method)
from expstab.integrators import (PhiCache, _erk4_coefficients,
                                 _esdc6_coefficients, epbm_initialize,
                                 with_diagonals)
from expstab.spectral import _dealias_for

import step_oracle
from test_batching import MODS, assert_same_run


# (builder, nx, h): ZDS-32 and KdV-64 at the step sizes of test_batching
PROBLEMS = {"zds": (es.build_zds, 32, 0.2), "kdv": (es.build_kdv, 64, 0.01)}


def rng_spectrum(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# max |library - oracle| over max |oracle| after the three steps below,
# for the families that regroup the oracle's sums: imrk4 measured 1.1e-16
# (KdV-64), 3.5e-16 (ZDS-32) and 1.5e-15 (the stability grid); esdc6
# 2.2e-16, 3.0e-16 and 1.1e-15 (single and batched alike)
REGROUPED = ("esdc6", "imrk4")
REGROUPED_RTOL = 1e-14

# max |library - oracle| over max |oracle| of N and of the complex inverse
# transform.  The library's complex inverse transform applies the 3/2-rule
# scale as one gufunc factor, 1/nx, where the oracle applies 1/m and then
# m/nx, and N multiplies its retained slots once by its factor times the
# band mask; KdV's N squares on the nx-point grid, the oracle on the 3/2-size
# one.  Measured: ZDS N 4.4e-16, KdV N 4.4e-15 (nx = 512, from u0), to_phys
# 2.0e-16, dealiased_product 2.1e-16.
N_RTOL = 5e-14


# max |band layout - full layout| over max |full layout| of a KdV run
BAND_RTOL = 1e-14


def hermitian_spectrum(shape, seed):
    """Random spectrum of a real field with a zero Nyquist slot."""
    u = rng_spectrum(shape, seed)
    half = shape[-1] // 2
    u[..., 0] = u[..., 0].real
    u[..., half] = 0.0
    u[..., half + 1:] = np.conj(u[..., half - 1:0:-1])
    return u


def band_of(u):
    """P_B u: u with the modes above the retained band set to 0."""
    return u * _dealias_for(u.shape[-1]).band


def assert_parity(got, want):
    # equal_nan: rk4's hyperviscous batch rows overflow
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)


def assert_close(got, want, rtol):
    """Finite, and within rtol of want's max-norm."""
    assert got.shape == want.shape
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def assert_family_parity(family, got, want):
    """Bitwise, or for REGROUPED families within REGROUPED_RTOL of the
    state's max-norm."""
    if family not in REGROUPED:
        return assert_parity(got, want)
    assert_close(got, want, REGROUPED_RTOL)


# --- N -----------------------------------------------------------------------

@pytest.mark.parametrize("nx", [32, 128])
@pytest.mark.parametrize("rows", [None, 3])
def test_zds_nonlinear_is_bitwise(nx, rows):
    prob, u0 = es.build_zds(nx)
    oracle = step_oracle.zds_nonlinear(nx)
    u = rng_spectrum((nx,) if rows is None else (rows, nx), nx)
    for v in (u, u0 if rows is None else np.stack([u0] * rows)):
        got = prob.nonlinear(0.0, v)
        assert_close(got, oracle(0.0, v), N_RTOL)
        assert np.all(got[..., ~_dealias_for(nx).band] == 0)


@pytest.mark.parametrize("nx", [32, 512])
@pytest.mark.parametrize("rows", [None, 3])
def test_kdv_nonlinear_is_bitwise(nx, rows):
    # KdV's N squares P_B u on the nx-point grid; on Hermitian spectra of
    # full support it matches the oracle's 3/2-rule square of P_B u
    prob, u0 = es.build_kdv(nx)
    oracle = step_oracle.kdv_nonlinear(nx, -0.5j * prob.grid.wavenumbers)
    u = hermitian_spectrum((nx,) if rows is None else (rows, nx), nx + 1)
    for v in (u, u0 if rows is None else np.stack([u0] * rows)):
        got = prob.nonlinear(0.0, v)
        assert_close(got, oracle(0.0, band_of(v)), N_RTOL)
        assert np.all(got[..., ~_dealias_for(nx).band] == 0)


# max |real path - complex path| over max |complex path|, both on P_B u:
# measured 6.6e-16 (nx = 32) to 1.0e-15 (nx = 32, 3 rows)
KDV_PATHS_RTOL = 1e-14


@pytest.mark.parametrize("nx", [32, 512])
@pytest.mark.parametrize("rows", [None, 3])
def test_kdv_nonlinear_matches_complex_path(nx, rows):
    prob, _ = es.build_kdv(nx)
    halfik = -0.5j * prob.grid.wavenumbers
    u = hermitian_spectrum((nx,) if rows is None else (rows, nx), nx + 2)
    got = prob.nonlinear(0.0, u)
    want = step_oracle.kdv_nonlinear_complex(nx, halfik)(0.0, band_of(u))
    assert np.max(np.abs(got - want)) <= KDV_PATHS_RTOL * np.max(np.abs(want))
    # exactly Hermitian, with a zero Nyquist slot and a real mean
    half = nx // 2
    assert np.array_equal(got[..., half + 1:],
                          np.conj(got[..., half - 1:0:-1]))
    assert np.all(got[..., half] == 0) and np.all(got[..., 0].imag == 0)


def test_kdv_nonlinear_reads_only_the_nonnegative_half():
    # neither the negative half nor the modes above the band are read
    prob, _ = es.build_kdv(64)
    u = hermitian_spectrum((64,), 9)
    want = prob.nonlinear(0.0, u)
    junk = u.copy()
    junk[33:] = rng_spectrum((31,), 10)
    assert np.array_equal(prob.nonlinear(0.0, junk), want)
    above = ~_dealias_for(64).band
    junk[above] = rng_spectrum((int(above.sum()),), 11)
    assert np.array_equal(prob.nonlinear(0.0, junk), want)
    assert np.array_equal(prob.nonlinear(0.0, band_of(u)), want)
    # handed modes 0..B alone, it returns modes 0..B alone
    assert np.array_equal(prob.nonlinear(0.0, u[:prob.band]),
                          want[:prob.band])


def parity_modifications():
    """The modifications of tools/parity.py's run matrix."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", "parity.py")
    spec = importlib.util.spec_from_file_location("parity", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._modifications(es)


@pytest.mark.parametrize("nx, h", [(64, 0.01), (512, 160 / 56000)])
@pytest.mark.parametrize("family", FAMILIES)
def test_kdv_states_stay_in_the_band(family, nx, h):
    # KdV's N reads only the band, P_B u; it equals the dealiased square of
    # u because every state it is handed from u0 holds exact zeros above
    # the band: each single run and each row of one batch over the parity
    # modifications, every stage of every step, and the EPBM5 start-up
    # block.  A row that overflows leaves its batch; N still sees it on its
    # last step, so only finite rows are checked there.  `watched` has no
    # band, so these runs step all nx modes: they witness that the band
    # layout build_kdv's problem steps (modes 0..B alone) loses nothing.
    prob, u0 = es.build_kdv(nx)
    above = ~_dealias_for(nx).band
    checked = []

    def nonlinear(t, y):
        rows = y.reshape(-1, nx)
        rows = rows[np.isfinite(rows).all(axis=1)]
        assert np.all(rows[:, above] == 0)
        checked.append(len(rows))
        return prob.nonlinear(t, y)

    watched = DiagonalProblem(prob.L_diag, nonlinear, prob.grid)
    meth = make_method(family)
    mods = parity_modifications()
    n = 4
    times = [m * h for m in range(n + 1)]
    with np.errstate(all="ignore"):
        runs = [integrate(watched, meth, u0, (0.0, n * h), n,
                          modification=mod, sample_times=times)
                for mod in mods]
        runs += integrate_many(watched, meth, u0, (0.0, n * h), n, mods,
                               sample_times=times)
    assert sum(checked) >= 2 * len(mods) * n
    for res in runs:
        assert np.all(res.y[..., above] == 0)
        assert all(np.all(s[1][..., above] == 0)
                   for s in res.samples if s is not None)
    if meth.block:
        block = epbm_initialize(prob, u0, 0.0, h)
        assert np.all(block[:, above] == 0)


@pytest.mark.parametrize("nx, t_end, n", [(64, 0.5, 50), (512, 0.1, 35)])
@pytest.mark.parametrize("family", FAMILIES)
def test_band_layout_matches_the_full_layout(family, nx, t_end, n):
    # build_kdv's problem steps modes 0..B alone; the same problem without
    # its band steps all nx modes.  Over the parity modifications, single
    # and batched, both give the same status, blow-up step and times, and
    # states and samples within BAND_RTOL of the full layout's max-norm
    # (the final state of a run that blew up is exempt).  Measured: modes
    # 0..B are bitwise but for imrk4 (3.9e-16 at nx = 512), whose stacked
    # stage products BLAS sums in another order on the shorter rows; the
    # band layout's negative modes are exact mirrors, which the full
    # layout's are only to within 8.8e-31.
    prob, u0 = es.build_kdv(nx)
    assert prob.band == _dealias_for(nx).cut + 1
    meth = make_method(family)
    mods = parity_modifications()
    times = [t_end / 2, t_end]
    runs = []
    with np.errstate(all="ignore"):
        for p in (prob, dataclasses.replace(prob, band=None)):
            runs.append([integrate(p, meth, u0, (0.0, t_end), n,
                                   modification=mod, sample_times=times)
                         for mod in mods])
            runs[-1] += integrate_many(p, meth, u0, (0.0, t_end), n, mods,
                                       sample_times=times)
    for got, want in zip(*runs):
        assert (got.ok, got.blowup_step, got.t) == (want.ok, want.blowup_step,
                                                    want.t)
        if want.ok:
            assert_close(got.y, want.y, BAND_RTOL)
        for g, w in zip(got.samples, want.samples):
            assert (g is None) == (w is None)
            if w is not None:
                assert g[0] == w[0]
                assert_close(g[1], w[1], BAND_RTOL)


@pytest.mark.parametrize("nx", [32, 128, 512])
def test_direct_transforms_match_np_fft(nx):
    # _Dealias calls NumPy's private pocketfft gufuncs; the oracle's public
    # np.fft calls end in the same loops.  The forward transforms agree
    # bitwise: pocketfft applies their factor nx/m as a final multiply, as
    # the oracle does.  The complex inverse agrees within N_RTOL (one factor
    # 1/nx against 1/m then m/nx).  The real pair, on the nx-point grid
    # with np.fft's own factors, agrees bitwise with np.fft.irfft of P_B u
    # and np.fft.rfft.  One _Dealias sees shrinking row counts, as a batch
    # does when rows leave it.  from_phys overwrites its input, so it is
    # handed copies.
    d, o = _dealias_for(nx), step_oracle.Dealias(nx)
    for i, shape in enumerate([(5, 3, nx), (3, nx), (2, nx), (1, nx), (nx,)]):
        u = rng_spectrum(shape, 10 * nx + i)
        w = d.to_phys(u)
        assert_close(w, o.to_phys(u), N_RTOL)
        assert_parity(d.from_phys(w.copy(), d.band), o.from_phys(w))
        w = rng_spectrum(shape[:-1] + (d.m,), 10 * nx + i + 5)
        assert_parity(d.from_phys(w.copy(), d.band), o.from_phys(w))
        u = hermitian_spectrum(shape, 10 * nx + i)
        w = d.to_phys_real(u)
        assert w.dtype == np.float64
        assert_parity(w, np.fft.irfft(band_of(u)[..., :nx // 2 + 1], n=nx))
        for w in (w, w + rng_spectrum(w.shape, 10 * nx + i + 5).real):
            assert_parity(d.from_phys_real(w, 1.0),
                          np.fft.rfft(w)[..., :d.cut + 1])


def test_dealiased_product_is_bitwise():
    nx = 64
    grid = es.PeriodicGrid(nx, 0.0, 1.0)
    u, v = rng_spectrum((2, nx), 5)
    d = step_oracle.Dealias(nx)
    want = d.from_phys(d.to_phys(u) * d.to_phys(v))
    got = es.dealiased_product(grid, u, v)
    assert_close(got, want, N_RTOL)
    assert np.all(got[..., ~_dealias_for(nx).band] == 0)


# --- steppers ----------------------------------------------------------------

def start_state(problem, family, u0, h):
    if make_method(family).block:
        return epbm_initialize(problem, u0, 0.0, h)
    return u0


# the tableau each oracle takes (None: the family has none)
TABLEAUX = {"esdc6": es.esdc_tableau(), "epbm5": es.epbm_tableau(),
            "imrk4": es.imrk_tableau()}


def step_both(family, problem, y, h, n_steps=3):
    """n_steps steps of the library (on the problem's own memo) and of the
    oracle (on a PhiCache of its own), each on its own trajectory, from
    (0, y)."""
    meth = make_method(family)
    oracle = step_oracle.STEPS[family]
    phis_o = PhiCache(problem.L_diag)
    got, want = y, y
    for m in range(n_steps):
        got = meth.step(problem, m * h, got, h)
        want = oracle(problem, m * h, want, h, phis_o, TABLEAUX.get(family))
    return got, want


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
@pytest.mark.parametrize("family", FAMILIES)
def test_single_run_parity(problem_name, family):
    build, nx, h = PROBLEMS[problem_name]
    prob, u0 = build(nx)
    got, want = step_both(family, prob, start_state(prob, family, u0, h), h)
    assert_family_parity(family, got, want)


@pytest.mark.parametrize("problem_name", sorted(PROBLEMS))
@pytest.mark.parametrize("family", FAMILIES)
def test_batch_parity(problem_name, family):
    # an (R, nx) state with one operator row per run, as integrate_many
    # steps a batch
    build, nx, h = PROBLEMS[problem_name]
    prob, u0 = build(nx)
    mods = [None, es.RepartitionSpec("abs_k3", rho=math.pi / 64),
            es.HyperviscositySpec(8, 1e10)]
    pairs = [(None, None) if m is None else m.diagonals(prob, h) for m in mods]
    Ls = np.stack([prob.L_diag if dL is None else prob.L_diag + dL
                   for dL, _ in pairs])
    dNs = np.stack([np.zeros(nx) if dN is None else dN for _, dN in pairs])
    stepped = with_diagonals(prob, Ls, dNs)
    y = start_state(prob, family, u0, h)
    y = np.stack([y] * len(mods), axis=-2)
    got, want = step_both(family, stepped, y, h)
    assert_family_parity(family, got, want)


@pytest.mark.parametrize("family", FAMILIES)
def test_stability_grid_parity(family):
    # the shape of a stability probe: L of shape (n1, 1), state (n1, n2)
    k1 = np.linspace(0.0, 6.0, 7)[:, None]
    k2 = np.linspace(0.0, 3.0, 5)[None, :]
    shift = -math.tan(math.pi / 16) * np.abs(k1)
    z2 = 1j * k2 - shift
    prob = DiagonalProblem(L_diag=1j * k1 + shift,
                           nonlinear=lambda t, y: z2 * y)
    y = np.ones(z2.shape, dtype=np.complex128) + 0.1j * k2
    if make_method(family).block:
        y = np.stack([y * (1.0 + 0.1 * j) for j in range(5)])
    got, want = step_both(family, prob, y, 1.0, n_steps=2)
    assert_family_parity(family, got, want)


# --- the coefficient memo ----------------------------------------------------

def test_memo_is_keyed_by_step_size():
    prob, _ = es.build_zds(32)
    phis = PhiCache(prob.L_diag)
    a = phis.coefficients(_erk4_coefficients, 0.1)
    b = phis.coefficients(_erk4_coefficients, 0.2)
    assert phis.coefficients(_erk4_coefficients, 0.1) is a
    assert not np.array_equal(a[0], b[0])      # e^(hL/2)
    assert not np.array_equal(a[2], b[2])      # (h/2) phi_1(hL/2)
    c = phis.coefficients(_esdc6_coefficients, 0.1)
    assert c is not a and not np.array_equal(
        c[2], phis.coefficients(_esdc6_coefficients, 0.2)[2])


def test_memo_is_keyed_by_operator():
    prob, _ = es.build_zds(32)
    other = prob.L_diag - 0.5
    a = PhiCache(prob.L_diag).coefficients(_erk4_coefficients, 0.1)
    b = PhiCache(other).coefficients(_erk4_coefficients, 0.1)
    assert not np.array_equal(a[1], b[1])


@pytest.mark.parametrize("family", FAMILIES)
def test_one_cache_serves_two_step_sizes(family):
    # stepping at h1, then h2, then h1 again on one problem's memo gives
    # what fresh problems, each with a fresh memo, give
    prob, u0 = es.build_zds(32)
    meth = make_method(family)
    y = start_state(prob, family, u0, 0.1)
    for h in (0.1, 0.05, 0.1):
        got = meth.step(prob, 0.0, y, h)
        want = meth.step(dataclasses.replace(prob), 0.0, y, h)
        assert np.array_equal(got, want)


class CountingCache(PhiCache):
    """A PhiCache that counts its table requests and keeps a weak reference
    to each table's values."""

    def __init__(self, L_diag):
        super().__init__(L_diag)
        self.requests = 0
        self.values = []

    def table(self, h, K=4):
        self.requests += 1
        tab = super().table(h, K)
        self.values.append(weakref.ref(tab.values))
        return tab


# table requests of one family's coefficient builder
TABLES_PER_BUILD = {"exp_euler": 1, "erk4": 2, "esdc6": 3, "epbm5": 9,
                    "imrk4": 0, "rk4": 0}


@pytest.mark.parametrize("family", FAMILIES)
def test_tables_are_requested_only_on_the_first_step_of_each_h(family):
    # no stepper reads a table once its coefficients for that h exist
    prob, u0 = es.build_zds(32)
    meth = make_method(family)
    y = start_state(prob, family, u0, 0.1)
    prob.phis = phis = CountingCache(prob.L_diag)
    counts = []
    for h in (0.1, 0.1, 0.1, 0.05, 0.05, 0.1):
        before = phis.requests
        meth.step(prob, 0.0, y, h)
        counts.append(phis.requests - before)
    n = TABLES_PER_BUILD[family]
    assert counts == [n, 0, 0, n, 0, 0]
    # no table outlives the coefficients drawn from it
    gc.collect()
    assert [ref() for ref in phis.values] == [None] * 2 * n


def test_each_problem_carries_the_memo_of_its_own_operator():
    prob, _ = es.build_zds(32)
    assert np.array_equal(prob.phis.L_diag, prob.L_diag)
    other = with_diagonals(prob, prob.L_diag - 0.5)
    assert np.array_equal(other.phis.L_diag, prob.L_diag - 0.5)
    # a copy gets a fresh memo; the memo is in neither repr nor ==
    copy = dataclasses.replace(prob)
    assert copy.phis is not prob.phis and copy == prob
    assert "phis" not in repr(prob)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("family", ["erk4", "epbm5"])
def test_integrate_many_leaves_the_callers_memo_empty(family, rows):
    # the runs and the block method's startup step problems of their own
    prob, u0 = es.build_zds(32)
    prob.phis = phis = CountingCache(prob.L_diag)
    integrate_many(prob, make_method(family), u0, (0.0, 1.0), 10,
                   MODS[:rows])
    assert phis.requests == 0


@pytest.mark.parametrize("family", FAMILIES)
def test_batch_with_mid_run_blowup_matches_single_runs(family):
    # ZDS-32 on [0, 40]: rows leave the batch at different steps, so the
    # batch steps on with rebuilt coefficients for its remaining rows
    n = 60 if family == "esdc6" else 200
    prob, u0 = es.build_zds(32)
    meth = make_method(family)
    times = [10.0, 20.0, 40.0]
    batch = integrate_many(prob, meth, u0, (0.0, 40.0), n, MODS,
                           sample_times=times)
    exits = [r.blowup_step for r in batch if not r.ok]
    last = max(n if r.ok else r.blowup_step for r in batch)
    assert exits and min(exits) > 1 and last > min(exits)
    for got, mod in zip(batch, MODS):
        assert_same_run(got, integrate(prob, meth, u0, (0.0, 40.0), n,
                                       modification=mod, sample_times=times))
