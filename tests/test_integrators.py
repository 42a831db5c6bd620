"""Tests for the time steppers: tableau structure, frozen one-step values,
reduction identities, convergence orders, and driver plumbing."""
import dataclasses
import math

import numpy as np
import pytest

from expstab import (
    DiagonalProblem,
    FAMILIES,
    epbm_tableau,
    esdc_tableau,
    imrk_tableau,
    integrate,
    make_method,
)
from expstab.integrators import PhiCache, step_epbm5, step_erk4, step_rk4

from epbm_oracle import closed_form_vmap


def scalar_problem(lam, mu):
    """y' = lam*y + mu*y with the mu part treated as 'nonlinear'."""
    return DiagonalProblem(L_diag=np.array([lam], dtype=np.complex128),
                           nonlinear=lambda t, y: mu * y)


# --- tableau structure --------------------------------------------------------

class TestESDCTableau:
    def test_nodes_are_lobatto4(self):
        tab = esdc_tableau()
        s5 = math.sqrt(5.0)
        expect = np.array([0.0, 0.5 - s5 / 10.0, 0.5 + s5 / 10.0, 1.0])
        assert np.allclose(tab.nodes, expect, rtol=0, atol=1e-15)
        assert np.allclose(tab.delta, np.diff(expect), rtol=0, atol=1e-15)
        assert tab.delta[0] == pytest.approx(tab.delta[2], abs=1e-16)

    def test_default_sweep_count(self):
        assert esdc_tableau().sweeps == 6

    @pytest.mark.parametrize("j", [0, 1, 2])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_weights_invert_monomials(self, j, p):
        # Feeding node values of ((t - t_j)/delta_j)^p must return p! in
        # slot p and zero elsewhere: the weights are scaled inverse
        # Vandermonde rows.
        tab = esdc_tableau()
        tau = (tab.nodes - tab.nodes[j]) / tab.delta[j]
        b = tab.weights[j] @ tau ** p
        expect = np.zeros(4)
        expect[p] = math.factorial(p)
        assert np.allclose(b, expect, rtol=0, atol=1e-12)


class TestEPBMTableau:
    def test_nodes_symmetric_legendre(self):
        tab = epbm_tableau()
        z = tab.z
        assert z[0] == -1.0
        assert z[1] == pytest.approx(-z[4], abs=1e-16)
        assert z[2] == pytest.approx(-z[3], abs=1e-16)
        # z[1:] are the degree-4 Legendre roots: P4(z) = 0
        p4 = np.polynomial.legendre.Legendre([0, 0, 0, 0, 1])
        assert np.max(np.abs(p4(z[1:]))) < 1e-14

    def test_vmap_matches_closed_form(self):
        tab = epbm_tableau()
        diff = np.abs(tab.vmap - closed_form_vmap())
        assert np.max(diff) < 1e-12

    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_vmap_inverts_monomials(self, p):
        # N values ((z - z1))^p at nodes 2..5 map to p! in slot p: v_k are
        # the scaled derivatives of the interpolant about node 1.
        tab = epbm_tableau()
        v = tab.vmap @ (tab.z[1:] + 1.0) ** p
        expect = np.zeros(4)
        expect[p] = math.factorial(p)
        assert np.allclose(v, expect, rtol=0, atol=1e-12)


class TestIMRKTableau:
    def test_structure(self):
        tab = imrk_tableau()
        assert tab.gamma == 0.25
        # ESDIRK: zero (1,1) entry, shared diagonal gamma afterwards
        assert tab.A_implicit[0, 0] == 0.0
        assert np.allclose(np.diag(tab.A_implicit)[1:], 0.25, rtol=0, atol=0)
        assert np.allclose(tab.A_explicit, np.tril(tab.A_explicit, -1),
                           rtol=0, atol=0)
        # stiffly accurate: last implicit row equals the weights
        assert np.array_equal(tab.A_implicit[5], tab.b)

    def test_consistency_conditions(self):
        tab = imrk_tableau()
        assert np.allclose(tab.A_implicit.sum(axis=1), tab.c, rtol=0, atol=1e-13)
        assert np.allclose(tab.A_explicit.sum(axis=1), tab.c, rtol=0, atol=1e-13)
        assert tab.b.sum() == pytest.approx(1.0, abs=1e-13)
        for p in (2, 3, 4):
            assert tab.b @ tab.c ** (p - 1) == pytest.approx(1.0 / p, abs=1e-13)


def test_make_method_payloads():
    assert isinstance(make_method("esdc6").tableau, type(esdc_tableau()))
    assert isinstance(make_method("epbm5").tableau, type(epbm_tableau()))
    assert isinstance(make_method("imrk4").tableau, type(imrk_tableau()))
    for family in ("erk4", "rk4", "exp_euler"):
        assert make_method(family).tableau is None
    assert [f for f in FAMILIES if make_method(f).block] == ["epbm5"]
    with pytest.raises(ValueError):
        make_method("rk45")


# --- frozen one-step values ---------------------------------------------------
# One step of each exponential method on y' = z1*y + z2*y (the z2 term fed
# through the nonlinear slot), h = 1, y0 = 1.  Expected values frozen from a
# 50-digit mpmath re-derivation of the phi-expansion update formulas.

Z1 = 0.21 + 1.4j
Z2 = 0.07 - 0.35j

ERK4_ONE_STEP = 0.65697762749481036 + 1.1490153147135232j
ESDC6_ONE_STEP = 0.658352662568138 + 1.1477177578720751j
EPBM5_TRANSFER_ROW0 = np.array([
    0.20968473510955979 + 1.21572771107706j,
    0.14907760971741119 - 0.026896886492850121j,
    0.14546031951716608 - 0.17815874730801656j,
    -0.0048683433655421806 - 0.017785757331428331j,
    0.0017999754563189498 + 0.002145660806355123j,
])


class TestFrozenOneStep:
    def test_erk4(self):
        prob = scalar_problem(Z1, Z2)
        y = step_erk4(prob, 0.0, np.array([1.0 + 0j]), 1.0,
                      PhiCache(prob.L_diag))
        assert abs(y[0] - ERK4_ONE_STEP) < 5e-13 * abs(ERK4_ONE_STEP)

    def test_esdc6(self):
        prob = scalar_problem(Z1, Z2)
        res = integrate(prob, make_method("esdc6"), np.array([1.0 + 0j]),
                        (0.0, 1.0), 1)
        assert abs(res.y[0] - ESDC6_ONE_STEP) < 5e-13 * abs(ESDC6_ONE_STEP)

    def test_epbm5_block_transfer_row(self):
        # Build the 5x5 one-step block transfer map column by column from
        # basis blocks; its first row propagates node 1.
        prob = scalar_problem(Z1, Z2)
        phis = PhiCache(prob.L_diag)
        M = np.empty((5, 5), dtype=np.complex128)
        for col in range(5):
            block = np.zeros((5, 1), dtype=np.complex128)
            block[col, 0] = 1.0
            M[:, col] = step_epbm5(prob, 0.0, block, 1.0, phis,
                                   epbm_tableau())[:, 0]
        assert np.max(np.abs(M[0] - EPBM5_TRANSFER_ROW0)) < 5e-13


# --- reduction identities -----------------------------------------------------

def test_erk4_reduces_to_rk4_at_zero_L():
    # With L = 0 the Krogstad stages collapse to the classical RK4 stages.
    rng = np.random.default_rng(7)
    y0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    prob = DiagonalProblem(L_diag=np.zeros(6, dtype=np.complex128),
                           nonlinear=lambda t, y: np.sin(t + 0.3) * y * 1.1)
    a = step_erk4(prob, 0.4, y0.copy(), 0.17, PhiCache(prob.L_diag))
    b = step_rk4(prob, 0.4, y0.copy(), 0.17, PhiCache(prob.L_diag))
    assert np.max(np.abs(a - b)) < 1e-14


def test_rk4_linear_step_is_truncated_taylor():
    z = 0.3 - 0.8j
    prob = DiagonalProblem(L_diag=np.array([z]), nonlinear=lambda t, y: 0.0 * y)
    y = step_rk4(prob, 0.0, np.array([1.0 + 0j]), 1.0, PhiCache(prob.L_diag))
    taylor = 1.0 + z + z ** 2 / 2.0 + z ** 3 / 6.0 + z ** 4 / 24.0
    assert abs(y[0] - taylor) < 1e-15


def test_exp_euler_exact_on_linear_problem():
    z = -0.4 + 2.2j
    prob = DiagonalProblem(L_diag=np.array([z]), nonlinear=lambda t, y: 0.0 * y)
    res = integrate(prob, make_method("exp_euler"), np.array([1.0 + 0j]),
                    (0.0, 1.0), 1)
    assert abs(res.y[0] - np.exp(z)) < 1e-14


@pytest.mark.parametrize("family", ["erk4", "esdc6", "epbm5", "rk4"])
def test_polynomial_nonlinearity_integrated_exactly(family):
    # y' = 3 t^2 with L = 0 has solution y0 + t^3; every quadrature involved
    # (RK4/Simpson, Lobatto-4, Legendre-4 interpolation) is exact on cubics.
    prob = DiagonalProblem(L_diag=np.zeros(1, dtype=np.complex128),
                           nonlinear=lambda t, y: np.full_like(y, 3.0 * t * t))
    res = integrate(prob, make_method(family), np.array([0.25 + 0j]),
                    (0.0, 2.0), 8)
    assert res.ok
    assert abs(res.y[0] - (0.25 + 8.0)) < 1e-10


def test_epbm5_endpoint_is_exact_time():
    # The composite driver takes n+1 block steps so node 1 lands exactly on t1.
    prob = scalar_problem(0.3 + 1.1j, 0.0)
    res = integrate(prob, make_method("epbm5"), np.array([1.0 + 0j]),
                    (0.0, 1.3), 7)
    assert res.t == pytest.approx(1.3, abs=1e-14)
    assert abs(res.y[0] - np.exp((0.3 + 1.1j) * 1.3)) < 1e-12


# --- convergence orders (Richardson on the split Dahlquist problem) -----------

ORDER_CASES = [
    ("erk4", 4.0, 100),
    ("esdc6", 6.0, 25),
    ("epbm5", 5.0, 100),
    ("imrk4", 4.0, 200),
    ("rk4", 4.0, 200),
    ("exp_euler", 1.0, 4000),
]


@pytest.mark.parametrize("family,order,n", ORDER_CASES)
def test_observed_order(family, order, n):
    prob = scalar_problem(0.5j, 0.5j)
    exact = np.exp(1j * 10.0)
    meth = make_method(family)
    errs = []
    for nn in (n, 2 * n):
        res = integrate(prob, meth, np.array([1.0 + 0j]), (0.0, 10.0), nn)
        assert res.ok
        errs.append(abs(res.y[0] - exact))
    observed = math.log2(errs[0] / errs[1])
    assert abs(observed - order) < 0.15


# --- driver plumbing ----------------------------------------------------------

def test_sampling_nearest_step():
    lam = 0.2 - 1.0j
    prob = scalar_problem(lam, 0.0)
    res = integrate(prob, make_method("rk4"), np.array([1.0 + 0j]),
                    (0.0, 1.0), 10, sample_times=[0.0, 0.33, 1.0])
    times = [s[0] for s in res.samples]
    assert times == pytest.approx([0.0, 0.3, 1.0], abs=1e-14)
    for t, y in res.samples:
        assert abs(y[0] - np.exp(lam * t)) < 1e-5
    # the t=0 sample is the initial state itself
    assert res.samples[0][1][0] == 1.0 + 0j


def test_sampling_epbm_block_node():
    lam = 0.1 + 0.7j
    prob = scalar_problem(lam, 0.0)
    res = integrate(prob, make_method("epbm5"), np.array([1.0 + 0j]),
                    (0.0, 1.0), 10, sample_times=[0.0, 0.3, 1.0])
    times = [s[0] for s in res.samples]
    assert times == pytest.approx([0.0, 0.3, 1.0], abs=1e-14)
    for t, y in res.samples:
        assert abs(y[0] - np.exp(lam * t)) < 1e-10


def test_blowup_reports_last_finite_state():
    # y' = y^2 from y0 = 2 blows up at t = 0.5; with h = 0.2 the overflow hits
    # within a few steps and the driver must hand back the pre-blowup state.
    prob = DiagonalProblem(L_diag=np.zeros(1, dtype=np.complex128),
                           nonlinear=lambda t, y: y * y)
    res = integrate(prob, make_method("rk4"), np.array([2.0 + 0j]),
                    (0.0, 10.0), 50)
    assert not res.ok
    assert res.blowup_step is not None and 1 <= res.blowup_step <= 50
    assert np.isfinite(res.y).all()
    assert res.t == pytest.approx((res.blowup_step - 1) * 0.2, abs=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_blowup_reports_a_consistent_time_and_state(family):
    # y' = lam*y exactly while N vanishes; N turns NaN after t = 0.62, so the
    # run diverges mid-interval and must hand back a (t, y) pair of the
    # exact solution -- the block method's node 1 included.
    lam = 0.3 + 1.1j
    prob = DiagonalProblem(
        L_diag=np.array([lam]),
        nonlinear=lambda t, y: y * (np.nan if t > 0.62 else 0.0))
    res = integrate(prob, make_method(family), np.array([1.0 + 0j]),
                    (0.0, 2.0), 20)
    assert not res.ok and res.blowup_step is not None
    assert 0.0 <= res.t < 2.0
    assert abs(res.y[0] - np.exp(lam * res.t)) < 1e-4


def test_blowup_during_epbm_startup():
    prob = DiagonalProblem(L_diag=np.zeros(1, dtype=np.complex128),
                           nonlinear=lambda t, y: y * y)
    res = integrate(prob, make_method("epbm5"), np.array([2.0 + 0j]),
                    (0.0, 10.0), 50)
    assert not res.ok
    assert np.isfinite(res.y).all()


def test_integrate_validation():
    prob = scalar_problem(0.1j, 0.0)
    meth = make_method("erk4")
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError):
        integrate(prob, meth, y0, (1.0, 1.0), 10)
    with pytest.raises(ValueError):
        integrate(prob, meth, y0, (0.0, 1.0), 0)
    with pytest.raises(ValueError):
        integrate(prob, dataclasses.replace(meth, family="bogus"), y0,
                  (0.0, 1.0), 10)


@pytest.mark.parametrize("case, match", [
    ("short_y0", r"\(31,\).*\(32,\)"),
    ("string_modification", "diagonals"),
    ("hyperviscosity_without_grid", "grid"),
])
def test_integrate_rejects_bad_input(case, match):
    import expstab as es
    prob, u0 = es.build_zds(32)
    mod = None
    if case == "short_y0":
        u0 = u0[:31]
    elif case == "string_modification":
        mod = "abs_k3:rho=0.1"
    else:
        prob = DiagonalProblem(prob.L_diag, prob.nonlinear)
        mod = es.HyperviscositySpec(4, 1.0)
    with pytest.raises(ValueError, match=match):
        integrate(prob, make_method("erk4"), u0, (0.0, 1.0), 10,
                  modification=mod)


def test_families_listing():
    assert FAMILIES == ("erk4", "esdc6", "epbm5", "imrk4", "rk4", "exp_euler")
