"""Tests for the pseudo-spectral layer: grid conventions, dealiased products
against a direct convolution oracle, benchmark problem structure, operator
modifications, and snapshot files."""
import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import expstab as es
from expstab.integrators import _expand, with_diagonals
from expstab.spectral import _Dealias


def modified(spec, prob, dt):
    """The problem a modification steps: L + dL and N - dN*y."""
    dL, dN = spec.diagonals(prob, dt)
    return with_diagonals(prob, prob.L_diag + dL, dN)


def rng_spectrum(nx, seed, max_index=None):
    """Random complex spectrum supported on |index| <= max_index."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(nx) + 1j * rng.standard_normal(nx)
    if max_index is not None:
        j = np.minimum(np.arange(nx), nx - np.arange(nx))
        u[j > max_index] = 0.0
    return u


def convolution_oracle(nx, u_hat, v_hat):
    """Direct integer-indexed convolution w_m = (1/nx) sum u_j v_{m-j},
    restricted to the retained band |m| <= floor((2/3)(nx/2)).  Mode indices
    run -nx/2+1 .. nx/2 (positive Nyquist)."""
    half = nx // 2
    cut = (2 * half) // 3
    w = np.zeros(nx, dtype=np.complex128)
    for m in range(-cut, cut + 1):
        acc = 0.0 + 0.0j
        for j in range(-half + 1, half + 1):
            l = m - j
            if -half + 1 <= l <= half:
                acc += u_hat[j % nx] * v_hat[l % nx]
        w[m % nx] = acc / nx
    return w


# --- grid and transform conventions --------------------------------------------

class TestPeriodicGrid:
    def test_wavenumber_ordering(self):
        g = es.PeriodicGrid(nx=8, a=0.0, b=2.0 * math.pi)
        assert np.allclose(g.wavenumbers, [0, 1, 2, 3, 4, -3, -2, -1],
                           rtol=0, atol=1e-15)
        assert g.dk == pytest.approx(1.0, abs=1e-16)

    def test_points(self):
        g = es.PeriodicGrid(nx=8, a=-1.0, b=1.0)
        assert np.allclose(g.x, -1.0 + 0.25 * np.arange(8), rtol=0, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            es.PeriodicGrid(nx=12, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            es.PeriodicGrid(nx=4, a=0.0, b=1.0)
        with pytest.raises(ValueError):
            es.PeriodicGrid(nx=8, a=1.0, b=1.0)

    @pytest.mark.parametrize("nx, a, b", [
        (8.5, 0.0, 1.0),            # would give 9 points and 9 wavenumbers
        (8, 0.0, math.inf),         # would give dk = 0 and NaN points
        (8, -math.inf, 1.0),
    ])
    def test_rejects_fractional_size_and_infinite_domain(self, nx, a, b):
        with pytest.raises(ValueError):
            es.PeriodicGrid(nx=nx, a=a, b=b)

    def test_keeps_a_whole_float_size_as_an_int(self):
        g = es.PeriodicGrid(8.0, 0.0, 1.0)
        assert type(g.nx) is int and g.nx == 8
        u = rng_spectrum(8, 4, max_index=2)
        got = es.dealiased_product(g, u, u)
        assert got.shape == (8,)
        assert np.max(np.abs(got - convolution_oracle(8, u, u))) < 1e-12


class TestDealiasedProduct:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_convolution_band_limited(self, seed):
        nx = 16
        g = es.PeriodicGrid(nx=nx, a=0.0, b=2.0 * math.pi)
        u = rng_spectrum(nx, seed, max_index=5)
        v = rng_spectrum(nx, seed + 10, max_index=5)
        got = es.dealiased_product(g, u, v)
        want = convolution_oracle(nx, u, v)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_matches_convolution_full_support(self):
        # Content above the cut still feeds the retained band exactly; the
        # only aliased pair on the 3/2-size grid (Nyquist^2) folds onto an
        # index outside the band.
        nx = 16
        g = es.PeriodicGrid(nx=nx, a=0.0, b=2.0 * math.pi)
        u = rng_spectrum(nx, 3)
        v = rng_spectrum(nx, 4)
        got = es.dealiased_product(g, u, v)
        want = convolution_oracle(nx, u, v)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_band_zeroing(self):
        nx = 16
        g = es.PeriodicGrid(nx=nx, a=0.0, b=2.0 * math.pi)
        w = es.dealiased_product(g, rng_spectrum(nx, 5), rng_spectrum(nx, 6))
        j = np.minimum(np.arange(nx), nx - np.arange(nx))
        assert np.all(w[j > 5] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([8, 16, 32]), st.integers(1, 4),
           st.integers(0, 2 ** 32 - 1))
    def test_stacked_rows_match_row_products(self, nx, rows, seed):
        # a stack of spectra along leading axes is transformed row by row:
        # each row is its own product, exact on the retained band
        g = es.PeriodicGrid(nx=nx, a=0.0, b=2.0 * math.pi)
        u = np.stack([rng_spectrum(nx, seed + r) for r in range(rows)])
        v = np.stack([rng_spectrum(nx, seed + rows + r) for r in range(rows)])
        got = es.dealiased_product(g, u, v)
        assert got.shape == (rows, nx)
        for r in range(rows):
            own = es.dealiased_product(g, u[r], v[r])
            assert np.max(np.abs(got[r] - own)) <= 1e-14 * np.max(np.abs(own))
            want = convolution_oracle(nx, u[r], v[r])
            assert np.max(np.abs(got[r] - want)) < 1e-12 * max(
                1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("nu, nv", [(31, 31), (33, 33), (64, 64),
                                        (32, 16)])
    def test_rejects_wrong_length_spectra(self, nu, nv):
        g = es.PeriodicGrid(32, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"grid\.nx = 32 .* \(%d,\) "
                           r"and \(%d,\)" % (nu, nv)):
            es.dealiased_product(g, np.ones(nu), np.ones(nv))

    def test_roundtrip_is_band_projection(self):
        nx = 32
        d = _Dealias(nx)
        u = rng_spectrum(nx, 7)
        back = d.from_phys(d.to_phys(u), d.band)
        assert np.max(np.abs(back - u * d.band)) < 1e-12

    def test_real_field_transforms(self):
        # a conjugate-symmetric spectrum has a real physical field, which
        # the real-field pair builds on the nx-point grid from the
        # nonnegative modes of the band alone
        nx = 32
        d = _Dealias(nx)
        x = np.linspace(0, 2 * np.pi, nx, endpoint=False)
        field = np.cos(3 * x) + 0.2 * np.sin(5 * x)
        u = np.fft.fft(field + 0.1 * np.cos(13 * x))   # mode 13 > B = 10
        real = d.to_phys_real(u)
        assert np.max(np.abs(real - field)) < 1e-12
        back = d.from_phys_real(real, 1.0)     # modes 0..B alone
        assert back.shape == (d.cut + 1,)
        assert np.max(np.abs(_expand(back, nx) - u * d.band)) < 1e-12


def test_building_problems_leaves_numpy_fft_unimported():
    # the FFT is bound on the first transform, not when a problem is built,
    # so a process that only sets up never imports numpy.fft
    src = os.path.dirname(os.path.dirname(es.__file__))
    code = ("import sys, expstab; expstab.build_zds(128); "
            "expstab.build_kdv(512); print('numpy.fft' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


# --- benchmark problems ---------------------------------------------------------

class TestBuildZDS:
    def test_structure(self):
        prob, u0 = es.build_zds(128)
        g = prob.grid
        assert (g.nx, g.a, g.b) == (128, -4.0 * math.pi, 4.0 * math.pi)
        assert g.dk == pytest.approx(0.25, abs=1e-16)
        k = g.wavenumbers
        assert np.allclose(prob.L_diag, 1j * k ** 3, rtol=0, atol=1e-12)
        # plane wave plus one small seed mode at k = 3/4
        assert u0[0] == 128.0
        assert u0[3] == 128 * 0.01
        assert np.count_nonzero(u0) == 2

    def test_cubic_term_on_plane_wave(self):
        # for u = c (constant field), 2i|u|^2 u = 2i |c|^2 c exactly
        prob, _ = es.build_zds(64)
        c = 1.3 - 0.4j
        u = np.zeros(64, dtype=np.complex128)
        u[0] = 64 * c
        n = prob.nonlinear(0.0, u)
        expect = np.zeros(64, dtype=np.complex128)
        expect[0] = 64 * 2j * abs(c) ** 2 * c
        assert np.max(np.abs(n - expect)) < 1e-11 * abs(expect[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            es.build_zds(48)
        with pytest.raises(ValueError):
            es.build_zds(16)
        with pytest.raises(ValueError, match="power of two"):
            es.build_zds(128.5)


class TestBuildKdV:
    def test_structure(self):
        prob, u0 = es.build_kdv(512)
        g = prob.grid
        assert (g.nx, g.a, g.b) == (512, 0.0, 2.0)
        k = g.wavenumbers
        assert np.allclose(prob.L_diag, 0.022j * k ** 3, rtol=0, atol=1e-9)
        # u0 = cos(pi x): half-weight in modes +-1
        assert u0[1] == 256.0 and u0[-1] == 256.0
        assert np.count_nonzero(u0) == 2

    def test_nonlinear_preserves_reality(self):
        prob, u0 = es.build_kdv(64)
        n = prob.nonlinear(0.0, u0)
        # exactly Hermitian: the negative modes mirror the nonnegative ones
        assert np.array_equal(n[33:], np.conj(n[31:0:-1]))
        assert n[0].imag == 0 and n[32] == 0
        phys = np.fft.ifft(n)
        assert np.max(np.abs(phys.imag)) < 1e-12
        # -(1/2)(u^2)_x for u = cos(pi x) is (pi/2) sin(2 pi x)
        x = prob.grid.x
        assert np.max(np.abs(phys.real - 0.5 * math.pi * np.sin(2 * math.pi * x))) < 1e-10

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonlinear_matches_convolution(self, seed):
        # N = -(ik/2) P_B (P_B u)^2 on a real field with full support below
        # Nyquist: the dealiased square of its band P_B u
        nx = 32
        prob, _ = es.build_kdv(nx)
        u = rng_spectrum(nx, seed)
        u[0] = u[0].real
        u[nx // 2] = 0.0
        u[nx // 2 + 1:] = np.conj(u[nx // 2 - 1:0:-1])
        ub = u * _Dealias(nx).band
        want = -0.5j * prob.grid.wavenumbers * convolution_oracle(nx, ub, ub)
        assert np.max(np.abs(prob.nonlinear(0.0, u) - want)) < 1e-12 * max(
            1.0, np.max(np.abs(want)))

    def test_validation(self):
        with pytest.raises(ValueError):
            es.build_kdv(100)
        with pytest.raises(ValueError, match="power of two"):
            es.build_kdv(512.5)


def test_spectral_radius_fraction_anchors():
    prob, _ = es.build_zds(128)
    assert es.spectral_radius_fraction(prob.L_diag, 0.02, 2.0 / 3.0) \
        == pytest.approx(23.1525, abs=5e-5)
    assert es.spectral_radius_fraction(prob.L_diag, 0.02, 1.0) \
        == pytest.approx(81.92, abs=1e-10)


def test_spectral_radius_fraction_validation():
    L = np.array([1j, 2j])
    with pytest.raises(ValueError):
        es.spectral_radius_fraction(L, 0.1, 0.0)
    with pytest.raises(ValueError):
        es.spectral_radius_fraction(L, 0.1, 1.5)
    with pytest.raises(ValueError):
        es.spectral_radius_fraction(L, 0.0, 0.5)
    with pytest.raises(ValueError):
        es.spectral_radius_fraction(L, math.inf, 0.5)
    with pytest.raises(ValueError):
        es.spectral_radius_fraction(np.array([]), 0.1, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="not finite"):
            es.spectral_radius_fraction(np.array([1j, bad, 2j, 3j]), 0.1, 1.0)


# --- repartitioning -------------------------------------------------------------

class TestRepartition:
    @pytest.mark.parametrize("spec", [
        es.RepartitionSpec("abs_k3", rho=math.pi / 64),
        es.RepartitionSpec("k2", rho=math.pi / 3),
        es.RepartitionSpec("identity", epsilon=8.0),
        es.RepartitionSpec("abs_k3", epsilon=0.125),
    ])
    def test_same_equation(self, spec):
        # L^ u + N^(u) must equal L u + N(u): repartitioning only moves a
        # diagonal between the two sides.
        prob, _ = es.build_zds(64)
        mod = modified(spec, prob, 0.1)
        u = rng_spectrum(64, 11, max_index=21)
        f0 = prob.L_diag * u + prob.nonlinear(0.0, u)
        f1 = mod.L_diag * u + mod.nonlinear(0.0, u)
        scale = np.max(np.abs(f0))
        assert np.max(np.abs(f0 - f1)) < 1e-13 * scale

    def test_abs_k3_rotates_all_eigenvalues(self):
        rho = math.pi / 32
        prob, _ = es.build_zds(128)
        mod = modified(es.RepartitionSpec("abs_k3", rho=rho), prob, 0.1)
        L = mod.L_diag
        k = prob.grid.wavenumbers
        ang = np.angle(L[k > 0])
        # i k^3 sits at +pi/2; adding -tan(rho)|k^3| rotates to pi/2 + rho
        assert np.max(np.abs(ang - (math.pi / 2 + rho))) < 1e-12
        assert L[0] == 0.0

    def test_k2_rotation_pivots_at_unit_modulus(self):
        rho = math.pi / 8
        prob, _ = es.build_zds(128)
        mod = modified(es.RepartitionSpec("k2", rho=rho), prob, 0.1)
        # eps = tan(rho); |L| = k^3 = 1 at k = 1 (index 4), which is rotated
        # by exactly rho; smaller eigenvalues over-rotate, larger under-rotate
        assert np.angle(mod.L_diag[4]) == pytest.approx(math.pi / 2 + rho,
                                                        abs=1e-12)
        ang_small = np.angle(mod.L_diag[2])           # k = 0.5, |L| < 1
        ang_large = np.angle(mod.L_diag[42])          # k = 10.5, |L| >> 1
        pivot = math.pi / 2 + rho
        assert math.pi / 2 < ang_large < pivot < ang_small < math.pi

    def test_identity_shifts_uniformly(self):
        prob, _ = es.build_zds(64)
        mod = modified(es.RepartitionSpec("identity", epsilon=8.0), prob, 0.1)
        assert np.allclose(mod.L_diag, prob.L_diag - 8.0, rtol=0, atol=0)

    def test_k2_raw_eps_shift(self):
        prob, _ = es.build_kdv(64)
        shift = es.repartition_shift(prob.L_diag,
                                     es.RepartitionSpec("k2", epsilon=0.5),
                                     prob.grid)
        assert np.array_equal(shift, -0.5 * prob.grid.wavenumbers ** 2)

    def test_k2_needs_a_nonzero_operator(self):
        prob, _ = es.build_kdv(64)
        with pytest.raises(ValueError, match="nonzero"):
            es.repartition_shift(np.zeros(64, dtype=np.complex128),
                                 es.RepartitionSpec("k2", rho=0.1), prob.grid)

    def test_validation(self):
        with pytest.raises(ValueError):
            es.RepartitionSpec("fourth_order", rho=0.1)
        with pytest.raises(ValueError):
            es.RepartitionSpec("abs_k3")
        with pytest.raises(ValueError, match="exactly one"):
            es.RepartitionSpec("abs_k3", rho=7.0, epsilon=1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                es.RepartitionSpec("abs_k3", epsilon=bad)
        with pytest.raises(ValueError):
            es.RepartitionSpec("abs_k3", rho=math.pi / 2)
        with pytest.raises(ValueError):
            es.RepartitionSpec("abs_k3", rho=-0.1)
        with pytest.raises(ValueError):
            es.RepartitionSpec("k2", epsilon=-1.0)
        prob, _ = es.build_zds(64)
        with pytest.raises(ValueError):
            modified(es.RepartitionSpec("identity", rho=0.1), prob, 0.1)
        with pytest.raises(ValueError):     # k2 needs the problem's grid
            es.repartition_shift(prob.L_diag, es.RepartitionSpec("k2", rho=0.1))

    def test_describe(self):
        assert es.RepartitionSpec("abs_k3", rho=0.5).describe() == "abs_k3:rho=0.5"
        assert es.RepartitionSpec("identity", epsilon=8.0).describe() \
            == "identity:eps=8"


class TestHyperviscosity:
    def test_modifies_linear_part_only(self):
        prob, _ = es.build_zds(128)
        spec = es.HyperviscositySpec(8, 1e10)
        dt = 0.02
        mod = modified(spec, prob, dt)
        k = prob.grid.wavenumbers / 10.5    # the band's edge, 42 * dk
        assert np.allclose(mod.L_diag, prob.L_diag - dt ** 4 * 1e10 * k ** 8,
                           rtol=1e-15, atol=0)
        assert mod.nonlinear is prob.nonlinear
        # real, non-positive shift
        shift = mod.L_diag - prob.L_diag
        assert np.max(np.abs(shift.imag)) == 0.0
        assert np.max(shift.real) <= 0.0

    @pytest.mark.parametrize("build, nx", [(es.build_zds, 32),
                                           (es.build_zds, 128),
                                           (es.build_kdv, 512)])
    def test_damps_the_band_edge_by_gamma_dt4(self, build, nx):
        # k is measured in units of the retained band's edge B dk, so the
        # damping there is -dt^4 gamma on any domain and at any Nx
        prob, _ = build(nx)
        B = nx // 3
        dL, dN = es.HyperviscositySpec(8, 1e10).diagonals(prob, 0.02)
        assert dN is None
        assert dL[B] == dL[-B] == -(0.02 ** 4 * 1e10)
        assert np.all(np.abs(dL[:B]) < 0.02 ** 4 * 1e10)

    def test_zero_gamma_is_identity(self):
        prob, _ = es.build_zds(64)
        mod = modified(es.HyperviscositySpec(4, 0.0), prob, 0.1)
        assert np.array_equal(mod.L_diag, prob.L_diag)

    def test_validation(self):
        with pytest.raises(ValueError):
            es.HyperviscositySpec(5, 1.0)
        with pytest.raises(ValueError):
            es.HyperviscositySpec(4, -1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                es.HyperviscositySpec(8, bad)
        prob, _ = es.build_zds(64)
        with pytest.raises(ValueError):
            modified(es.HyperviscositySpec(4, 1.0), prob, 0.0)

    def test_describe(self):
        assert es.HyperviscositySpec(8, 1e10).describe() \
            == "hyperviscosity:m=8:gamma=10000000000"

    def test_refuses_a_q_field(self, tmp_path, monkeypatch):
        # the power of dt is the constant HYPERVISCOSITY_POWER, not a field
        with pytest.raises(ValueError, match="unknown field 'q'"):
            es.parse_modification("hyperviscosity:m=8:gamma=1e10:q=3")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        assert es.main(["converge", "--modification",
                        "hyperviscosity:m=8:gamma=1e10:q=3"]) == 2
        assert os.listdir(tmp_path) == []


# --- the modification grammar ------------------------------------------------------

class TestParseModification:
    def test_angles(self):
        assert es.parse_angle("pi") == math.pi
        assert es.parse_angle("pi/64") == math.pi / 64
        assert es.parse_angle("0.5") == 0.5
        assert es.parse_angle(" 0 ") == 0.0

    @pytest.mark.parametrize("s", ["two", "pi*2", "pi/", "1/2", "pi/0"])
    def test_angle_rejects(self, s):
        with pytest.raises(ValueError):
            es.parse_angle(s)

    @pytest.mark.parametrize("s, spec", [
        ("none", None),
        ("abs_k3:rho=pi/64", es.RepartitionSpec("abs_k3", rho=math.pi / 64)),
        ("identity:eps=8", es.RepartitionSpec("identity", epsilon=8.0)),
        ("k2:eps=0.5", es.RepartitionSpec("k2", epsilon=0.5)),
        ("identity:eps=16", es.RepartitionSpec("identity", epsilon=16.0)),
        ("k2:rho=pi/3", es.RepartitionSpec("k2", rho=math.pi / 3)),
        ("hyperviscosity:m=8:gamma=1e10", es.HyperviscositySpec(8, 1e10)),
        ("hyperviscosity:gamma=1e6:m=4", es.HyperviscositySpec(4, 1e6)),
    ])
    def test_accepts(self, s, spec):
        assert es.parse_modification(s) == spec

    @pytest.mark.parametrize("s", [
        # every field is keyed: no value is named by its position
        "identity:16", "k2:pi/3", "hyperviscosity:4:1e6",
        "", "abs_k3:rho=pi/64:", "hyperviscosity", "abs_k3:m=8",
        "abs_k3", "bogus:rho=0.1", "k2:two", "k2:foo=1", "k2:0.1:0.2:0.3",
        "hyperviscosity:8", "hyperviscosity:5:1.0", "hyperviscosity:m=8.5:1",
        "hyperviscosity:m=8:q=3", "hyperviscosity:4:1e6:2",
        "hyperviscosity:8:1:3:4",
        # one angle per repartition, each field once, finite values
        "abs_k3:0.1:0.5", "k2:rho=0.1:eps=0.5", "identity:8:0.3",
        "identity:rho=0.3", "abs_k3:rho=pi/4:rho=pi/8", "identity:8:eps=9",
        "hyperviscosity:8:1e10:gamma=1", "hyperviscosity:8:inf",
        "hyperviscosity:8:nan", "k2:eps=nan", "identity:eps=inf",
    ])
    def test_rejects(self, s):
        with pytest.raises(ValueError):
            es.parse_modification(s)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.tuples(st.sampled_from(["abs_k3", "k2", "identity"]),
                  st.none() | st.floats(0.0, math.pi / 2, exclude_max=True),
                  st.none() | st.floats(0.0, 1e300)),
        st.builds(es.HyperviscositySpec, st.sampled_from([4, 6, 8]),
                  st.floats(0.0, 1e300))))
    def test_inverts_describe(self, spec):
        # rho and eps are drawn independently: both or neither (or identity
        # with rho) is refused, and every spec that is built round-trips
        if isinstance(spec, tuple):
            kind, rho, eps = spec
            refused = (rho is None) == (eps is None) or (
                kind == "identity" and eps is None)
            if refused:
                with pytest.raises(ValueError):
                    es.RepartitionSpec(kind, rho=rho, epsilon=eps)
                return
            spec = es.RepartitionSpec(kind, rho=rho, epsilon=eps)
        assert es.parse_modification(spec.describe()) == spec

    def test_inverts_describe_of_the_modifications_in_use(self, monkeypatch):
        # every modification of the parity matrix and of the benchmark's
        # workloads, read from their files
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        modules = {}
        for name, rel in (("parity", "tools/parity.py"),
                          ("workloads", "perfbench/workloads.py")):
            spec = importlib.util.spec_from_file_location(
                name, os.path.join(root, rel))
            modules[name] = importlib.util.module_from_spec(spec)
            # workloads.py defines dataclasses, which look their module up
            monkeypatch.setitem(sys.modules, name, modules[name])
            spec.loader.exec_module(modules[name])
        mods = modules["parity"]._modifications(es)
        for workload in (modules["workloads"].ZdsLadder(),
                         modules["workloads"].KdvLongtime()):
            workload.setup()
            runs = workload.runs
            mods += [mod for _, mod in (runs.values() if isinstance(
                runs, dict) else runs)]
        mods = {mod for mod in mods if mod is not None}
        assert len(mods) == 7
        for mod in mods:
            assert es.parse_modification(mod.describe()) == mod

    def test_repartition_ignores_dt(self):
        prob, _ = es.build_kdv(64)
        spec = es.RepartitionSpec("k2", rho=math.pi / 3)
        a, b = modified(spec, prob, 0.1), modified(spec, prob, 7.0)
        u = rng_spectrum(64, 3, max_index=21)
        assert np.array_equal(a.L_diag, b.L_diag)
        assert np.array_equal(a.nonlinear(0.0, u), b.nonlinear(0.0, u))


# --- conservation and structure preservation under integration -------------------

def test_zds_power_conserved():
    # the cubic term is anti-Hermitian in L2: sum |u_k|^2 is a constant of
    # motion and the dealiasing projection preserves that structure
    prob, u0 = es.build_zds(64)
    res = es.integrate(prob, es.make_method("erk4"), u0, (0.0, 5.0), 2000)
    assert res.ok
    p0 = float(np.sum(np.abs(u0) ** 2))
    p1 = float(np.sum(np.abs(res.y) ** 2))
    assert abs(p1 - p0) < 1e-10 * p0


def test_kdv_mass_conserved_and_real():
    # mode 0 (the mean) has no linear or nonlinear forcing, and a real
    # initial field stays real: spectrum keeps conjugate symmetry
    prob, u0 = es.build_kdv(64)
    res = es.integrate(prob, es.make_method("erk4"), u0, (0.0, 0.5), 200)
    assert res.ok
    assert abs(res.y[0] - u0[0]) < 1e-10 * 64
    phys = np.fft.ifft(res.y)
    assert np.max(np.abs(phys.imag)) < 1e-9 * np.max(np.abs(phys.real))


# --- snapshot files -------------------------------------------------------------

class TestSnapshots:
    def test_roundtrip_bitwise(self, tmp_path):
        u = rng_spectrum(64, 21)
        p = tmp_path / "snap.txt"
        es.write_spectrum(p, "zds", 12.5, u)
        meta, v = es.read_spectrum(p)
        assert np.array_equal(u, v)
        assert meta["problem"] == "zds"
        assert meta["Nx"] == 64
        assert meta["t"] == 12.5
        assert "status" not in meta

    def test_blowup_flag(self, tmp_path):
        p = tmp_path / "snap.txt"
        es.write_spectrum(p, "kdv", 3.25, np.zeros(8, dtype=np.complex128),
                          status="blowup")
        meta, _ = es.read_spectrum(p)
        assert meta["status"] == "blowup"

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "other.txt"
        p.write_text("k1,k2,absR\n0,0,1\n")
        with pytest.raises(ValueError):
            es.read_spectrum(p)

    def test_truncated_file_names_the_row_counts(self, tmp_path):
        p = tmp_path / "snap.txt"
        es.write_spectrum(p, "zds", 1.0, rng_spectrum(16, 3))
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:6]) + lines[6][:5])   # cut mid-row
        with pytest.raises(ValueError, match=r"snap\.txt.*expected 16 rows, "
                                             r"found 5 complete"):
            es.read_spectrum(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("Nx=2", "Nx=-1"), "Nx=-1 is negative"),
        (lambda text: text + "5,6\n", "rows beyond its Nx=2"),
    ], ids=["negative_nx", "extra_row"])
    def test_refuses_a_bad_row_count(self, tmp_path, edit, message):
        p = tmp_path / "snap.txt"
        es.write_spectrum(p, "zds", 40.0, np.array([1 + 2j, 3 - 4j]))
        p.write_text(edit(p.read_text()))
        with pytest.raises(ValueError, match=message):
            es.read_spectrum(p)

    def test_header_format(self, tmp_path):
        p = tmp_path / "snap.txt"
        es.write_spectrum(p, "zds", 40.0, np.array([1 + 2j, 3 - 4j]))
        lines = p.read_text().splitlines()
        assert lines[0] == "# expstab-spectrum v1 problem=zds Nx=2 t=40"
        assert lines[1] == "1,2"
        assert lines[2] == "3,-4"
