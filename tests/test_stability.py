"""Tests for the partitioned-oscillator stability analysis: amplification
factors, transfer matrices, grid classification, split detection, and the
explicit-coupling decay bound."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import expstab.stability as stab
from expstab import FAMILIES, RepartitionSpec, make_method, phi_scalar
from expstab.stability import (
    MARGINAL_LIMIT,
    STABLE_TOL,
    DahlquistPoint,
    RepartitionAngle,
    StabilityGrid,
    asymptotic_decay,
    column_split_exists,
    epbm_transfer_matrix,
    grid_to_csv,
    power_bounded_classification,
    region_grid,
    stability_scalar,
)

ERK4 = make_method("erk4")
ESDC6 = make_method("esdc6")
EPBM5 = make_method("epbm5")
IMRK4 = make_method("imrk4")
RK4 = make_method("rk4")
EXP_EULER = make_method("exp_euler")


# --- amplification factors ------------------------------------------------------

def test_erk4_quarter_rotation_frozen_value():
    # |R^(1, 0)| at rho = pi/4, frozen from a 50-digit mpmath evaluation of
    # the Krogstad update.  The value sits marginally above 1: rotating the
    # linear eigenvalue far into the left half-plane is itself destabilizing.
    R = stability_scalar(ERK4, DahlquistPoint(1.0, 0.0),
                         RepartitionAngle(math.pi / 4))
    expect = 1.0026659446066793
    assert abs(abs(R) - expect) < 1e-13 * expect
    assert abs(R) > 1.0


@pytest.mark.parametrize("method", [ERK4, ESDC6, EXP_EULER])
def test_exponential_methods_exact_on_pure_linear(method):
    # with k2 = 0 and no repartitioning the step is exactly e^{i k1}
    for k1 in np.linspace(0.1, 60.0, 200):
        R = stability_scalar(method, DahlquistPoint(k1, 0.0))
        assert abs(abs(R) - 1.0) < 1e-12


def test_imrk4_a_stable_on_imaginary_axis():
    for k1 in np.linspace(0.1, 60.0, 200):
        R = stability_scalar(IMRK4, DahlquistPoint(k1, 0.0))
        assert abs(R) <= 1.0 + 1e-12


def test_rk4_unstable_on_imaginary_axis():
    # classical RK4 has |R(3i)| > 1: no exact oscillatory propagation
    assert abs(stability_scalar(RK4, DahlquistPoint(3.0, 0.0))) > 1.0


def test_exp_euler_matches_phi_formula():
    # R = e^{z1} + z2 phi_1(z1) with z1 = i k1 - eps|k1|, z2 = i k2 + eps|k1|
    k1, k2, rho = 2.3, 0.7, math.pi / 16
    eps = math.tan(rho)
    z1 = 1j * k1 - eps * k1
    z2 = 1j * k2 + eps * k1
    want = phi_scalar(0, z1) + z2 * phi_scalar(1, z1)
    got = stability_scalar(EXP_EULER, DahlquistPoint(k1, k2),
                           RepartitionAngle(rho))
    assert abs(got - want) < 1e-13 * abs(want)


@pytest.mark.parametrize("method", [ERK4, ESDC6, IMRK4, RK4])
@pytest.mark.parametrize("rho", [0.0, math.pi / 64])
def test_reflection_symmetry(method, rho):
    # negating both frequencies conjugates the step: |R^| is even
    angle = RepartitionAngle(rho) if rho else None
    for (k1, k2) in [(1.0, 0.5), (7.3, 2.1), (30.0, 11.0)]:
        a = stability_scalar(method, DahlquistPoint(k1, k2), angle)
        b = stability_scalar(method, DahlquistPoint(-k1, -k2), angle)
        assert abs(a - np.conj(b)) < 1e-13 * max(1.0, abs(a))


def test_family_mismatch_errors():
    with pytest.raises(ValueError):
        stability_scalar(EPBM5, DahlquistPoint(1.0, 0.0))
    with pytest.raises(ValueError):
        epbm_transfer_matrix(ERK4, DahlquistPoint(1.0, 0.0))


# --- block transfer matrix ------------------------------------------------------

def test_epbm_transfer_pure_linear_radius_one():
    for k1 in (0.5, 4.0, 25.0):
        M = epbm_transfer_matrix(EPBM5, DahlquistPoint(k1, 0.0))
        radius = np.max(np.abs(np.linalg.eigvals(M)))
        assert abs(radius - 1.0) < 1e-12


def test_epbm_transfer_consistent_with_stepper():
    # the matrix must act on an arbitrary block exactly like the stepper
    from expstab.integrators import step_epbm5
    from expstab.integrators import DiagonalProblem
    k1, k2 = 3.1, 0.9
    M = epbm_transfer_matrix(EPBM5, DahlquistPoint(k1, k2))
    rng = np.random.default_rng(2)
    b0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    z1 = np.array([1j * k1])
    z2 = np.array([1j * k2])
    prob = DiagonalProblem(L_diag=z1, nonlinear=lambda t, y: z2 * y)
    out = step_epbm5(prob, 0.0, b0[:, None], 1.0)
    assert np.max(np.abs(M @ b0 - out[:, 0])) < 1e-12 * np.max(np.abs(b0))


class TestPowerBoundedClassification:
    def test_identity_stable(self):
        assert power_bounded_classification(np.eye(5, dtype=complex)) == "stable"

    def test_rotation_stable(self):
        th = 0.3
        M = np.array([[math.cos(th), -math.sin(th)],
                      [math.sin(th), math.cos(th)]], dtype=complex)
        assert power_bounded_classification(M) == "stable"

    def test_defective_unit_radius_unstable(self):
        # Jordan block with eigenvalue 1: powers grow polynomially
        M = np.eye(5, dtype=complex) + np.diag(np.ones(4), 1)
        assert power_bounded_classification(M) == "unstable"

    def test_large_radius_unstable(self):
        assert power_bounded_classification(2.0 * np.eye(3, dtype=complex)) \
            == "unstable"

    def test_weak_growth_marginal(self):
        assert power_bounded_classification(1.005 * np.eye(2, dtype=complex)) \
            == "marginal"

    # the shear [[1, a], [0, 1]] has radius exactly 1 and its power M^p has
    # max-norm p*a against the limit 10*||M||max = 10, so the outcome pins
    # the range of powers checked to M^2..M^10001
    @pytest.mark.parametrize("a, want", [
        pytest.param(1.05e-3, "unstable", id="passes-10-at-9524"),
        pytest.param(0.95e-3, "stable", id="9.5-at-10001"),
        pytest.param(10 / 10000.5, "unstable", id="passes-10-at-10001"),
        pytest.param(10 / 10001.5, "stable", id="passes-10-at-10002"),
    ])
    def test_shear_pins_last_power(self, a, want):
        M = np.array([[1.0, a], [0.0, 1.0]])
        assert power_bounded_classification(M) == want

    @pytest.mark.parametrize("M", [
        pytest.param(epbm_transfer_matrix(EPBM5, DahlquistPoint(k1, 0.0)),
                     id="epbm5-k1=%g" % k1) for k1 in (0.1, 3.8, 22.3, 60.0)
    ] + [pytest.param(np.eye(3, dtype=complex) + np.diag([a, a], 1),
                      id="jordan-%g" % a) for a in (1e-5, 1e-4, 1e-3)])
    def test_matches_sequential_products(self, M):
        # the reference: one product and one norm per power M^2..M^10001
        limit = 10.0 * np.max(np.abs(M))
        radius = np.max(np.abs(np.linalg.eigvals(M)))
        want = "stable" if radius <= 1.0 + STABLE_TOL else "marginal"
        if radius > MARGINAL_LIMIT:
            want = "unstable"
        elif abs(radius - 1.0) <= 1e-8:
            P = M.copy()
            for _ in range(10_000):
                P = P @ M
                if not np.max(np.abs(P)) <= limit:
                    want = "unstable"
                    break
        assert power_bounded_classification(M) == want

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (2, 2, 2), (0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError):
            power_bounded_classification(np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1, math.nan)])
    def test_rejects_non_finite(self, bad):
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            power_bounded_classification(M)


@pytest.mark.parametrize("field, k1, k2", [
    ("k1", math.nan, 0.0), ("k1", math.inf, 0.0), ("k2", 1.0, -math.inf),
    ("k2", 1.0, math.nan)])
def test_dahlquist_point_rejects_non_finite(field, k1, k2):
    with pytest.raises(ValueError, match="DahlquistPoint.%s" % field):
        DahlquistPoint(k1, k2)


# --- spectral radii -------------------------------------------------------------
#
# np.linalg.eigvals (LAPACK zgeev) is the independent oracle for the batched
# QR in `stab._spectral_radii`.

def _eig_radii(stack):
    return np.abs(np.linalg.eigvals(stack)).max(axis=-1)


def _assert_radii_close(stack, rtol=1e-13):
    got, want = stab._spectral_radii(stack), _eig_radii(stack)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rtol * want), \
        np.max(np.abs(got - want) / np.where(want > 0, want, 1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spectral_radii_random_complex(n):
    rng = np.random.default_rng(n)
    stack = rng.standard_normal((300, n, n)) \
        + 1j * rng.standard_normal((300, n, n))
    _assert_radii_close(stack)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_spectral_radii_real_input(n):
    rng = np.random.default_rng(10 + n)
    stack = rng.standard_normal((3, 100, n, n))
    _assert_radii_close(stack)
    assert stab._spectral_radii(stack).shape == (3, 100)


def test_spectral_radii_structured():
    rng = np.random.default_rng(7)
    jordan = [lam * np.eye(n) + np.diag(np.ones(n - 1), 1)
              for lam in (0.5, 1.0, -2.0 + 1j) for n in (2, 5)]
    upper = [np.triu(rng.standard_normal((5, 5))) for _ in range(3)]
    lower = [np.diag([1.0, -2.0, 3.0j, 4.0, -5.0j])
             + np.tril(rng.standard_normal((5, 5)), -1) for _ in range(3)]
    rank1 = [np.outer(rng.standard_normal(5) + 1j * rng.standard_normal(5),
                      rng.standard_normal(5)) for _ in range(3)]
    rank1 += [epbm_transfer_matrix(EPBM5, DahlquistPoint(k1, 0.0))
              for k1 in (0.1, 3.8, 22.3, 60.0)]
    for M in jordan + upper + lower + rank1:
        _assert_radii_close(M[None].astype(complex))
    assert np.array_equal(stab._spectral_radii(np.zeros((4, 5, 5))),
                          np.zeros(4))
    # Jordan blocks deflate at once: their radius is |lambda| to rounding
    for M in jordan:
        assert stab._spectral_radii(M) == pytest.approx(abs(M[0, 0]),
                                                        rel=1e-15)


def test_spectral_radii_with_subnormal_entries():
    # entries ~1e-313 beside ones: 1/s of a subnormal column overflowed the
    # Householder step, so the QR iteration saw NaN and raised LinAlgError
    M = np.diag([1.0, 2e-313, -5e-314, 6e-314, 1e-315]).astype(complex)
    M[1:, 0] = [1.2e-313 + 8e-314j, 2.1e-313, 1.5e-314j, -1.5e-315]
    M[0, 1:] = 1.0
    assert stab._spectral_radii(M) == 1.0
    # the EPBM5 probe at a subnormal (k1, k2) that hypothesis found
    grid = region_grid(EPBM5, (2.2250738585e-313, 0.0),
                       (2.2250738585e-313, 0.0), (1, 1), RepartitionAngle(1.0))
    assert grid.absR.tolist() == [[1.0]]


def test_spectral_radii_cyclic_and_zero_diagonal():
    # a cyclic shift is unitary with a zero trailing 2 x 2 diagonal, so the
    # Wilkinson shift stalls on it until the exceptional shifts step in
    for n in range(2, 7):
        _assert_radii_close(np.roll(np.eye(n), 1, axis=0)[None])
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((40, 5, 5)) + 1j * rng.standard_normal(
        (40, 5, 5))
    stack[:, range(5), range(5)] = 0.0
    _assert_radii_close(stack)


@pytest.mark.parametrize("eps", [1e-160, 1e-200])
def test_spectral_radii_tiny_blocks_beside_unit_coupling(eps):
    # the eigenvalues are those of two diagonal blocks of size eps, next to
    # an O(1) coupling that fixes the scale: norms, rotations and shifts
    # of entries near eps must neither underflow nor stall the iteration
    rng = np.random.default_rng(9)
    stack = np.zeros((40, 5, 5), dtype=complex)
    for rows in (slice(0, 3), slice(3, 5)):
        shape = (40, rows.stop - rows.start, rows.stop - rows.start)
        stack[:, rows, rows] = eps * (rng.standard_normal(shape)
                                      + 1j * rng.standard_normal(shape))
    stack[:, :3, 3:] = rng.standard_normal((40, 3, 2))
    _assert_radii_close(stack)


def test_spectral_radii_zero_subdiagonal_mid_block():
    # an unreduced block below an exact zero at H[2, 1]: the QR must iterate
    # on each block apart, the one on top after the one below converges
    rng = np.random.default_rng(3)
    stack = np.triu(rng.standard_normal((50, 6, 6))
                    + 1j * rng.standard_normal((50, 6, 6)), -1)
    stack[:, 2, 1] = 0.0
    stack[:25, 4, 3] = 0.0
    _assert_radii_close(stack)


def test_spectral_radii_non_finite_is_inf():
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((6, 5, 5)) + 0j
    want = _eig_radii(stack)
    stack[1, 2, 3] = math.nan
    stack[4, 0, 0] = complex(math.inf, 0.0)
    got = stab._spectral_radii(stack)
    assert np.all(np.isinf(got[[1, 4]]))
    assert np.array_equal(got[[0, 2, 3, 5]],
                          stab._spectral_radii(stack[[0, 2, 3, 5]]))
    assert np.all(np.abs(got[[0, 2, 3, 5]] - want[[0, 2, 3, 5]])
                  <= 1e-13 * want[[0, 2, 3, 5]])


def test_spectral_radii_scale_free():
    # finite entries near the ends of the double range keep their radius
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((20, 5, 5)) + 1j * rng.standard_normal(
        (20, 5, 5))
    base = stab._spectral_radii(stack)
    for s in (2.0 ** 1000, 2.0 ** -1000):
        assert np.array_equal(stab._spectral_radii(stack * s), base * s)


def test_spectral_radii_raise_after_30n_sweeps(monkeypatch):
    # with deflation disabled no sweep count suffices: LinAlgError, as
    # eigvals raises, and the power check classifies marginal with a warning
    monkeypatch.setattr(stab, "_negligible",
                        lambda diag, sub, sup, smlnum: np.zeros(sub.shape,
                                                                dtype=bool))
    M = np.diag([1.0, 0.5, 0.25]) + np.diag([1.0, 1.0], -1)
    with pytest.raises(np.linalg.LinAlgError):
        stab._spectral_radii(M)
    with pytest.warns(UserWarning, match="eigenvalue computation failed"):
        assert power_bounded_classification(M) == "marginal"


def test_spectral_radii_bitwise_independent_of_batch():
    # longer than two chunks: every radius is the same bits whatever its
    # neighbours and wherever the chunks split the stack
    k1 = np.linspace(0.1, 60.0, 90)
    k2 = np.linspace(0.0, 12.0, 100)
    stack = stab._probe(EPBM5, k1[:, None], k2[None, :], None).reshape(-1, 5, 5)
    assert len(stack) > 2 * stab._RADII_CHUNK
    radii = stab._spectral_radii(stack)
    perm = np.random.default_rng(6).permutation(len(stack))
    assert np.array_equal(stab._spectral_radii(stack[perm]), radii[perm])
    assert np.array_equal(stab._spectral_radii(stack[777:]), radii[777:])
    assert np.all(np.abs(radii - _eig_radii(stack)) <= 1e-13 * radii)


# --- region grids ---------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.0, math.pi / 64, math.pi / 32],
                         ids=["rho=0", "rho=pi/64", "rho=pi/32"])
@pytest.mark.parametrize("family", FAMILIES)
def test_region_grid_matches_scalar(family, rho):
    # every grid point equals its one-point probe
    method = make_method(family)
    angle = RepartitionAngle(rho)
    grid = region_grid(method, (0.5, 9.0), (-1.0, 2.0), (4, 3), angle)
    assert grid.method == family
    assert grid.rho == pytest.approx(rho)
    for i, k1 in enumerate(grid.k1_samples):
        for j, k2 in enumerate(grid.k2_samples):
            point = DahlquistPoint(k1, k2)
            if method.block:
                M = epbm_transfer_matrix(method, point, angle)
                want = np.max(np.abs(np.linalg.eigvals(M)))
            else:
                want = abs(stability_scalar(method, point, angle))
            assert abs(grid.absR[i, j] - want) < 1e-13 * max(1.0, want)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(0.0, 0.5), st.floats(0.0, 0.5),
       st.floats(-20.0, 20.0), st.floats(-20.0, 20.0), st.integers(1, 4),
       st.integers(1, 4), st.floats(0.0, math.pi / 3))
def test_region_grid_equals_stacked_rows(family, a, b, c, d, n1, n2, rho):
    # the broadcast grid equals the grids of its k1 rows stacked.  NumPy can
    # round an element differently by its place in an array, and for
    # 1 <= |h L| < 8 the phi series' cancellation amplifies that ulp to
    # 1e-13..1e-12 (test_region_grid_matches_scalar covers that range at
    # 1e-13), so the rows are compared to 1e-14 where |h L| stays below 2
    method = make_method(family)
    angle = RepartitionAngle(rho)
    grid = region_grid(method, (a, b), (c, d), (n1, n2), angle)
    rows = np.concatenate([
        region_grid(method, (k1, k1), (c, d), (1, n2), angle).absR
        for k1 in grid.k1_samples])
    assert rows.shape == grid.absR.shape
    assert np.all(np.abs(grid.absR - rows)
                  <= 1e-14 * np.maximum(np.abs(rows), 1e-300))


def test_region_grid_classification_thresholds():
    grid = region_grid(RK4, (0.5, 4.0), (0.0, 1.0), (8, 3))
    stable = grid.absR <= 1.0 + STABLE_TOL
    marginal = ~stable & (grid.absR <= MARGINAL_LIMIT)
    assert np.all((grid.classification == "stable") == stable)
    assert np.all((grid.classification == "marginal") == marginal)
    assert np.all((grid.classification == "unstable") == ~(stable | marginal))


def test_region_grid_epbm_path():
    grid = region_grid(EPBM5, (0.5, 2.0), (0.0, 0.5), (2, 3))
    assert grid.absR.shape == (2, 3)
    assert np.isfinite(grid.absR).all()


@pytest.mark.parametrize("family", ["epbm5", "erk4"])
def test_region_grid_overflow_is_unstable(family):
    # k2 up to 1e200 overflows the probe: non-finite R or transfer matrices
    # read |R| = inf, classed unstable, for every family alike
    grid = region_grid(make_method(family), (0.1, 60.0), (0.0, 1e200), (4, 4))
    assert np.all(grid.absR[:, 1:] == np.inf)
    assert np.all(grid.classification[:, 1:] == "unstable")
    assert np.all(np.abs(grid.absR[:, 0] - 1.0) < 1e-12)


@pytest.mark.parametrize("family", ["erk4", "esdc6", "epbm5", "imrk4", "rk4"])
def test_point_probe_overflow_is_silent(family):
    # the point probes overflow at k2 = 1e200 as the grid's do (exp_euler's
    # one product does not), and give a non-finite result with no warning
    method = make_method(family)
    probe = epbm_transfer_matrix if method.block else stability_scalar
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = probe(method, DahlquistPoint(1.0, 1e200))
    assert not np.isfinite(got).all()


@pytest.mark.parametrize("rho", [4.590188931608119e-293, 1e-300])
def test_region_grid_subnormal_coupling(rho):
    # an angle this small leaves EPBM5's transfer matrix with entries near
    # 1e-293 beside entries of order 1; the Householder reduction makes a
    # column of subnormals whose 1/s overflowed, and the QR iteration then
    # raised "Eigenvalues did not converge"
    grid = region_grid(EPBM5, (0.5, 0.5), (0.0, 0.0), (1, 1),
                       RepartitionAngle(rho))
    M = epbm_transfer_matrix(EPBM5, DahlquistPoint(0.5, 0.0),
                             RepartitionAngle(rho))
    want = np.max(np.abs(np.linalg.eigvals(M)))
    assert abs(grid.absR[0, 0] - want) < 1e-13 * want


def test_region_grid_validation():
    with pytest.raises(ValueError):
        region_grid(ERK4, (-1.0, 2.0), (0.0, 1.0), (2, 2))
    with pytest.raises(ValueError):
        region_grid(ERK4, (0.0, 2.0), (0.0, 1.0), (0, 2))


@pytest.mark.parametrize("k1_range, k2_range", [
    ((0.0, math.inf), (0.0, 1.0)),
    ((0.0, math.nan), (0.0, 1.0)),
    ((0.0, 2.0), (0.0, math.inf)),
    ((0.0, 2.0), (-math.inf, 1.0)),
    ((0.0, 2.0), (math.nan, 1.0)),
])
def test_region_grid_rejects_non_finite_ranges(k1_range, k2_range):
    with pytest.raises(ValueError, match="finite"):
        region_grid(ERK4, k1_range, k2_range, (2, 2))


@pytest.mark.parametrize("resolution", [(2.5, 2), (2, 2.0), (2,), (2, 2, 2),
                                        ("2", 2), (True, 3), (3, False)])
def test_region_grid_rejects_non_integer_resolution(resolution):
    with pytest.raises(ValueError, match="resolution"):
        region_grid(ERK4, (0.0, 2.0), (0.0, 1.0), resolution)


def test_grid_to_csv_format(tmp_path):
    grid = region_grid(ERK4, (0.5, 1.0), (0.0, 1.0), (2, 3))
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k1,k2,absR,class"
    assert len(lines) == 1 + 2 * 3
    # k1-major: first three rows share k1_samples[0]
    first = [line.split(",") for line in lines[1:4]]
    assert all(float(row[0]) == grid.k1_samples[0] for row in first)
    assert [float(row[1]) for row in first] == list(grid.k2_samples)
    assert float(first[0][2]) == grid.absR[0, 0]
    assert first[0][3] == grid.classification[0, 0]


def per_cell_csv(grid):
    """The CSV text of one "%.17g,%.17g,%.17g,%s" format call per cell."""
    lines = ["k1,k2,absR,class"]
    for i, a in enumerate(grid.k1_samples):
        for j, b in enumerate(grid.k2_samples):
            lines.append("%.17g,%.17g,%.17g,%s" % (
                a, b, grid.absR[i, j], grid.classification[i, j]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("family", ["erk4", "epbm5"])
def test_grid_to_csv_equals_per_cell_format(tmp_path, family):
    grid = region_grid(make_method(family), (0.1, 60.0), (-3.0, 4.0), (7, 5),
                       RepartitionAngle(math.pi / 64))
    grid.absR[0, :3] = [math.nan, math.inf, -0.0]
    grid.absR[3, 4] = 1e-300
    grid.classification[0, :3] = "unstable"
    path = tmp_path / "grid.csv"
    grid_to_csv(grid, path)
    assert path.read_bytes() == per_cell_csv(grid).encode()


def synthetic_grid(columns):
    """StabilityGrid with the given per-k1 classification rows."""
    cls = np.array(columns)
    n1, n2 = cls.shape
    return StabilityGrid(method="erk4", rho=0.0,
                         k1_samples=np.arange(1.0, n1 + 1.0),
                         k2_samples=np.arange(float(n2)),
                         absR=np.ones((n1, n2)), classification=cls)


class TestColumnSplit:
    def test_interior_gap_detected(self):
        g = synthetic_grid([["stable", "unstable", "stable"],
                            ["stable", "stable", "stable"]])
        assert column_split_exists(g)

    def test_marginal_gap_counts(self):
        g = synthetic_grid([["stable", "marginal", "stable"]])
        assert column_split_exists(g)

    def test_edge_instability_is_not_a_split(self):
        g = synthetic_grid([["unstable", "stable", "stable"],
                            ["stable", "stable", "unstable"]])
        assert not column_split_exists(g)

    def test_all_stable(self):
        g = synthetic_grid([["stable", "stable", "stable"]])
        assert not column_split_exists(g)

    def test_wide_gap_detected(self):
        g = synthetic_grid([["stable", "unstable", "unstable", "stable"]])
        assert column_split_exists(g)


# --- explicit-coupling decay ------------------------------------------------------

class TestAsymptoticDecay:
    def test_constant_at_pi_is_exact(self):
        # |int_0^1 e^{i k (s-1)} ds| at k = pi is exactly 2/pi
        val = asymptotic_decay([1.0], [math.pi])[0]
        assert val == pytest.approx(2.0 / math.pi, abs=1e-15)

    @pytest.mark.parametrize("coeffs", [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0],
                                        [1.0, -3.0, 2.0]])
    @pytest.mark.parametrize("k", [3.7, 17.3, 123.4])
    def test_matches_quadrature(self, coeffs, k):
        def p(s):
            return sum(c * s ** i for i, c in enumerate(coeffs))
        re = quad(lambda s: math.cos(k * (s - 1.0)) * p(s), 0.0, 1.0,
                  limit=200)[0]
        im = quad(lambda s: math.sin(k * (s - 1.0)) * p(s), 0.0, 1.0,
                  limit=200)[0]
        want = abs(complex(re, im))
        got = asymptotic_decay(coeffs, [k])[0]
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("coeffs", [[1.0], [0.0, 1.0], [0.0, 0.0, 1.0]])
    def test_first_order_decay_bound(self, coeffs):
        # k |I(k)| stays bounded: the coupling loses exactly one power of k
        k = np.logspace(2, 5, 30)
        assert np.max(k * asymptotic_decay(coeffs, k)) <= 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            asymptotic_decay([], [1.0])
        with pytest.raises(ValueError):
            asymptotic_decay([math.nan], [1.0])
        with pytest.raises(ValueError):
            asymptotic_decay([1.0], [0.0])


def test_repartition_angle():
    # the rotation by rho is the abs_k3 repartition with eps = tan(rho)
    assert RepartitionAngle(math.pi / 4) == RepartitionSpec("abs_k3",
                                                            rho=math.pi / 4)
    with pytest.raises(ValueError):
        RepartitionAngle(-0.01)
    with pytest.raises(ValueError):
        RepartitionAngle(math.pi / 2)


@pytest.mark.parametrize("spec", [RepartitionSpec("k2", rho=0.1),
                                  RepartitionSpec("identity", epsilon=1.0)])
def test_probes_reject_other_repartition_kinds(spec):
    point = DahlquistPoint(1.0, 0.5)
    with pytest.raises(ValueError):
        region_grid(ERK4, (0.5, 2.0), (0.0, 1.0), (3, 4), spec)
    with pytest.raises(ValueError):
        stability_scalar(ERK4, point, spec)
    with pytest.raises(ValueError):
        epbm_transfer_matrix(EPBM5, point, spec)
