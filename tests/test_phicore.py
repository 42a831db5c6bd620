import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expstab.phicore import PhiCache, phi_scalar, phi_table

# high-precision values computed independently with mpmath (50 digits),
# covering every evaluation regime: tiny arguments, both series tiers,
# and the large-argument recurrence on several rays
KNOWN_VALUES = [
    (3, 1e-7j, 0.16666666666666657 + 4.166666666666665e-09j),
    (0, 0.3 + 0.4j, 1.2433022950695025 + 0.5256597791969788j),
    (2, -1.5 + 2.0j, 0.25779573786050636 + 0.14304793849530997j),
    (4, 5.0j, 0.018853859496741163 + 0.02379905449387231j),
    (6, -7.0 + 0.0j, 0.0006688050490467313 + 0.0j),
    (8, 100.0j, 1.3847272220845412e-07 + 1.975810307409681e-06j),
    (5, -300.0 + 200.0j, 9.565874276371132e-05 + 6.292955898854364e-05j),
    (1, 1000.0j, 0.0008268795405320026 + 0.000437620923709297j),
    (7, 2.0 + 0.0j, 0.0002617229951179271 + 0.0j),
]


@pytest.mark.parametrize("k,z,expected", KNOWN_VALUES)
def test_known_values(k, z, expected):
    got = phi_scalar(k, z)
    assert abs(got - expected) <= 5e-13 * max(1.0, abs(expected))


@pytest.mark.parametrize("k", range(9))
def test_small_argument_limit(k):
    import math
    # phi_k(0) = 1/k!
    assert phi_scalar(k, 0.0) == pytest.approx(1.0 / math.factorial(k),
                                               rel=0, abs=1e-16)


def _test_grid():
    # full angular coverage; right-half-plane radii capped at 1e2 since
    # exp(z) (and hence phi_0) leaves float64 range near Re z ~ 700
    radii = np.logspace(-10, 3, 40)
    angles = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    return [r * np.exp(1j * a) for r in radii for a in angles
            if r * np.cos(a) <= 1e2]


def test_recurrence_residual_grid():
    import math
    worst = 0.0
    for z in _test_grid():
        prev = phi_scalar(0, z)
        for k in range(6):
            cur = phi_scalar(k + 1, z)
            resid = abs(z * cur + 1.0 / math.factorial(k) - prev)
            worst = max(worst, resid / max(1.0, abs(prev)))
            prev = cur
    assert worst <= 1e-12


def test_conjugate_symmetry():
    for z in _test_grid():
        for k in range(9):
            a = phi_scalar(k, z)
            b = phi_scalar(k, np.conj(z))
            assert abs(np.conj(a) - b) <= 1e-15 * max(1.0, abs(a))


@pytest.mark.parametrize("radius", [1.0, 8.0])
def test_tier_crossover_continuity(radius):
    # straddle each evaluation-tier boundary so closely that the function's
    # own variation is ~1e-13; any larger jump is tier disagreement
    for ang in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        lo = (radius - 1e-13) * np.exp(1j * ang)
        hi = (radius + 1e-13) * np.exp(1j * ang)
        for k in range(9):
            a, b = phi_scalar(k, lo), phi_scalar(k, hi)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_phi_table_matches_scalar():
    L = np.array([0.0, 1j * 2.0, -3.0 + 4.0j, 1j * 700.0])
    h = 0.05
    table = phi_table(L, h, K=6)
    assert table.args.flags.writeable is False
    assert table.values.flags.writeable is False
    for k in range(7):
        col = table.phi(k)
        for j, lam in enumerate(L):
            assert abs(col[j] - phi_scalar(k, h * lam)) <= 1e-13 * max(
                1.0, abs(col[j]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.floats(1e-3, 2.0))
@example(rows=4, n=4, seed=7874, h=1.0)     # z = -1.16-6.15i: 1.1e-14 apart
def test_stacked_table_matches_row_tables(rows, n, seed, h):
    # an (R, n) operator gets one table whose rows are the rows' own tables,
    # to rounding: NumPy's vector loops may round a lone element differently,
    # and the series tiers amplify that as their Horner error does, by the
    # sum of the term moduli, phi_k(|z|) (up to ~e^8 where Re z < 0 cancels).
    # Moduli up to ~40 cover all three evaluation tiers.
    rng = np.random.default_rng(seed)
    L = (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))) \
        * 10.0 ** rng.uniform(-3, 1.3, (rows, n))
    table = phi_table(L, h)
    assert table.values.shape == (5, rows, n)
    term_sum = phi_table(np.abs(h * L), 1.0).values.real   # phi_k(|z|)
    for r in range(rows):
        want = phi_table(L[r], h).values
        assert np.all(np.abs(table.values[:, r] - want)
                      <= 8 * np.finfo(float).eps * term_sum[:, r])


def test_phi_cache_reuse():
    L = np.array([1j, 2j])
    cache = PhiCache(L)
    t1 = cache.table(0.1)
    t2 = cache.table(0.1)
    assert t1 is t2
    t3 = cache.table(0.2)
    assert t3 is not t1


@pytest.mark.parametrize("bad", [-1, 9, 17])
def test_phi_scalar_rejects_bad_order(bad):
    with pytest.raises(ValueError):
        phi_scalar(bad, 1.0)


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), np.inf])
def test_phi_scalar_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        phi_scalar(1, bad)


def test_phi_table_validation():
    with pytest.raises(ValueError):
        phi_table(np.array([]), 0.1)
    with pytest.raises(ValueError):
        phi_table(np.array([1j]), -0.1)
    with pytest.raises(ValueError):
        phi_table(np.array([1j]), 0.1, K=2)
    with pytest.raises(ValueError):
        phi_table(np.array([1j]), 0.1, K=40)
    with pytest.raises(ValueError):
        phi_table(np.array([np.nan + 0j]), 0.1)
    with pytest.raises(ValueError):     # a stack with no entries
        phi_table(np.zeros((3, 0)), 0.1)
    with pytest.raises(ValueError):
        phi_table(np.array([[1j], [np.inf]]), 0.1)
    with pytest.raises(ValueError):     # a scalar is not a diagonal
        phi_table(np.array(1j), 0.1)
