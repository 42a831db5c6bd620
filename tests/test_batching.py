"""Batched stepping: every row of an `integrate_many` batch must reproduce
its own `integrate` run (time, state, status, blow-up step, step size and
samples), including rows that blow up while the others keep stepping."""
import dataclasses
import math

import numpy as np
import pytest

import expstab as es
from expstab import (DiagonalProblem, FAMILIES, integrate, integrate_many,
                     make_method)

MODS = [None,
        es.RepartitionSpec("abs_k3", rho=math.pi / 64),
        es.RepartitionSpec("k2", rho=math.pi / 3),
        es.RepartitionSpec("identity", epsilon=8.0),
        es.HyperviscositySpec(8, 1e10),
        es.HyperviscositySpec(4, 1e6)]

CASES = {"zds": (es.build_zds, 32, 40.0, 200),
         "kdv": (es.build_kdv, 64, 0.5, 50)}


def assert_close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= 1e-14 * np.max(np.abs(b),
                                                                initial=1.0)


def assert_same_run(got, want):
    assert (got.ok, got.blowup_step, got.n_steps) == (want.ok, want.blowup_step,
                                                      want.n_steps)
    assert got.t == want.t and got.h == want.h
    assert_close(got.y, want.y)
    assert len(got.samples) == len(want.samples)
    for g, w in zip(got.samples, want.samples):
        assert (g is None) == (w is None)
        if w is not None:
            assert g[0] == w[0]
            assert_close(g[1], w[1])


def run_both(problem_name, family, mods=MODS, t0=0.0):
    build, nx, t_end, n = CASES[problem_name]
    prob, u0 = build(nx)
    meth = make_method(family)
    span = (t0, t0 + t_end)
    times = [t0, t0 + t_end / 3, t0 + t_end / 2, t0 + t_end]
    batch = integrate_many(prob, meth, u0, span, n, mods, sample_times=times)
    single = [integrate(prob, meth, u0, span, n, modification=mod,
                        sample_times=times) for mod in mods]
    return batch, single


@pytest.mark.parametrize("problem_name", sorted(CASES))
@pytest.mark.parametrize("family", FAMILIES)
def test_rows_match_single_runs(problem_name, family):
    batch, single = run_both(problem_name, family)
    assert len(batch) == len(MODS)
    for got, want in zip(batch, single):
        assert_same_run(got, want)


@pytest.mark.parametrize("problem_name", sorted(CASES))
@pytest.mark.parametrize("family", FAMILIES)
def test_times_come_from_the_step_count(problem_name, family):
    # no time is a sum of h's: a completed run reports t1, a sample taken
    # m steps in reports t0 + m h, and a blown-up run the time of its last
    # finite state (the block method's node 1 lags its steps by one)
    t0 = 0.5
    _, _, t_end, n = CASES[problem_name]
    h = t_end / n
    lag = 1 if make_method(family).block else 0
    batch, single = run_both(problem_name, family, t0=t0)
    for res in batch + single:
        if res.ok:
            assert res.t == t0 + t_end
        else:
            assert res.t == t0 + max(res.blowup_step - 1 - lag, 0) * h
        for sample, s in zip(res.samples, (0.0, t_end / 3, t_end / 2, t_end)):
            if sample is not None:
                assert sample[0] == t0 + round(s / h) * h


def test_row_blowup_leaves_the_other_rows_stepping():
    # ZDS-32 at h = 0.2: the k2 and identity rows of erk4 diverge mid-run,
    # the unmodified, abs_k3 and hyperviscous rows finish
    batch, single = run_both("zds", "erk4")
    assert [r.ok for r in batch] == [True, True, False, False, True, True]
    assert all(1 < r.blowup_step < 200 for r in batch if not r.ok)
    assert batch[2].blowup_step != batch[3].blowup_step
    for got, want in zip(batch, single):
        assert_same_run(got, want)


def test_block_row_blowup():
    # EPBM5 on KdV-64 at h = 0.2: only the unmodified row diverges
    build = CASES["kdv"][0]
    prob, u0 = build(64)
    meth = make_method("epbm5")
    mods = MODS[:4]
    batch = integrate_many(prob, meth, u0, (0.0, 8.0), 40, mods,
                           sample_times=[4.0, 8.0])
    assert [r.ok for r in batch] == [False, True, True, True]
    for got, mod in zip(batch, mods):
        assert_same_run(got, integrate(prob, meth, u0, (0.0, 8.0), 40,
                                       modification=mod,
                                       sample_times=[4.0, 8.0]))


def test_every_row_blows_up():
    prob = DiagonalProblem(L_diag=np.zeros(1, dtype=np.complex128),
                           nonlinear=lambda t, y: y * y)
    batch = integrate_many(prob, make_method("rk4"), np.array([2.0 + 0j]),
                           (0.0, 10.0), 50, [None, None])
    single = integrate(prob, make_method("rk4"), np.array([2.0 + 0j]),
                       (0.0, 10.0), 50)
    for got in batch:
        assert_same_run(got, single)


def test_duplicate_rows_give_equal_results():
    batch, _ = run_both("kdv", "erk4", [MODS[1], MODS[1]])
    assert_same_run(batch[0], batch[1])


def counted_zds():
    """ZDS-32 with N recording the time of each call, and that record."""
    calls = []
    base, u0 = es.build_zds(32)
    prob = DiagonalProblem(base.L_diag,
                           lambda t, y: calls.append(t) or base.nonlinear(t, y),
                           base.grid)
    return prob, u0, calls


class ApplyOnly:
    """A modification of the old interface: `apply` without `diagonals`."""

    def apply(self, problem, dt):
        return problem


@pytest.mark.parametrize("mods, match", [
    ([], "at least one"),
    ([None, "abs_k3:rho=0.1"], "diagonals"),
    ([None, object()], "diagonals"),
    ([None, ApplyOnly()], "diagonals"),
])
def test_rejects_bad_modifications_before_any_step(mods, match):
    prob, u0, calls = counted_zds()
    with pytest.raises(ValueError, match=match):
        integrate_many(prob, make_method("erk4"), u0, (0.0, 1.0), 10, mods)
    assert calls == []


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rejects_nonfinite_sample_times_before_any_step(bad, rows):
    prob, u0, calls = counted_zds()
    with pytest.raises(ValueError, match="sample time %r" % bad):
        integrate_many(prob, make_method("erk4"), u0, (0.0, 1.0), 10,
                       MODS[:rows], sample_times=[0.5, bad])
    assert calls == []


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("family", ["erk4", "epbm5"])
def test_far_sample_times_are_clamped_to_the_span(family, rows):
    # a finite time whose quotient by h overflows is taken at the nearer
    # end, as a near one is; an in-range time keeps its step
    prob, u0 = es.build_zds(32)
    meth = make_method(family)
    runs = integrate_many(prob, meth, u0, (0.0, 1.0), 1000, MODS[:rows],
                          sample_times=[1e308, -1e308, 0.5, -0.1, 1.1])
    ends = integrate_many(prob, meth, u0, (0.0, 1.0), 1000, MODS[:rows],
                          sample_times=[1.0, 0.0, 0.5, 0.0, 1.0])
    for got, want in zip(runs, ends):
        assert [t for t, _ in got.samples] == [1.0, 0.0, 0.5, 0.0, 1.0]
        assert_same_run(got, want)


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("family", ["rk4", "erk4", "epbm5"])
def test_rejects_an_infinite_step_before_any_step(family, rows):
    # a finite span can still give h = inf: refused for what it is, not as
    # a blow-up at step 1 (rk4) or from deep inside a phi table
    prob, u0, calls = counted_zds()
    with pytest.raises(ValueError, match="not positive and finite"):
        integrate_many(prob, make_method(family), u0, (-1e308, 1e308), 10,
                       MODS[:rows])
    assert calls == []


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("family", ["erk4", "epbm5"])
@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
@pytest.mark.parametrize("problem_name", ["zds", "kdv"])
def test_rejects_a_nonfinite_y0_before_any_step(problem_name, bad, family,
                                                rows):
    # refused for what it is before any step: stepped, it would come back
    # as a blow-up at t = 0, and KdV's band check would misname it
    build, nx = CASES[problem_name][:2]
    base, u0 = build(nx)
    calls = []
    prob = dataclasses.replace(
        base, nonlinear=lambda t, y: calls.append(t) or base.nonlinear(t, y))
    y0 = u0.copy()
    y0[3] = bad
    with pytest.raises(ValueError, match="y0 is not finite: entry 3 is"):
        integrate_many(prob, make_method(family), y0, (0.0, 1.0), 10,
                       MODS[:rows])
    assert calls == []


@pytest.mark.parametrize("mode, mirror", [(2, False), (40, True)],
                         ids=["not_hermitian", "above_the_band"])
def test_rejects_a_kdv_y0_off_its_band_before_any_step(mode, mirror):
    # KdV-64 steps modes 0..21 alone, so y0 must be their Hermitian
    # expansion: a mode without its conjugate mirror, or one above the
    # band (which the full layout would carry along unchanged), is refused
    base, u0 = es.build_kdv(64)
    calls = []
    prob = dataclasses.replace(
        base, nonlinear=lambda t, y: calls.append(t) or base.nonlinear(t, y))
    y0 = u0.copy()
    y0[mode] = 1.0
    if mirror:
        y0[-mode] = 1.0
    for rows in (1, 2):
        with pytest.raises(ValueError, match="Hermitian"):
            integrate_many(prob, make_method("erk4"), y0, (0.0, 1.0), 10,
                           MODS[:rows])
    assert calls == []
    assert integrate(prob, make_method("erk4"), u0, (0.0, 1.0), 10).ok


@pytest.mark.parametrize("nonlinear", [
    lambda t, y: -np.mean(y) * y,                   # reduces over every row
    lambda t, y: -np.fft.fft(y.ravel()).reshape(y.shape) / y.size,
], ids=["mean", "flattening_fft"])
def test_rejects_a_nonlinearity_that_mixes_rows(nonlinear):
    base, u0 = es.build_zds(32)
    prob = DiagonalProblem(base.L_diag, nonlinear, base.grid)
    meth = make_method("erk4")
    with pytest.raises(ValueError, match="row by row"):
        integrate_many(prob, meth, u0, (0.0, 1.0), 10, [None, MODS[1]])
    # one run never stacks, so it is not checked
    assert integrate(prob, meth, u0, (0.0, 1.0), 10).ok
