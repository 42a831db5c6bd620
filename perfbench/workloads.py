"""The three paper workloads: their sizes, the study each one times, and the
checks on its outputs.

A workload object is built in set-up (problems and methods), then `study()`
runs one full study through the public `expstab.cli` / `expstab.stability`
API and `check()` validates what it returned.  Every call goes through the
module attribute (`cli.run_convergence`, `stability.region_grid`, ...) so
the tracer's rebinding sees it.  The seed only permutes the order of runs
and maps within each part of a study; the outputs must not depend on it.

Every check is a property that acceptance criteria 1-10 already require,
except that the sampled epbm5 transfer matrices must keep today's
`stable` classification.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

import expstab as es
from expstab import cli, stability


@dataclass
class Report:
    """Outcome of one study: operations attempted and failed, the failed
    checks, the accuracy figure and a digest of the outputs."""
    attempted: int = 0
    failures: list = field(default_factory=list)
    max_rel_err: float = 0.0
    groups: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def failed(self) -> int:
        return len(self.failures)

    def op(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append("%s: %s" % (name, why))

    def error(self, group: str, err: float, counted: bool = True) -> None:
        """Record a relative error; only counted groups enter max_rel_err."""
        if math.isfinite(err):
            self.groups[group] = max(self.groups.get(group, 0.0), err)
            if counted:
                self.max_rel_err = max(self.max_rel_err, err)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _error_text(exc: BaseException) -> str:
    return "raised %s: %s" % (type(exc).__name__, exc)


# --- zds_ladder ------------------------------------------------------------------

class ZdsLadder:
    """ZDS convergence ladders through `cli.run_convergence` at Nx=128,
    t_end=40: one rk4 reference build (the first call writes the cache,
    the later calls read it), then seven ladders.  At Nx=128 an N call is
    tens of microseconds, mostly fixed NumPy call overhead, so stepper
    arithmetic, the epbm5 start-up and early blow-up exits carry a large
    share of the time."""

    SIZES = {
        "full": dict(nx=128, t_end=40.0, steps=(1000, 2000), ref_steps=20000,
                     ladders=("erk4", "esdc6", "epbm5", "imrk4", "abs_k3",
                              "identity", "m8"),
                     orders={"imrk4": (4.0, 5.0), "abs_k3": (3.6, 4.4)},
                     must_blow_up=("epbm5",)),
        # harness smoke size: same rungs and reference, two ladders only
        "tiny": dict(nx=128, t_end=40.0, steps=(1000, 2000), ref_steps=20000,
                     ladders=("imrk4", "abs_k3"),
                     orders={"imrk4": (4.0, 5.0), "abs_k3": (3.6, 4.4)},
                     must_blow_up=()),
    }
    ACCURATE = ("imrk4", "abs_k3", "identity", "m8")   # max_rel_err set
    BLOW_UP_MAX_RUNG = 2000

    def __init__(self, size: str = "full"):
        self.__dict__.update(self.SIZES[size])

    def setup(self) -> None:
        # cli rebuilds problems and methods from their names inside the
        # study; building them here puts their cost into setup_s
        es.build_zds(self.nx)
        mods = {"abs_k3": es.RepartitionSpec("abs_k3", rho=math.pi / 128),
                "identity": es.RepartitionSpec("identity", epsilon=8.0),
                "m8": es.HyperviscositySpec(8, 1e10)}
        self.runs = {lab: ((lab, None) if lab not in mods else ("erk4", mods[lab]))
                     for lab in self.ladders}
        self.methods = {m: es.make_method(m)
                        for m in {m for m, _ in self.runs.values()} | {"rk4"}}

    def study(self, rng: random.Random, out_dir: str, part) -> dict:
        out = {}
        with part("part.ladders"):
            for lab in _shuffled(self.ladders, rng):
                method, mod = self.runs[lab]
                try:
                    out[lab] = cli.run_convergence(
                        problem="zds", nx=self.nx, t_end=self.t_end,
                        methods=[method], steps=self.steps, modification=mod,
                        ref_method="rk4", ref_steps=self.ref_steps, workers=1)
                except Exception as exc:     # counted as failed operations
                    out[lab] = exc
        return out

    def check(self, out: dict) -> Report:
        rep = Report()
        ref_exc = next((r for r in out.values()
                        if isinstance(r, cli.ReferenceFailure)), None)
        rep.op("reference rk4 n=%d" % self.ref_steps, ref_exc is None,
               ref_exc and _error_text(ref_exc))
        digest = []
        for lab in self.ladders:
            records = out[lab]
            if isinstance(records, Exception):
                for n in self.steps:
                    rep.op("%s n=%d" % (lab, n), False, _error_text(records))
                continue
            for r in records:
                digest.append((lab, r.method, r.modification, r.n_steps, r.h,
                               r.relative_error, r.observed_order, r.status))
                name = "%s n=%d" % (lab, r.n_steps)
                why = ""
                if lab in self.orders:
                    lo, hi = self.orders[lab]
                    if r.status != "ok":
                        why = "status %s, expected ok" % r.status
                    elif r is not records[0] and not lo <= r.observed_order <= hi:
                        why = "observed order %.3f outside [%.1f, %.1f]" % (
                            r.observed_order, lo, hi)
                if (lab in self.must_blow_up and r.status != "blowup"
                        and r.n_steps <= self.BLOW_UP_MAX_RUNG):
                    why = "status %s, expected blowup" % r.status
                rep.op(name, not why, why)
                if r.status == "ok":
                    rep.error(lab, r.relative_error, lab in self.ACCURATE)
        rep.digest = _digest(digest)
        return rep


# --- kdv_longtime -------------------------------------------------------------------

class KdvLongtime:
    """The paper's 11 KdV runs at Nx=512 through `cli.run_longtime`, with an
    imrk4 reference at 10x the steps and 30 samples, at the paper's
    h = 160/56000 over a shortened horizon.  n_steps and the reference
    steps are deliberately not multiples of the 30 samples (as in the paper),
    so the known sample-misalignment error stays visible in max_rel_err."""

    SIZES = {
        "full": dict(nx=512, t_end=2.0, n_steps=700, ref_steps=7000,
                     n_samples=30),
        "tiny": dict(nx=128, t_end=0.5, n_steps=175, ref_steps=1750,
                     n_samples=30),
    }
    MAX_ERR = 1e-1

    def __init__(self, size: str = "full"):
        self.__dict__.update(self.SIZES[size])

    def setup(self) -> None:
        es.build_kdv(self.nx)       # see ZdsLadder.setup
        mods = [es.RepartitionSpec("abs_k3", rho=math.pi / 64),
                es.RepartitionSpec("k2", rho=math.pi / 3),
                es.RepartitionSpec("identity", epsilon=16.0)]
        self.runs = [("erk4", None), ("epbm5", None)]
        self.runs += [(f, m) for f in ("erk4", "esdc6", "epbm5") for m in mods]
        self.methods = {m: es.make_method(m)
                        for m in ("erk4", "esdc6", "epbm5", "imrk4")}

    def study(self, rng: random.Random, out_dir: str, part) -> dict:
        with part("part.longtime"):
            try:
                return cli.run_longtime(
                    problem="kdv", nx=self.nx, t_end=self.t_end,
                    n_steps=self.n_steps, runs=_shuffled(self.runs, rng),
                    n_samples=self.n_samples, ref_method="imrk4",
                    ref_steps=self.ref_steps, workers=1)
            except Exception as exc:
                return {"error": exc}

    def check(self, series: dict) -> Report:
        rep = Report()
        keys = [(m, "none" if mod is None else mod.describe())
                for m, mod in self.runs]
        if "error" in series:
            why = _error_text(series["error"])
            rep.op("reference imrk4 n=%d" % self.ref_steps, False, why)
            for key in keys:
                rep.op("%s %s" % key, False, why)
            rep.digest = _digest([why])
            return rep
        rep.op("reference imrk4 n=%d" % self.ref_steps, True)
        h = self.t_end / self.n_steps
        for key, (m, mod) in zip(keys, self.runs):
            rows = series[key]
            why = ""
            if mod is not None:
                bad = [(t, e, s) for (t, e, s) in rows
                       if s != "ok" or not e <= self.MAX_ERR]
                if bad:
                    why = "sample t=%.4g err=%.3g status %s (want ok, err <= %g)" % (
                        bad[0] + (self.MAX_ERR,))
                elif len(rows) != self.n_samples:
                    why = "%d samples, expected %d" % (len(rows), self.n_samples)
                elif abs(rows[-1][0] - self.t_end) > h:
                    why = "last sample at t=%.6g, expected %.6g" % (
                        rows[-1][0], self.t_end)
            for (_, e, _) in rows:
                rep.error("%s %s" % key, e, mod is not None)
            rep.op("%s %s" % key, not why, why)
        rep.digest = _digest(sorted(series.items()))
        return rep


# --- stability_maps -----------------------------------------------------------------

QUOTED_SPLIT = {"erk4": math.pi / 4, "esdc6": math.pi / 3, "epbm5": math.pi / 6}
SPLIT_WINDOW = {"erk4": (4.0, 4.0), "esdc6": (4.0, 4.0), "epbm5": (4.0, 2.0)}
SPLIT_FRACTIONS = (1 / 8, 1 / 4, 3 / 8, 1 / 2, 5 / 8, 3 / 4, 7 / 8, 1.0, 1.1)
RHO_SMALL = math.pi / 2048       # criterion 5
RHO_IMEX = math.pi / 64          # criterion 7


class MapCsv:
    """A `grid_to_csv` file read back; columns are parsed on demand."""

    def __init__(self, path: str, n1: int, n2: int):
        with open(path) as f:
            lines = f.read().splitlines()
        if lines[0] != "k1,k2,absR,class" or len(lines) != n1 * n2 + 1:
            raise ValueError("%s: bad header or %d rows" % (path, len(lines) - 1))
        self.rows, self.n1, self.n2 = lines[1:], n1, n2
        self.k1 = np.array([float(self.rows[i * n2].split(",")[0])
                            for i in range(n1)])
        self.k2 = np.array([float(r.split(",")[1]) for r in self.rows[:n2]])

    def column(self, j: int):
        """(|R|, class) along k1 at the j-th k2 sample."""
        cells = [self.rows[i * self.n2 + j].split(",") for i in range(self.n1)]
        return (np.array([float(c[2]) for c in cells]),
                np.array([c[3] for c in cells]))


class StabilityMaps:
    """Paper stability maps through `cli.run_stability_maps` (600x200, CSV
    output), the criterion-6 split scan through `region_grid` and
    `column_split_exists`, and `power_bounded_classification` on epbm5
    k2=0 transfer matrices, whose radius 1 triggers the long power loop.
    No spectral problem is involved."""

    SIZES = {
        "full": dict(methods=("erk4", "esdc6", "epbm5", "imrk4"),
                     resolution=(600, 200), split_resolution=(100, 100),
                     power_points=16),
        "tiny": dict(methods=("erk4", "imrk4"), resolution=(600, 200),
                     split_resolution=(100, 100), power_points=2),
    }
    K1_MAX = 60.0

    def __init__(self, size: str = "full"):
        self.__dict__.update(self.SIZES[size])

    def setup(self) -> None:
        self.meths = {m: es.make_method(m) for m in self.methods}
        self.meths.setdefault("epbm5", es.make_method("epbm5"))
        self.maps = [(m, rho) for m in self.methods for rho in (0.0, RHO_SMALL)]
        if "imrk4" in self.methods:
            self.maps.append(("imrk4", RHO_IMEX))
        self.split_methods = [m for m in QUOTED_SPLIT if m in self.methods]
        n1 = self.resolution[0]
        k1 = np.linspace(self.K1_MAX / n1, self.K1_MAX, n1)
        self.power_k1 = k1[:: max(1, n1 // self.power_points)][:self.power_points]

    def study(self, rng: random.Random, out_dir: str, part) -> dict:
        out = {"maps": {}, "splits": {}, "power": {}}
        with part("part.maps"):
            for key in _shuffled(self.maps, rng):
                try:
                    out["maps"][key] = cli.run_stability_maps(
                        [key[0]], [key[1]], out_dir, self.resolution,
                        k1_max=self.K1_MAX)[0]
                except Exception as exc:
                    out["maps"][key] = exc
        with part("part.split_scan"):
            scan = [(m, f) for m in self.split_methods for f in SPLIT_FRACTIONS]
            for m, f in _shuffled(scan, rng):
                k1m, k2m = SPLIT_WINDOW[m]
                try:
                    grid = stability.region_grid(
                        self.meths[m], (k1m / 100, k1m), (0.0, k2m),
                        self.split_resolution,
                        stability.RepartitionAngle(f * QUOTED_SPLIT[m]))
                    out["splits"][(m, f)] = stability.column_split_exists(grid)
                except Exception as exc:
                    out["splits"][(m, f)] = exc
        with part("part.power_bounded"):
            for k1 in _shuffled(self.power_k1, rng):
                try:
                    M = stability.epbm_transfer_matrix(
                        self.meths["epbm5"], stability.DahlquistPoint(k1, 0.0))
                    out["power"][k1] = stability.power_bounded_classification(M)
                except Exception as exc:
                    out["power"][k1] = exc
        return out

    def _check_map(self, m: str, rho: float, g: MapCsv) -> str:
        absR0, cls0 = g.column(0)
        if rho == 0.0 and m in QUOTED_SPLIT:            # criterion 4
            band = cli.K2_BANDS[m]
            onset = np.flatnonzero((g.k2 > 0) & (g.k2 < 0.01 * band))
            absR = np.concatenate([g.column(j)[0] for j in onset])
            unstable = absR[absR > 1.0 + 1e-10]
            if unstable.size == 0:
                return "no unstable points at 0 < k2 < 1% of the band"
            if not np.max(unstable) <= 1.05:
                return "onset |R| max %.5f > 1.05" % np.max(unstable)
        if rho == RHO_SMALL and m in QUOTED_SPLIT:      # criterion 5
            if not np.all(cls0 == "stable"):
                return "k2=0 column not all stable at rho=pi/2048"
            if not np.all(absR0[g.k1 >= 1.0] < 1.0 - 1e-9):
                return "k2=0 |R| not < 1 - 1e-9 for k1 >= 1"
        if m == "imrk4" and rho == 0.0 and np.any(cls0 == "unstable"):
            return "imrk4 k2=0 column unstable at rho=0"   # criterion 7
        if m == "imrk4" and rho == RHO_IMEX:
            k1s = g.k1[cls0 == "unstable"]
            if k1s.size == 0 or not float(np.max(k1s)) <= 20.0:
                return "imrk4 rho=pi/64 k2=0 instability not near the origin"
        return ""

    def check(self, out: dict) -> Report:
        rep = Report()
        digest = []
        for m, rho in self.maps:
            path = out["maps"][(m, rho)]
            name = "map %s rho=%.6g" % (m, rho)
            if isinstance(path, Exception):
                rep.op(name, False, _error_text(path))
                continue
            with open(path, "rb") as f:
                digest.append((m, rho, hashlib.sha256(f.read()).hexdigest()))
            try:
                g = MapCsv(path, *self.resolution)
            except (OSError, ValueError) as exc:
                rep.op(name, False, _error_text(exc))
                continue
            why = self._check_map(m, rho, g)
            rep.op(name, not why, why)
            if rho == RHO_SMALL and m in QUOTED_SPLIT:
                rep.error(m, float(np.max(np.abs(g.column(0)[0] - 1.0))))
        for m in self.split_methods:                    # criterion 6
            splits = [out["splits"][(m, f)] for f in SPLIT_FRACTIONS]
            digest.append((m, [repr(s) for s in splits]))
            first = next((i for i, s in enumerate(splits) if s is True), None)
            for i, (f, s) in enumerate(zip(SPLIT_FRACTIONS, splits)):
                name = "split %s rho=%.3f*quoted" % (m, f)
                if isinstance(s, Exception):
                    rep.op(name, False, _error_text(s))
                elif i == 0 and s:
                    rep.op(name, False, "split already at the smallest angle")
                elif first is None and i == len(splits) - 1:
                    rep.op(name, False, "no split up to 1.1x the quoted angle")
                else:
                    rep.op(name, True)
        for k1 in self.power_k1:
            cls = out["power"][k1]
            digest.append((float(k1), repr(cls)))
            rep.op("power_bounded k1=%.4g" % k1, cls == "stable",
                   "classified %r, expected 'stable'" % (cls,))
        rep.digest = _digest(digest)
        return rep


WORKLOADS = {"zds_ladder": ZdsLadder, "kdv_longtime": KdvLongtime,
             "stability_maps": StabilityMaps}


def no_span(name):
    return contextlib.nullcontext()
