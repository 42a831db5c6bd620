"""Layer tracing from outside the program.

`Tracer.install()` rebinds the public functions of each expstab layer in the
module namespace they are looked up in, so the package itself is unchanged.
Ordinary boundaries push a span (name, id, parent, start, end, attributes);
the hot boundaries -- the spectral nonlinearity N, `PhiCache.table` and
`phi_table` -- are aggregated per parent span instead of recorded per call.
A span's self time is its duration minus the time of its children.
"""
from __future__ import annotations

import contextlib
import os
import statistics
import time

from expstab import cli, integrators, phicore, stability

FAMILIES = ("erk4", "esdc6", "epbm5", "imrk4", "rk4")
STABILITY_STEPS = ("step_erk4", "step_esdc6", "step_epbm5", "step_imrk4",
                   "step_rk4", "step_exp_euler")


class Span:
    __slots__ = ("name", "id", "parent", "start", "end", "child", "attrs",
                 "hot")

    def __init__(self, name, sid, parent, attrs):
        self.name = name
        self.id = sid
        self.parent = parent
        self.attrs = attrs
        self.child = 0.0
        self.hot = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    def record(self) -> dict:
        return {"name": self.name, "id": self.id, "parent": self.parent,
                "start": self.start, "end": self.end, "attrs": self.attrs,
                "hot": self.hot}


class Tracer:
    """Spans kept in memory for one traced study; see `metrics()`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved: list[tuple] = []

    # --- span bookkeeping ---------------------------------------------------

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(name, len(self.spans), parent, attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    @contextlib.contextmanager
    def part(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s closed out of order" % span.name)
        if self._stack:
            self._stack[-1].child += span.duration

    def _add_hot(self, key: str, seconds: float, count_as_child: bool,
                 points: int = 0) -> None:
        top = self._stack[-1]
        agg = top.hot.get(key)
        if agg is None:
            agg = top.hot[key] = [0, 0.0, 0]
        agg[0] += 1
        agg[1] += seconds
        agg[2] += points
        if count_as_child:
            top.child += seconds

    # --- wrappers -------------------------------------------------------------

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn, attrs_of=None, after=None):
        def wrapper(*args, **kwargs):
            span = self.open(name, **(attrs_of(*args, **kwargs)
                                      if attrs_of else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                after(span, out, *args, **kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_nonlinear(self, fn):
        clock = time.perf_counter

        def nonlinear(t, u_hat):
            t0 = clock()
            out = fn(t, u_hat)
            self._add_hot("spectral.N", clock() - t0, True)
            return out
        return nonlinear

    def _wrap_build(self, name, fn):
        def after(span, out, *args, **kwargs):
            out[0].nonlinear = self._wrap_nonlinear(out[0].nonlinear)
        return self._span_wrapper("spectral.build", fn,
                                  lambda *a, **k: {"problem": name}, after)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        clock = time.perf_counter
        orig_table = phicore.PhiCache.table
        orig_phi_table = phicore.phi_table

        def table(cache, h, K=4):
            t0 = clock()
            out = orig_table(cache, h, K)
            self._add_hot("phicore.table", clock() - t0, True)
            return out

        def phi_table(L_diag, h, K=4):
            # only ever reached from PhiCache.table, whose time already
            # counts as the parent's child time
            t0 = clock()
            out = orig_phi_table(L_diag, h, K)
            self._add_hot("phicore.build", clock() - t0, False,
                          points=out.args.size)
            return out

        self._rebind(phicore.PhiCache, "table", table)
        self._rebind(phicore, "phi_table", phi_table)

        self._rebind(cli, "build_zds", self._wrap_build("zds", cli.build_zds))
        self._rebind(cli, "build_kdv", self._wrap_build("kdv", cli.build_kdv))

        def integrate_attrs(problem, method, *args, **kwargs):
            return {"family": method.family}

        def integrate_after(span, res, *args, **kwargs):
            steps = res.n_steps if res.ok else res.blowup_step
            if span.attrs["family"] == "epbm5" and res.ok:
                steps += 1          # n + 1 composite steps reach t_end
            span.attrs.update(ok=bool(res.ok), steps=int(steps))

        self._rebind(cli, "integrate", self._span_wrapper(
            "integrators.integrate", cli.integrate, integrate_attrs,
            integrate_after))
        self._rebind(integrators, "epbm_initialize", self._span_wrapper(
            "integrators.epbm_initialize", integrators.epbm_initialize))

        for name in STABILITY_STEPS:
            self._rebind(stability, name, self._span_wrapper(
                "stability.step", getattr(stability, name)))

        def grid_attrs(method, k1_range, k2_range, resolution, angle=None):
            return {"points": int(resolution[0]) * int(resolution[1])}

        self._rebind(stability, "region_grid", self._span_wrapper(
            "stability.region_grid", stability.region_grid, grid_attrs))
        self._rebind(stability, "grid_to_csv", self._span_wrapper(
            "stability.grid_to_csv", stability.grid_to_csv,
            after=lambda span, out, grid, path: span.attrs.update(
                bytes=os.path.getsize(path))))
        self._rebind(stability, "column_split_exists", self._span_wrapper(
            "stability.column_split_exists", stability.column_split_exists))
        self._rebind(stability, "power_bounded_classification",
                     self._span_wrapper("stability.power_bounded",
                                        stability.power_bounded_classification))

        def reference_after(span, out, *args, **kwargs):
            span.attrs["hit"] = not any(
                s.parent == span.id and s.name == "integrators.integrate"
                for s in self.spans[span.id + 1:])

        self._rebind(cli, "ensure_reference", self._span_wrapper(
            "cli.ensure_reference", cli.ensure_reference,
            after=reference_after))
        self._rebind(cli, "write_spectrum", self._span_wrapper(
            "cli.write_spectrum", cli.write_spectrum,
            after=lambda span, out, path, *a, **k: span.attrs.update(
                bytes=os.path.getsize(path))))
        self._rebind(cli, "read_spectrum", self._span_wrapper(
            "cli.read_spectrum", cli.read_spectrum))
        for name in ("run_convergence", "run_longtime", "run_stability_maps"):
            self._rebind(cli, name, self._span_wrapper(
                "cli." + name, getattr(cli, name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # --- per-layer metrics ------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the traced study (the root span is `study`)."""
        spans = self.spans
        study = next(s for s in spans if s.name == "study")

        def named(name):
            return [s for s in spans if s.name == name]

        def total(name):
            return sum(s.duration for s in named(name))

        def hot(key, field=0, among=spans):
            return sum(s.hot[key][field] for s in among if key in s.hot)

        m = {}
        requests = hot("phicore.table")
        built = hot("phicore.build")
        m["phicore.tables_built"] = built
        m["phicore.table_requests"] = requests
        m["phicore.hit_ratio"] = 1.0 - built / requests if requests else 0.0
        m["phicore.build_s"] = hot("phicore.build", 1)
        m["phicore.points"] = hot("phicore.build", 2)

        n_calls = hot("spectral.N")
        n_s = hot("spectral.N", 1)
        m["spectral.n_calls"] = n_calls
        m["spectral.n_s"] = n_s
        m["spectral.n_us_per_call"] = 1e6 * n_s / n_calls if n_calls else 0.0
        m["spectral.n_share"] = n_s / study.duration
        m["spectral.problem_builds"] = len(named("spectral.build"))
        m["spectral.build_s"] = total("spectral.build")

        runs = named("integrators.integrate")
        startup = {s.parent: s.duration
                   for s in named("integrators.epbm_initialize")}
        for fam in FAMILIES:
            mine = [s for s in runs if s.attrs["family"] == fam]
            steps = sum(s.attrs["steps"] for s in mine)
            wall = sum(s.duration - startup.get(s.id, 0.0) for s in mine)
            own = sum(s.self_time for s in mine)
            per = (lambda x: x / steps) if steps else (lambda x: 0.0)
            m["integrators.%s.steps" % fam] = steps
            m["integrators.%s.us_per_step" % fam] = 1e6 * per(wall)
            m["integrators.%s.self_us_per_step" % fam] = 1e6 * per(own)
            m["integrators.%s.n_calls_per_step" % fam] = per(
                hot("spectral.N", 0, mine))
        m["integrators.epbm5.startup_s"] = sum(startup.values())
        all_steps = sum(s.attrs["steps"] for s in runs)
        m["integrators.blowups"] = sum(not s.attrs["ok"] for s in runs)
        m["integrators.useful_step_ratio"] = (
            sum(s.attrs["steps"] for s in runs if s.attrs["ok"]) / all_steps
            if all_steps else 0.0)

        grids = named("stability.region_grid")
        csvs = named("stability.grid_to_csv")
        m["stability.points"] = sum(s.attrs["points"] for s in grids)
        m["stability.grid_s"] = sum(s.duration for s in grids)
        m["stability.grid_self_s"] = sum(s.self_time for s in grids)
        m["stability.step_s"] = total("stability.step")
        m["stability.csv_s"] = sum(s.duration for s in csvs)
        m["stability.csv_bytes"] = sum(s.attrs["bytes"] for s in csvs)
        m["stability.split_scan_s"] = total("part.split_scan")
        m["stability.power_bounded_calls"] = len(named("stability.power_bounded"))
        m["stability.power_bounded_s"] = total("stability.power_bounded")

        refs = named("cli.ensure_reference")
        writes = named("cli.write_spectrum")
        m["cli.cache_misses"] = sum(not s.attrs["hit"] for s in refs)
        m["cli.cache_hits"] = sum(s.attrs["hit"] for s in refs)
        m["cli.ref_build_s"] = sum(s.duration for s in refs
                                   if not s.attrs["hit"])
        m["cli.cache_write_s"] = sum(s.duration for s in writes)
        m["cli.cache_read_s"] = total("cli.read_spectrum")
        m["cli.cache_bytes"] = sum(s.attrs["bytes"] for s in writes)
        m["cli.driver_self_s"] = sum(s.self_time for s in spans
                                     if s.name in ("cli.ensure_reference",
                                                   "cli.run_convergence",
                                                   "cli.run_longtime",
                                                   "cli.run_stability_maps"))
        m["trace.study_s"] = study.duration
        return m


def median_metrics(per_rep: list[dict]) -> dict:
    """Per-metric median over traced repetitions."""
    return {k: statistics.median(rep[k] for rep in per_rep)
            for k in per_rep[0]}
