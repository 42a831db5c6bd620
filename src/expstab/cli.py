"""Experiment harness: reference management, convergence studies, long-time
error tracking, stability maps, and single solves.

Config resolution: flat key=value file (--config) overridden by CLI flags.
Exit codes: 0 ok, 2 config error, 3 reference build failure, 4 every
requested run blew up.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import math
import os
import pathlib
import shutil
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .integrators import (FAMILIES, METHODS, make_method, integrate,
                          integrate_many)
from .spectral import (REPARTITION_KINDS, build_zds, build_kdv, parse_angle,
                       parse_modification, write_spectrum, read_spectrum)
from . import stability as stab

__all__ = [
    "ConfigError", "ReferenceFailure", "RunRecord", "relative_error",
    "cache_dir", "ensure_reference", "run_convergence", "run_longtime",
    "run_stability_maps", "run_solve", "main",
    "EXIT_OK", "EXIT_CONFIG", "EXIT_REFERENCE", "EXIT_ALL_BLOWUP",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFERENCE = 3
EXIT_ALL_BLOWUP = 4

# default stability-map windows (k2 band per method, k1 in (0, 60])
K2_BANDS = {family: spec.k2_band for family, spec in METHODS.items()}


class ConfigError(Exception):
    pass


class ReferenceFailure(Exception):
    pass


@dataclass
class RunRecord:
    method: str
    modification: str
    n_steps: int
    h: float
    relative_error: float
    observed_order: float
    wall_time: float
    status: str          # ok | nonconverged | blowup


def relative_error(y: np.ndarray, y_ref: np.ndarray) -> float:
    """max-norm relative error ||y_ref - y||_inf / ||y_ref||_inf."""
    ref = float(np.max(np.abs(y_ref)))
    if ref == 0.0:
        raise ValueError("reference has zero norm")
    return float(np.max(np.abs(y_ref - y)) / ref)


def cache_dir() -> str:
    env = os.environ.get("EXPSTAB_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "expstab")


def _build_problem(problem: str, nx: int):
    if problem == "zds":
        return build_zds(nx)
    if problem == "kdv":
        return build_kdv(nx)
    raise ConfigError("unknown problem: %r" % (problem,))


# --- run tasks (picklable descriptions, rebuilt inside workers) ---------------
# A task is (problem, nx, family, n_steps, t_end, modification, sample_times);
# tasks that differ only in their modification step together as one batch.

def _mod_describe(mod) -> str:
    return "none" if mod is None else mod.describe()


def _run_group(tasks: Sequence[tuple]) -> list:
    """Run tasks that share everything but the modification: more than one
    as one `integrate_many` batch (each run then reports the wall time of
    the whole batch), a lone task through `integrate`, so that a tracer
    hooking `integrate` still sees every unbatched run."""
    (problem_name, nx, family, n_steps, t_end, _, sample_times) = tasks[0]
    problem, u0 = _build_problem(problem_name, nx)
    method = make_method(family)
    start = time.perf_counter()
    if len(tasks) == 1:
        results = [integrate(problem, method, u0, (0.0, t_end), n_steps,
                             modification=tasks[0][5],
                             sample_times=sample_times)]
    else:
        results = integrate_many(problem, method, u0, (0.0, t_end), n_steps,
                                 [task[5] for task in tasks], sample_times)
    wall = time.perf_counter() - start
    return [{"ok": res.ok, "blowup_step": res.blowup_step, "t": res.t,
             "y": res.y, "samples": res.samples, "h": res.h, "wall": wall}
            for res in results]


def _run_single(task: tuple) -> dict:
    return _run_group([task])[0]


def _partition(tasks: Sequence[tuple], workers: int) -> list:
    """Task indices grouped by all but the modification.  While there are
    fewer groups than `workers`, the largest is halved, so that every
    worker of a pool gets a batch when the runs allow it."""
    groups: dict = {}
    for i, task in enumerate(tasks):
        key = task[:5] + (None if task[6] is None else tuple(task[6]),)
        groups.setdefault(key, []).append(i)
    parts = list(groups.values())
    while len(parts) < workers and max(map(len, parts), default=0) > 1:
        big = max(parts, key=len)
        parts.remove(big)
        half = (len(big) + 1) // 2
        parts += [big[:half], big[half:]]
    return parts


def _run_many(tasks: Sequence[tuple], workers: int) -> list:
    """Results in task order; the process pool spreads batches, not runs."""
    parts = _partition(tasks, workers)
    batches = [[tasks[i] for i in idx] for idx in parts]
    if workers <= 1 or len(batches) <= 1:
        done = [_run_group(b) for b in batches]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_group, batches))
    results = [None] * len(tasks)
    for idx, out in zip(parts, done):
        for i, res in zip(idx, out):
            results[i] = res
    return results


# --- reference cache ----------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# digest of the modules that compute a reference, part of its cache key
_CODE_DIGEST = hashlib.sha1(b"".join(
    pathlib.Path(__file__).with_name(name).read_bytes()
    for name in ("phicore.py", "integrators.py", "spectral.py"))).hexdigest()[:16]


def _remove_stale_builds(entry: str) -> None:
    """Remove the `<entry>.tmp.<pid>` directories of builds whose process is
    gone (killed by a signal, so their own clean-up never ran)."""
    parent, prefix = os.path.split(entry + ".tmp.")
    names = os.listdir(parent) if os.path.isdir(parent) else []
    for name in names:
        pid = name[len(prefix):]
        if not (name.startswith(prefix) and pid.isdecimal()):
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
        except (OverflowError, OSError):
            pass        # a pid out of range, or another user's live process


def ensure_reference(problem: str, nx: int, method: str, n_steps: int,
                     t_end: float, sample_times: Sequence[float]) -> list:
    """Return reference spectra at the given sample times, building and
    caching on first use.  The cache entry is published atomically
    (temp dir + rename), so a killed build never leaves a truncated entry;
    the temp dir is removed on every exit path, and one left by a build
    killed by a signal is removed by the next call for that entry."""
    sample_times = [float(s) for s in sample_times]
    payload = "problem=%s nx=%d method=%s n=%d t_end=%s samples=%s code=%s" % (
        problem, nx, method, n_steps, _fmt(t_end),
        ",".join(_fmt(s) for s in sample_times), _CODE_DIGEST)
    digest = hashlib.sha1(payload.encode()).hexdigest()[:16]
    entry = os.path.join(cache_dir(), "%s-nx%d-%s-n%d-%s"
                         % (problem, nx, method, n_steps, digest))
    _remove_stale_builds(entry)

    if not os.path.isdir(entry):
        res = _run_single((problem, nx, method, n_steps, t_end, None,
                           sample_times))
        if not res["ok"]:
            raise ReferenceFailure(
                "reference run (%s, n=%d) blew up at step %s"
                % (method, n_steps, res["blowup_step"]))
        tmp = entry + ".tmp.%d" % os.getpid()
        try:
            os.makedirs(tmp, exist_ok=True)
            with open(os.path.join(tmp, "meta.txt"), "w", newline="\n") as f:
                f.write(payload + "\n")
            for i, (t_actual, y) in enumerate(res["samples"]):
                write_spectrum(os.path.join(tmp, "snap-%04d.txt" % i),
                               problem, t_actual, y)
            os.replace(tmp, entry)
        except OSError:
            if not os.path.isdir(entry):   # no entry, not a lost race
                raise
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(entry, "meta.txt")) as f:
        if f.read().strip() != payload:
            raise ReferenceFailure("cache entry %s does not match its key" % entry)
    out = []
    for i in range(len(sample_times)):
        meta, u = read_spectrum(os.path.join(entry, "snap-%04d.txt" % i))
        out.append((meta["t"], u))
    return out


# --- experiment drivers ---------------------------------------------------------

def _check_steps(steps) -> list:
    steps = [int(s) for s in steps]
    if not steps or any(b <= a for a, b in zip(steps, steps[1:])):
        raise ConfigError("step counts must be strictly increasing")
    return steps


def _check_methods(methods) -> None:
    for m in methods:
        if m not in FAMILIES:
            raise ConfigError("unknown method: %r (choices: %s)"
                              % (m, ", ".join(FAMILIES)))


def run_convergence(problem: str = "zds", nx: int = 128, t_end: float = 40.0,
                    methods: Sequence[str] = ("erk4",),
                    steps: Sequence[int] = (500, 1000),
                    modification=None,
                    ref_method: str = "rk4", ref_steps: int = 200000,
                    workers: int = 1, out_csv=None) -> list[RunRecord]:
    """Fixed-step refinement study against a cached fine reference."""
    steps = _check_steps(steps)
    _check_methods(methods)
    _check_methods([ref_method])
    if ref_steps < 10 * max(steps):
        raise ConfigError("reference steps must be >= 10x the largest "
                          "experiment step count")
    ref = ensure_reference(problem, nx, ref_method, ref_steps, t_end, [t_end])
    y_ref = ref[0][1]
    mod_s = _mod_describe(modification)
    tasks = [(problem, nx, m, n, t_end, modification, None)
             for m in methods for n in steps]
    results = _run_many(tasks, workers)

    records = []
    for mi, m in enumerate(methods):
        prev = None   # (h, err) of previous ok run for observed order
        for ni, n in enumerate(steps):
            res = results[mi * len(steps) + ni]
            h = (t_end - 0.0) / n
            if not res["ok"]:
                records.append(RunRecord(m, mod_s, n, h, float("nan"),
                                         float("nan"), res["wall"], "blowup"))
                prev = None
                continue
            err = relative_error(res["y"], y_ref)
            status = "ok" if err <= 1.0 else "nonconverged"
            order = float("nan")
            if prev is not None and err > 0 and prev[1] > 0:
                order = math.log(prev[1] / err) / math.log(prev[0] / h)
            records.append(RunRecord(m, mod_s, n, h, err, order,
                                     res["wall"], status))
            prev = (h, err) if status == "ok" else None
    if out_csv:
        _write_records(records, out_csv)
    return records


def _write_records(records: list[RunRecord], path) -> None:
    lines = ["method,modification,n_steps,h,relative_error,observed_order,"
             "wall_time_seconds,status"]
    for r in records:
        lines.append("%s,%s,%d,%s,%s,%s,%s,%s"
                     % (r.method, r.modification, r.n_steps, _fmt(r.h),
                        _fmt(r.relative_error), _fmt(r.observed_order),
                        _fmt(r.wall_time), r.status))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def run_longtime(problem: str = "kdv", nx: int = 512, t_end: float = 160.0,
                 n_steps: int = 56000,
                 runs: Sequence[tuple] = (("erk4", None),),
                 n_samples: int = 30,
                 ref_method: str = "imrk4", ref_steps: int = 560000,
                 workers: int = 1, out_csv=None) -> dict:
    """Error-vs-time series for distinct (method, modification) pairs
    against a cached reference.  The even sample times snap to the run's
    step grid, which the reference shares, so both are compared at the same
    times.  Runs of one method step together as one batch."""
    _check_methods([m for m, _ in runs] + [ref_method])
    keys = [(m, _mod_describe(mod)) for m, mod in runs]
    if len(set(keys)) < len(keys):
        raise ConfigError("duplicate run: %s:%s" % next(
            k for i, k in enumerate(keys) if k in keys[:i]))
    if ref_steps < 10 * n_steps or ref_steps % n_steps:
        raise ConfigError("reference steps must be a multiple (>= 10) of the "
                          "run step count")
    sample_times = [t_end * round(i * n_steps / n_samples) / n_steps
                    for i in range(1, n_samples + 1)]
    ref = ensure_reference(problem, nx, ref_method, ref_steps, t_end,
                           sample_times)
    tasks = [(problem, nx, m, n_steps, t_end, mod, sample_times)
             for (m, mod) in runs]
    results = _run_many(tasks, workers)

    series = {}
    for key, res in zip(keys, results):
        rows = []
        for (sample, refsample) in zip(res["samples"], ref):
            if sample is None:
                continue
            t_actual, y = sample
            rows.append((t_actual, relative_error(y, refsample[1]), "ok"))
        if not res["ok"]:
            rows.append((res["t"], float("nan"), "blowup"))
        series[key] = rows
    if out_csv:
        lines = ["method,modification,t,relative_error,status"]
        for (m, mod_s), rows in series.items():
            for (t, err, status) in rows:
                lines.append("%s,%s,%s,%s,%s" % (m, mod_s, _fmt(t),
                                                 _fmt(err), status))
        with open(out_csv, "w", newline="\n") as f:
            f.write("\n".join(lines) + "\n")
    return series


def run_stability_maps(methods: Sequence[str], rhos: Sequence[float],
                       out_dir, resolution=(600, 200), k1_max: float = 60.0,
                       k2_max: Optional[float] = None) -> list:
    """One classified grid CSV per (method, rho)."""
    os.makedirs(out_dir, exist_ok=True)
    n1 = int(resolution[0])
    paths = []
    for m in methods:
        band = k2_max if k2_max is not None else K2_BANDS[m]
        for rho in rhos:
            grid = stab.region_grid(make_method(m), (k1_max / n1, k1_max),
                                    (0.0, band), resolution,
                                    stab.RepartitionAngle(rho))
            path = os.path.join(out_dir, "stability-%s-rho%.10g.csv" % (m, rho))
            stab.grid_to_csv(grid, path)
            paths.append(path)
    return paths


def run_solve(problem: str, nx: int, method: str, n_steps: int, t_end: float,
              modification=None, out_path=None):
    """Single integration; snapshot written with a blow-up flag if needed."""
    _check_methods([method])
    res = _run_single((problem, nx, method, n_steps, t_end, modification,
                       [t_end]))
    if out_path:
        status = "ok" if res["ok"] else "blowup"
        write_spectrum(out_path, problem, res["t"], res["y"], status=status)
    return res


# --- argument and config parsing ------------------------------------------------

def _load_config(path) -> dict:
    cfg = {}
    try:
        with open(path) as f:
            for ln, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError("config line %d is not key=value" % ln)
                key, _, val = line.partition("=")
                cfg[key.strip()] = val.strip()
    except OSError as e:
        raise ConfigError("cannot read config: %s" % e) from None
    return cfg


def _cast(key: str, val, cast):
    try:
        return cast(val)
    except (TypeError, ValueError) as e:
        raise ConfigError("bad value for %s: %s" % (key, e)) from None


def _get(args, cfg: dict, key: str, default=None, cast=str):
    """CLI flag wins, then config file, then default."""
    val = getattr(args, key, None)
    if val is None and key in cfg:
        val = cfg[key]
    return default if val is None else _cast(key, val, cast)


def _csv_list(s, cast):
    return [cast(p) for p in str(s).split(",") if p]


def _build_modification(args, cfg):
    """--repartition KIND:.. or --hyperviscosity M:GAMMA as one spec."""
    rep_s = _get(args, cfg, "repartition")
    hyper_s = _get(args, cfg, "hyperviscosity")
    if rep_s and hyper_s:
        raise ConfigError("at most one of repartition/hyperviscosity")
    if rep_s and rep_s.split(":")[0].strip() not in REPARTITION_KINDS:
        raise ConfigError("not a repartition: %r" % (rep_s,))
    spec = "hyperviscosity:" + hyper_s if hyper_s else rep_s or "none"
    return _cast("modification", spec, parse_modification)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="expstab",
        description="partitioned exponential integrator experiments")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)    # flags of every run
    run.add_argument("--problem")
    run.add_argument("--nx", type=int)
    run.add_argument("--t-end", dest="t_end", type=float)
    modified = argparse.ArgumentParser(add_help=False, parents=[run])
    modified.add_argument("--repartition", help="kind:rho=<angle>|eps=<value>")
    modified.add_argument("--hyperviscosity", help="m:gamma")

    p = sub.add_parser("stability", help="classified stability-region maps")
    p.add_argument("--methods")
    p.add_argument("--rho", help="comma list of angles (e.g. 0,pi/2048)")
    p.add_argument("--resolution", help="N1xN2, default 600x200")
    p.add_argument("--k2-max", dest="k2_max", type=float)
    p.add_argument("--out")

    p = sub.add_parser("converge", parents=[modified],
                       help="fixed-step refinement study")
    p.add_argument("--methods")
    p.add_argument("--steps")
    p.add_argument("--ref-method", dest="ref_method")
    p.add_argument("--ref-steps", dest="ref_steps", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")

    p = sub.add_parser("longtime", parents=[run], help="error-vs-time series")
    p.add_argument("--steps", help="single step count")
    p.add_argument("--runs", help="semicolon list: method[:modspec];...")
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--ref-method", dest="ref_method")
    p.add_argument("--ref-steps", dest="ref_steps", type=int)
    p.add_argument("--workers", type=int)
    p.add_argument("--out")

    p = sub.add_parser("solve", parents=[modified],
                       help="single run, snapshot output")
    p.add_argument("--method")
    p.add_argument("--steps")
    p.add_argument("--out")

    p = sub.add_parser("reference", parents=[run],
                       help="prebuild a cached reference")
    p.add_argument("--method")
    p.add_argument("--steps")
    p.add_argument("--samples", help="comma list of sample times")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config) if args.config else {}
        return _dispatch(args, cfg)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG
    except ReferenceFailure as e:
        print("reference failure: %s" % e, file=sys.stderr)
        return EXIT_REFERENCE


def _dispatch(args, cfg) -> int:
    cmd = args.command
    if cmd == "stability":
        methods = _csv_list(_get(args, cfg, "methods", "erk4"), str)
        rhos = _get(args, cfg, "rho", [0.0],
                    lambda s: _csv_list(s, parse_angle))
        res_s = _get(args, cfg, "resolution", "600x200")
        try:
            n1, n2 = (int(v) for v in str(res_s).lower().split("x"))
            if min(n1, n2) < 1:
                raise ValueError(res_s)
        except ValueError:
            raise ConfigError("resolution must look like 600x200") from None
        out = _get(args, cfg, "out", "stability-maps")
        _check_methods(methods)
        try:
            run_stability_maps(methods, rhos, out, (n1, n2),
                               k2_max=_get(args, cfg, "k2_max", None, float))
        except ValueError as e:     # a range or resolution region_grid rejects
            raise ConfigError(str(e)) from None
        return EXIT_OK

    if cmd == "converge":
        records = run_convergence(
            problem=_get(args, cfg, "problem", "zds"),
            nx=_get(args, cfg, "nx", 128, int),
            t_end=_get(args, cfg, "t_end", 40.0, float),
            methods=_csv_list(_get(args, cfg, "methods", "erk4"), str),
            steps=_csv_list(_get(args, cfg, "steps", "500,1000"), int),
            modification=_build_modification(args, cfg),
            ref_method=_get(args, cfg, "ref_method", "rk4"),
            ref_steps=_get(args, cfg, "ref_steps", 200000, int),
            workers=_get(args, cfg, "workers", os.cpu_count() or 1, int),
            out_csv=_get(args, cfg, "out", "converge.csv"))
        if all(r.status == "blowup" for r in records):
            return EXIT_ALL_BLOWUP
        return EXIT_OK

    if cmd == "longtime":
        runs = []
        for item in str(_get(args, cfg, "runs", "erk4")).split(";"):
            item = item.strip()
            if not item:
                continue
            name, _, modspec = item.partition(":")
            runs.append((name, _cast("runs", modspec or "none",
                                     parse_modification)))
        series = run_longtime(
            problem=_get(args, cfg, "problem", "kdv"),
            nx=_get(args, cfg, "nx", 512, int),
            t_end=_get(args, cfg, "t_end", 160.0, float),
            n_steps=_get(args, cfg, "steps", 56000, int),
            runs=runs,
            n_samples=_get(args, cfg, "n_samples", 30, int),
            ref_method=_get(args, cfg, "ref_method", "imrk4"),
            ref_steps=_get(args, cfg, "ref_steps", 560000, int),
            workers=_get(args, cfg, "workers", os.cpu_count() or 1, int),
            out_csv=_get(args, cfg, "out", "longtime.csv"))
        if all(rows and rows[-1][2] == "blowup" for rows in series.values()):
            return EXIT_ALL_BLOWUP
        return EXIT_OK

    if cmd == "solve":
        res = run_solve(
            problem=_get(args, cfg, "problem", "zds"),
            nx=_get(args, cfg, "nx", 128, int),
            method=_get(args, cfg, "method", "erk4"),
            n_steps=_get(args, cfg, "steps", 1000, int),
            t_end=_get(args, cfg, "t_end", 40.0, float),
            modification=_build_modification(args, cfg),
            out_path=_get(args, cfg, "out", "solution.txt"))
        return EXIT_OK if res["ok"] else EXIT_ALL_BLOWUP

    if cmd == "reference":
        t_end = _get(args, cfg, "t_end", 40.0, float)
        sample_times = _get(args, cfg, "samples", [t_end],
                            lambda s: _csv_list(s, float))
        ensure_reference(_get(args, cfg, "problem", "zds"),
                         _get(args, cfg, "nx", 128, int),
                         _get(args, cfg, "method", "rk4"),
                         _get(args, cfg, "steps", 200000, int),
                         t_end, sample_times)
        return EXIT_OK

    raise ConfigError("unknown command: %r" % (cmd,))


if __name__ == "__main__":
    sys.exit(main())
