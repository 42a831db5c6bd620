"""Experiment harness: reference management, convergence studies, long-time
error tracking, stability maps, and single solves.

A CLI flag wins over a line of the --config key=value file, and `_get`
casts either once; an option given neither way keeps the `run_*` default.
A config key must name an option of some command (exit 2 otherwise).
The library checks every value, and `main` maps any ValueError to exit 2.
Exit codes: 0 ok, 2 config error, 3 reference build failure or unreadable
cache entry, 4 every requested run blew up.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
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
from .spectral import (build_zds, build_kdv, parse_angle, parse_modification,
                       write_spectrum, read_spectrum)
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


class ConfigError(ValueError):
    """A rejected option value; `main` exits 2 on it, as on any ValueError."""


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
# with the NumPy version (N calls NumPy's own pocketfft, see spectral)
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
    if not sample_times:
        raise ConfigError("need at least one sample time")
    payload = ("problem=%s nx=%d method=%s n=%d t_end=%s samples=%s code=%s "
               "numpy=%s" % (problem, nx, method, n_steps, _fmt(t_end),
                             ",".join(_fmt(s) for s in sample_times),
                             _CODE_DIGEST, np.__version__))
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
    try:
        with open(os.path.join(entry, "meta.txt")) as f:
            if f.read().strip() != payload:
                raise ValueError("meta.txt does not match the entry's key")
        snaps = [read_spectrum(os.path.join(entry, "snap-%04d.txt" % i))
                 for i in range(len(sample_times))]
    except (OSError, ValueError) as e:  # a damaged entry, not a usage error
        raise ReferenceFailure("cache entry %s is damaged (remove it to "
                               "rebuild): %s" % (entry, e)) from None
    return [(meta["t"], u) for meta, u in snaps]


# --- experiment drivers ---------------------------------------------------------

def _whole(name: str, n) -> int:
    """n as an int, or ConfigError unless it is a whole number."""
    if n % 1 != 0:
        raise ConfigError("%s must be a whole number, got %r" % (name, n))
    return int(n)


def _check_steps(steps) -> list:
    steps = [_whole("step count", s) for s in steps]
    if not steps or any(b <= a for a, b in zip([0] + steps, steps)):
        raise ConfigError("step counts must be positive and increasing")
    return steps


def _check_methods(methods) -> None:
    for m in methods:
        if m not in FAMILIES:
            raise ConfigError("unknown method: %r (choices: %s)"
                              % (m, ", ".join(FAMILIES)))


def _check_distinct(what: str, items, show=str) -> None:
    """ConfigError naming the first item given twice."""
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError("duplicate %s: %s" % (what, show(item)))
        seen.add(item)


def _check_workers(workers) -> None:
    if workers < 1:
        raise ConfigError("workers must be >= 1, got %r" % (workers,))


def _check_out_file(path) -> None:
    """An output file (None: none) is named, goes into an existing directory
    and is not one; no missing directory is made for it."""
    if path is not None and (not os.fspath(path) or os.path.isdir(path) or
                             not os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError("cannot write %r: not a file in an existing "
                          "directory" % (os.fspath(path),))


def _write_csv(path, header: str, rows) -> None:
    """The header line, then each row of strings comma-joined; LF endings."""
    with open(path, "w", newline="\n") as f:
        f.write("\n".join([header] + [",".join(row) for row in rows]) + "\n")


def run_convergence(problem: str = "zds", nx: int = 128, t_end: float = 40.0,
                    methods: Sequence[str] = ("erk4",),
                    steps: Sequence[int] = (500, 1000),
                    modification=None,
                    ref_method: str = "rk4", ref_steps: int = 200000,
                    workers: int = 1, out_csv=None) -> list[RunRecord]:
    """Fixed-step refinement study against a cached fine reference."""
    steps = _check_steps(steps)
    if not methods:
        raise ConfigError("need at least one method")
    _check_methods([*methods, ref_method])
    _check_distinct("method", methods)
    _check_workers(workers)
    if _whole("reference steps", ref_steps) < 10 * max(steps):
        raise ConfigError("reference steps must be >= 10x the largest "
                          "experiment step count")
    _check_out_file(out_csv)
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
            h = res["h"]
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
        _write_csv(out_csv, "method,modification,n_steps,h,relative_error,"
                   "observed_order,wall_time_seconds,status",
                   [(r.method, r.modification, str(r.n_steps), _fmt(r.h),
                     _fmt(r.relative_error), _fmt(r.observed_order),
                     _fmt(r.wall_time), r.status) for r in records])
    return records


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
    if not runs:
        raise ConfigError("need at least one run")
    _check_methods([m for m, _ in runs] + [ref_method])
    _check_workers(workers)
    keys = [(m, _mod_describe(mod)) for m, mod in runs]
    _check_distinct("run", keys, "%s:%s".__mod__)
    n_steps = _whole("step count", n_steps)
    n_samples = _whole("sample count", n_samples)
    if n_steps < 1 or n_samples < 1:
        raise ConfigError("step and sample counts must be >= 1")
    if n_samples > n_steps:     # sample times snap to distinct steps
        raise ConfigError("sample count %d exceeds the step count %d"
                          % (n_samples, n_steps))
    if ref_steps < 10 * n_steps or ref_steps % n_steps:
        raise ConfigError("reference steps must be a multiple (>= 10) of the "
                          "run step count")
    _check_out_file(out_csv)
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
        _write_csv(out_csv, "method,modification,t,relative_error,status",
                   [(m, mod_s, _fmt(t), _fmt(err), status)
                    for (m, mod_s), rows in series.items()
                    for t, err, status in rows])
    return series


def run_stability_maps(methods: Sequence[str], rhos: Sequence[float],
                       out_dir, resolution=(600, 200), k1_max: float = 60.0,
                       k2_max: Optional[float] = None) -> list:
    """One classified grid CSV per (method, rho).  Every input is checked
    (ValueError) before the output directory is made; a method or an angle
    given twice is refused, as its maps would overwrite each other."""
    if not methods or not rhos:
        raise ConfigError("need at least one method and one angle")
    _check_methods(methods)
    _check_distinct("method", methods)
    angles = [stab.RepartitionAngle(rho) for rho in rhos]
    _check_distinct("angle", rhos, _fmt)
    n1 = stab.check_resolution(resolution)[0]
    if not os.fspath(out_dir) or (os.path.exists(out_dir)
                                  and not os.path.isdir(out_dir)):
        raise ConfigError("output %r is not a directory"
                          % (os.fspath(out_dir),))
    paths = []
    for m in methods:
        band = k2_max if k2_max is not None else K2_BANDS[m]
        for rho, angle in zip(rhos, angles):
            grid = stab.region_grid(make_method(m), (k1_max / n1, k1_max),
                                    (0.0, band), resolution, angle)
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, "stability-%s-rho%.10g.csv" % (m, rho))
            stab.grid_to_csv(grid, path)
            paths.append(path)
    return paths


def run_solve(problem: str, nx: int, method: str, n_steps: int, t_end: float,
              modification=None, out_path=None):
    """Single integration; snapshot written with a blow-up flag if needed."""
    _check_out_file(out_path)
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


def _list_of(cast):
    """Cast of a comma list, each item by `cast`."""
    return lambda s: [cast(p) for p in s.split(",") if p]


def _resolution(s: str) -> tuple:
    """'N1xN2' as a tuple of ints, which the grid checks."""
    return tuple(int(n) for n in s.lower().split("x"))


def _runs(s: str) -> list:
    """'method[:modification];..' as (method, modification) pairs."""
    items = [i.partition(":") for i in map(str.strip, s.split(";")) if i]
    return [(name, parse_modification(spec) if colon else None)
            for name, colon, spec in items]


def _given(**options) -> dict:
    """The options that were given; the others keep the library defaults."""
    return {key: val for key, val in options.items() if val is not None}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="expstab",
        description="partitioned exponential integrator experiments")
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    run = argparse.ArgumentParser(add_help=False)    # flags of every run
    run.add_argument("--problem")
    run.add_argument("--nx")
    run.add_argument("--t-end")
    modified = argparse.ArgumentParser(add_help=False, parents=[run])
    modified.add_argument("--modification", help="none|kind:key=value[:...]")
    study = argparse.ArgumentParser(add_help=False)  # converge and longtime
    study.add_argument("--ref-method")
    study.add_argument("--ref-steps")
    study.add_argument("--workers")
    study.add_argument("--out")

    p = sub.add_parser("stability", help="classified stability-region maps")
    p.add_argument("--methods")
    p.add_argument("--rho", help="comma list of angles (e.g. 0,pi/2048)")
    p.add_argument("--resolution", help="N1xN2, default 600x200")
    p.add_argument("--k2-max")
    p.add_argument("--out")

    p = sub.add_parser("converge", parents=[modified, study],
                       help="fixed-step refinement study")
    p.add_argument("--methods")
    p.add_argument("--steps")

    p = sub.add_parser("longtime", parents=[run, study],
                       help="error-vs-time series")
    p.add_argument("--steps", help="single step count")
    p.add_argument("--runs", help="semicolon list: method[:modspec];...")
    p.add_argument("--n-samples")

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
        # a key may name any command's option, so one file serves several
        unknown = set(cfg).difference(*(vars(p.parse_args([]))
                                        for p in sub.choices.values()))
        if unknown:
            raise ConfigError("config key %s names no option" % ", ".join(
                map(repr, sorted(unknown))))
        return _dispatch(args, cfg)
    except ReferenceFailure as e:
        print("reference failure: %s" % e, file=sys.stderr)
        return EXIT_REFERENCE
    except ValueError as e:     # a ConfigError, or a value the library rejects
        print("config error: %s" % e, file=sys.stderr)
        return EXIT_CONFIG


def _dispatch(args, cfg) -> int:
    cmd = args.command
    get = functools.partial(_get, args, cfg)
    if cmd == "stability":
        run_stability_maps(
            get("methods", ["erk4"], _list_of(str)),
            get("rho", [0.0], _list_of(parse_angle)),
            get("out", "stability-maps"),
            **_given(resolution=get("resolution", None, _resolution),
                     k2_max=get("k2_max", None, float)))
        return EXIT_OK

    if cmd in ("converge", "longtime"):     # the options the studies share
        study = dict(workers=get("workers", os.cpu_count() or 1, int),
                     out_csv=get("out", cmd + ".csv"),
                     **_given(problem=get("problem"), nx=get("nx", None, int),
                              t_end=get("t_end", None, float),
                              ref_method=get("ref_method"),
                              ref_steps=get("ref_steps", None, int)))

    if cmd == "converge":
        records = run_convergence(
            modification=get("modification", None, parse_modification),
            **study,
            **_given(methods=get("methods", None, _list_of(str)),
                     steps=get("steps", None, _list_of(int))))
        return (EXIT_ALL_BLOWUP if all(r.status == "blowup" for r in records)
                else EXIT_OK)

    if cmd == "longtime":
        series = run_longtime(
            **study, **_given(n_steps=get("steps", None, int),
                              runs=get("runs", None, _runs),
                              n_samples=get("n_samples", None, int)))
        return (EXIT_ALL_BLOWUP if all(rows and rows[-1][2] == "blowup"
                                       for rows in series.values())
                else EXIT_OK)

    if cmd == "solve":
        res = run_solve(
            problem=get("problem", "zds"),
            nx=get("nx", 128, int),
            method=get("method", "erk4"),
            n_steps=get("steps", 1000, int),
            t_end=get("t_end", 40.0, float),
            modification=get("modification", None, parse_modification),
            out_path=get("out", "solution.txt"))
        return EXIT_OK if res["ok"] else EXIT_ALL_BLOWUP

    # "reference" (argparse admits no other command)
    t_end = get("t_end", 40.0, float)
    ensure_reference(get("problem", "zds"), get("nx", 128, int),
                     get("method", "rk4"), get("steps", 200000, int),
                     t_end, get("samples", [t_end], _list_of(float)))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
