"""Parity check of expstab outputs across two source trees.

    PYTHONPATH=src python tools/parity.py dump DIR [--only PATTERN ...]
    python tools/parity.py compare A B [--rtol R]

`dump` runs a fixed matrix with the expstab it imports and writes one
record per run and per grid to DIR/records.jsonl, every float at 17
significant digits (a lossless round trip):

  runs   6 families x 6 modifications on ZDS-32 (t = 2 and t = 40, h = 0.2)
         and KdV-64 (t = 0.5 and t = 8, h = 0.01), and on short runs at
         the benchmark's sizes and step sizes: ZDS-128 (t = 1, h = 0.04)
         and KdV-512 (t = 0.1, h = 160/56000), whose N calls run on ZDS's
         192-point padded grid and KdV's 512-point one.  KdV's runs step
         modes 0..B and are recorded expanded to all Nx.  Each run goes
         alone (`integrate`) and as a row of one 6-row batch
         (`integrate_many`): ok, blow-up step, t, the final state and
         samples at t/2 and t;
  grids  40x20 `region_grid`s for each family at three angles, and one
         100x100 epbm5 grid over the criterion-6 split window (k1 <= 4,
         k2 <= 2, rho = pi/12), whose 10000 transfer matrices span more
         than two chunks of the batched spectral radii: |R|.

Jobs are named `run/<case>/<family>` and `grid/<family>/<angle>`; `--only`
keeps the jobs matching any of its fnmatch patterns.

`compare A B` reads two dumps, A the baseline, and reports each record of B
as bitwise (every field equal to A's), within R (the same ok, blow-up step
and times, and each array within R * max|array of A|), or moved; it prints
the records that moved or are missing, each moved record with every field
that moved and, for a run, A's max|y| (a run damped to subnormals reads
near 1e-310), then a summary per job.  It exits 0 when no record moved or
is missing.

The bytes depend on the NumPy build and the CPU, so compare dumps made on
one host.  They also depend on the BLAS thread count (imrk4's stacked stage
products round with it), so the script runs BLAS on one thread: before
NumPy is imported it sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS to 1 unless the environment already sets them.
"""
from __future__ import annotations

import argparse
import fnmatch
import json
import math
import os
import sys

if __name__ == "__main__":      # one BLAS thread, set before NumPy loads it
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

# (builder name, nx, t_end, n_steps) of each run case
CASES = {"zds32-t2": ("build_zds", 32, 2.0, 10),
         "zds32-t40": ("build_zds", 32, 40.0, 200),
         "kdv64-t0.5": ("build_kdv", 64, 0.5, 50),
         "kdv64-t8": ("build_kdv", 64, 8.0, 800),
         "zds128-t1": ("build_zds", 128, 1.0, 25),
         "kdv512-t0.1": ("build_kdv", 512, 0.1, 35)}
ANGLES = {"rho=0": 0.0, "rho=pi/64": math.pi / 64, "rho=pi/32": math.pi / 32}
GRID_SHAPE = (40, 20)
# (k1 range, k2 range, resolution, angle) of the epbm5 window grid
WINDOW = ((0.04, 4.0), (0.0, 2.0), (100, 100), math.pi / 12)
RECORDS = "records.jsonl"


def _modifications(es) -> list:
    return [None,
            es.RepartitionSpec("abs_k3", rho=math.pi / 64),
            es.RepartitionSpec("k2", rho=math.pi / 3),
            es.RepartitionSpec("identity", epsilon=8.0),
            es.RepartitionSpec("abs_k3", epsilon=0.1),
            es.HyperviscositySpec(8, 1e10)]


def jobs(es) -> list:
    """(name, thunk) pairs; each thunk returns a list of (id, fields)."""
    out = []
    for case in CASES:
        for family in es.FAMILIES:
            out.append(("run/%s/%s" % (case, family),
                        lambda c=case, f=family: _run_job(es, c, f)))
    k1_range = (60.0 / GRID_SHAPE[0], 60.0)
    for family in es.FAMILIES:
        k2_range = (0.0, es.make_method(family).k2_band)
        for label, rho in ANGLES.items():
            out.append(("grid/%s/%s" % (family, label),
                        lambda f=family, k2=k2_range, a=rho: _grid_job(
                            es, f, k1_range, k2, GRID_SHAPE, a)))
    out.append(("grid/epbm5/window", lambda: _grid_job(es, "epbm5", *WINDOW)))
    return out


def _floats(a) -> list:
    """An array as 17-digit strings, complex entries as (re, im) pairs."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        a = np.stack([a.real, a.imag], axis=-1)
    return ["%.17g" % x for x in a.ravel().tolist()]


def _run_fields(res) -> dict:
    fields = {"ok": res.ok, "blowup_step": res.blowup_step,
              "t": "%.17g" % res.t, "y": _floats(res.y)}
    for i, sample in enumerate(res.samples):
        t, y = (None, None) if sample is None else sample
        fields["sample%d.t" % i] = None if t is None else "%.17g" % t
        fields["sample%d" % i] = None if y is None else _floats(y)
    return fields


def _run_job(es, case: str, family: str) -> list:
    builder, nx, t_end, n_steps = CASES[case]
    problem, u0 = getattr(es, builder)(nx)
    method = es.make_method(family)
    mods = _modifications(es)
    times = [t_end / 2, t_end]
    records = []
    with np.errstate(all="ignore"):
        for mod in mods:
            res = es.integrate(problem, method, u0, (0.0, t_end), n_steps,
                               modification=mod, sample_times=times)
            records.append(("single/%s" % _name(mod), _run_fields(res)))
        batch = es.integrate_many(problem, method, u0, (0.0, t_end), n_steps,
                                  mods, sample_times=times)
    records += [("batch/%s" % _name(mod), _run_fields(res))
                for mod, res in zip(mods, batch)]
    return records


def _grid_job(es, family: str, k1_range, k2_range, resolution,
              rho: float) -> list:
    from expstab import stability as stab
    grid = stab.region_grid(es.make_method(family), k1_range, k2_range,
                            resolution, stab.RepartitionAngle(rho))
    return [("absR", {"absR": _floats(grid.absR)})]


def _name(mod) -> str:
    return "none" if mod is None else mod.describe()


def dump(out_dir, only=None) -> int:
    """Write the records of the selected jobs; returns the record count."""
    import expstab as es
    os.makedirs(out_dir, exist_ok=True)
    count = 0
    with open(os.path.join(out_dir, RECORDS), "w", newline="\n") as f:
        for name, thunk in jobs(es):
            if only and not any(fnmatch.fnmatchcase(name, p) for p in only):
                continue
            for rid, fields in thunk():
                f.write(json.dumps({"id": "%s/%s" % (name, rid),
                                    "fields": fields}) + "\n")
                count += 1
    return count


def load(path) -> dict:
    if os.path.isdir(path):
        path = os.path.join(path, RECORDS)
    with open(path) as f:
        return {rec["id"]: rec["fields"] for rec in map(json.loads, f)}


def _max_abs(x: np.ndarray) -> float:
    """max |x| over the finite entries of x (0 if there are none)."""
    return float(np.max(np.abs(x[np.isfinite(x)]), initial=0.0))


def _array_gap(new: list, base: list) -> float:
    """max |new - base| over max |base|, NaN-equal entries counting as 0."""
    x = np.array(new, dtype=np.float64)
    y = np.array(base, dtype=np.float64)
    if x.shape != y.shape:
        return math.inf
    same = (x == y) | (np.isnan(x) & np.isnan(y))
    if same.all():
        return 0.0
    scale = _max_abs(y)
    gap = np.max(np.abs(x[~same] - y[~same]))
    with np.errstate(over="ignore"):    # a subnormal scale: the gap is inf
        return gap / scale if scale > 0 else math.inf


def classify(base: dict, new: dict, rtol: float) -> tuple:
    """('bitwise' | 'within' | 'moved', largest relative gap, why), where
    `why` names every field that moved, in key order."""
    if base == new:
        return "bitwise", 0.0, ""
    worst, moved = 0.0, []
    for key in sorted(set(base) | set(new)):
        vb, vn = base.get(key), new.get(key)
        if vb == vn:
            continue
        if isinstance(vb, list) and isinstance(vn, list):
            gap = _array_gap(vn, vb)
            why = "%s differs by %.3g relative" % (key, gap)
        else:
            gap, why = math.inf, "%s: %s -> %s" % (key, vb, vn)
        worst = max(worst, gap)
        if not gap <= rtol:
            moved.append(why)
    return ("moved" if moved else "within"), worst, "; ".join(moved)


def compare(a_path, b_path, rtol: float) -> int:
    """Classify the records of dump B against the baseline dump A."""
    a, b = load(a_path), load(b_path)
    groups: dict = {}
    moved = 0
    for rid in sorted(set(a) | set(b)):
        group = rid.rsplit("/", 2)[0] if rid.startswith("run/") \
            else rid.rsplit("/", 1)[0]
        if rid not in a or rid not in b:
            kind, gap, why = "missing", math.inf, "only in %s" % (
                "A" if rid in a else "B")
        else:
            kind, gap, why = classify(a[rid], b[rid], rtol)
            if kind == "moved" and a[rid].get("ok") is False \
                    and a[rid]["blowup_step"] == b[rid]["blowup_step"]:
                why += " (both blew up at step %d)" % a[rid]["blowup_step"]
            if kind == "moved" and "y" in a[rid]:
                why += "; baseline max|y| %.3g" % _max_abs(
                    np.array(a[rid]["y"], dtype=np.float64))
        if kind in ("moved", "missing"):
            moved += 1
            print("%s %s: %s" % (kind.upper(), rid, why))
        g = groups.setdefault(group, {"bitwise": 0, "within": 0, "moved": 0,
                                      "missing": 0, "gap": 0.0})
        g[kind] += 1
        if kind == "within":
            g["gap"] = max(g["gap"], gap)
    totals = {k: sum(g[k] for g in groups.values())
              for k in ("bitwise", "within", "moved", "missing")}
    for group, g in groups.items():
        print("%-28s bitwise %3d  within %3d (max %.2g)  moved %3d  missing %d"
              % (group, g["bitwise"], g["within"], g["gap"], g["moved"],
                 g["missing"]))
    print("total: %d bitwise, %d within rtol %g, %d moved, %d missing"
          % (totals["bitwise"], totals["within"], rtol, totals["moved"],
             totals["missing"]))
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parity", description=__doc__,
        formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("dump", help="write the records of this expstab")
    p.add_argument("dir")
    p.add_argument("--only", nargs="+", metavar="PATTERN",
                   help="fnmatch patterns of the job names to run")
    p = sub.add_parser("compare",
                       help="classify dump B against the baseline A")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.command == "dump":
        print("%d records" % dump(args.dir, args.only))
        return 0
    return compare(args.a, args.b, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
