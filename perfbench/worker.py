"""One workload process: set-up, then timed studies until the time budget is
spent.  Started by run.py with BLAS threads = 1 and the package on
PYTHONPATH; prints one JSON object as its last stdout line.

    python3 perfbench/worker.py --workload zds_ladder --workdir DIR \
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny] [--setup-only]
"""
import argparse
import ctypes
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from expstab import cli  # noqa: E402
from speed import Sampler, probe  # noqa: E402
from workloads import WORKLOADS, no_span  # noqa: E402


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps") as f:
        libs = sorted({ln.split()[-1] for ln in f if "openblas" in ln.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads()}


def check_cache_dir(workdir: str) -> None:
    """Refuse to run unless the reference cache is inside the work dir."""
    cache = os.path.realpath(cli.cache_dir())
    user = os.path.realpath(os.path.join(os.path.expanduser("~"), ".cache",
                                         "expstab"))
    if cache == user or not cache.startswith(os.path.realpath(workdir) + os.sep):
        raise SystemExit("refusing cache dir %s: it must be a fresh dir "
                         "under %s, never %s" % (cache, workdir, user))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # set-up: the imports above, building problems and methods, and an
    # empty cache dir
    workload = WORKLOADS[args.workload](args.size)
    workload.setup()
    os.makedirs(args.workdir, exist_ok=True)
    setup_cache = os.path.join(args.workdir, "cache-%d" % os.getpid())
    os.makedirs(setup_cache)
    setup_end = time.perf_counter()
    os.rmdir(setup_cache)
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end,
                          "probes": [probe() for _ in range(5)]}))
        return 0

    env = environment()
    if env["blas_threads"] not in (None, 1):
        raise SystemExit("BLAS runs %s threads; the workloads need 1"
                         % env["blas_threads"])
    if args.trace:
        from tracer import Tracer, median_metrics

    rng = random.Random(args.seed)
    untraced, walls, traced, layers, reports = [], [], [], [], []
    start = time.perf_counter()
    rep_walls = []
    while True:
        rep_start = time.perf_counter()
        rep_dir = os.path.join(args.workdir, "rep-%d" % len(reports))
        os.environ["EXPSTAB_CACHE_DIR"] = os.path.join(rep_dir, "cache")
        os.makedirs(os.environ["EXPSTAB_CACHE_DIR"])
        check_cache_dir(args.workdir)
        tracing = args.trace and len(reports) % 2 == 1
        tracer = None
        if tracing:
            tracer = Tracer()
            tracer.install()
            root = tracer.open("study")
        try:
            with Sampler() as timed:
                out = workload.study(rng, rep_dir,
                                     tracer.part if tracer else no_span)
        finally:
            if tracer:
                tracer.close(root)
                tracer.uninstall()
        report = workload.check(out)
        shutil.rmtree(rep_dir)
        reports.append(report)
        if tracing:
            traced.append(timed.scaled)
            layers.append(tracer.metrics())
            trace_path = os.path.join(args.workdir, "..",
                                      "trace-%s.json" % args.workload)
            with open(trace_path, "w") as f:
                json.dump([s.record() for s in tracer.spans], f)
        else:
            untraced.append(timed.scaled)
            walls.append(timed.wall)
        rep_walls.append(time.perf_counter() - rep_start)
        elapsed = time.perf_counter() - start
        need_more = args.trace and not traced
        if not need_more and elapsed + max(rep_walls) > args.seconds:
            break

    result = {
        "study_s": untraced,
        "study_wall_s": walls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": env,
        "reports": [{"attempted": r.attempted, "failures": r.failures,
                     "max_rel_err": r.max_rel_err, "groups": r.groups,
                     "digest": r.digest}
                    for r in reports],
    }
    if args.trace:
        per_layer = median_metrics(layers)
        per_layer["trace.overhead_s"] = (statistics.median(traced)
                                         - statistics.median(untraced))
        result["per_layer"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
