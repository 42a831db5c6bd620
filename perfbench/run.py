"""expstab benchmark: times one paper workload end to end (or, with
--trace 1, layer by layer) and checks its outputs.

    python3 perfbench/run.py --workload zds_ladder --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is taken from its `src/`.
Each workload runs in its own single-threaded process (worker.py) with a
fresh reference cache under `.perfbench_work/`.  Set-up time is measured in
separate set-up-only processes and reported as their median.  Both times are
scaled to a reference host speed (speed.py).  Human-readable
lines come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 0 only if every output
check passed.  `--workload all` runs the three workloads one after another.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from speed import scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("zds_ladder", "kdv_longtime", "stability_maps")
SETUP_SAMPLES = 7
TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("EXPSTAB_CACHE_DIR", None)
    return env


def run_worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and parse its last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError("worker %s exited with %d" % (args, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_record() -> dict:
    """git sha when the checkout is a repository, and a digest of src/."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "expstab")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 size: str) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d" % (name, os.getpid()))
    common = ["--workload", name, "--workdir", workdir, "--size", size]
    try:
        setup = []
        if not trace:
            # one untimed set-up first, so bytecode compilation is not timed
            run_worker(common + ["--setup-only"], deadline)
            for _ in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                out = run_worker(common + ["--setup-only"], deadline)
                setup.append(scale(out["setup_end"] - t0, out["probes"]))
        out = run_worker(common + ["--seed", str(seed), "--seconds",
                                   str(seconds), "--trace", str(trace)],
                         deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reports = out["reports"]
    failures = [f for r in reports for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reports)
    digests = sorted({r["digest"] for r in reports})
    if len(digests) > 1:
        failures.append("study outputs differ between repetitions")
    if trace:
        metrics = out["per_layer"]
    else:
        metrics = {"study_s": statistics.median(out["study_s"]),
                   "setup_s": statistics.median(setup),
                   "max_rel_err": max(r["max_rel_err"] for r in reports),
                   "peak_rss_mb": out["peak_rss_mb"]}
    return {"workload": name, "seed": seed, "trace": trace,
            "correct": not failures, "attempted": attempted,
            "failed": len(failures), "failures": failures,
            "repetitions": len(reports), "study_s_all": out["study_s"],
            "study_wall_s": out["study_wall_s"],
            "setup_s_all": setup, "digest": digests, "env": out["env"],
            "errors": reports[0]["groups"],
            "metrics": metrics}


def print_result(res: dict, units: dict) -> None:
    print("== %s (seed %d, trace %d, %d repetitions)"
          % (res["workload"], res["seed"], res["trace"], res["repetitions"]))
    for key, value in res["metrics"].items():
        print("%-40s %.6g %s" % (key, value, units[key]))
    print("%-40s %.6g 1  (%d of %d operations)"
          % ("fail_ratio", res["failed"] / res["attempted"], res["failed"],
             res["attempted"]))
    for f in res["failures"]:
        print("FAILED CHECK: %s" % f)
    print("# study_s per repetition: %s" % res["study_s_all"])
    print("# unscaled study wall time per repetition: %s" % res["study_wall_s"])
    if res["setup_s_all"]:
        print("# setup_s per sample: %s" % res["setup_s_all"])
    print("# largest relative error per run group%s:"
          % (" (|R| vs 1 on the k2=0 column)"
             if res["workload"] == "stability_maps" else ""))
    for group, err in res["errors"].items():
        print("#   %-34s %.4g" % (group, err))
    print("# output digest: %s" % ", ".join(res["digest"]))
    print("# env: %s" % json.dumps(res["env"], sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in res["metrics"].items()}}),
          flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs a reduced study (harness smoke test)")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "expstab", "__init__.py")):
        print("error: no expstab package under %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    source = source_record()
    ok = True
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace, args.size)
        res["env"].update(source)
        if set(res["metrics"]) != set(units):
            raise RuntimeError("measured metrics %s differ from BENCHMARK.json"
                               % sorted(set(res["metrics"]) ^ set(units)))
        print_result(res, units)
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
