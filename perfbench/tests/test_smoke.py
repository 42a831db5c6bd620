"""Smoke test of the benchmark harness at tiny sizes (not part of Tier-1).

    python -m pytest -q perfbench/tests
"""
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from expstab import cli  # noqa: E402
from workloads import KdvLongtime, _shuffled, no_span  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    DECLARED = json.load(f)


def run_bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def names(kind):
    return {m["name"] for m in DECLARED[kind]}


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_bench("--workload", "all", "--size", "tiny", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines()
               if ln.startswith("{")]
    assert len(results) == 3 and results[-1] == last_json(proc)
    for res in results:
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
        assert set(res["metrics"]) == names("end_to_end")
        assert all(m["value"] > 0 for m in res["metrics"].values())
    assert proc.stdout.count("fail_ratio") == 3
    assert proc.stdout.count('"blas_threads": 1') == 3


def test_traced_run_prints_every_per_layer_metric():
    proc = run_bench("--workload", "kdv_longtime", "--size", "tiny",
                     "--seed", "2", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = last_json(proc)
    assert set(res["metrics"]) == names("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["integrators.erk4.n_calls_per_step"] == 4
    assert m["integrators.esdc6.n_calls_per_step"] == 21
    assert m["cli.cache_misses"] == 1 and m["spectral.problem_builds"] == 12


def test_refuses_checkout_without_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "zds_ladder", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def kdv(tmp_path, monkeypatch):
    monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
    w = KdvLongtime("tiny")
    w.setup()
    return w


def study(w, seed, tmp_path):
    out_dir = tmp_path / ("rep-%d" % seed)
    os.environ["EXPSTAB_CACHE_DIR"] = str(out_dir / "cache")
    return w.check(w.study(random.Random(seed), str(out_dir), no_span))


def test_seed_changes_order_but_not_outputs(kdv, tmp_path):
    assert (_shuffled(kdv.runs, random.Random(1))
            != _shuffled(kdv.runs, random.Random(2)))
    a, b = study(kdv, 1, tmp_path), study(kdv, 2, tmp_path)
    assert a.failed == b.failed == 0
    assert a.digest == b.digest and a.max_rel_err == b.max_rel_err


def test_perturbed_reference_fails_the_output_check(kdv, tmp_path,
                                                     monkeypatch):
    real = cli.ensure_reference

    def perturbed(*args, **kwargs):
        return [(t, 1.5 * u) for t, u in real(*args, **kwargs)]

    monkeypatch.setattr(cli, "ensure_reference", perturbed)
    rep = study(kdv, 1, tmp_path)
    assert rep.failed == 9          # every repartitioned run
    assert all("err=" in f for f in rep.failures)


def test_refuses_the_user_cache(monkeypatch, tmp_path):
    monkeypatch.delenv("EXPSTAB_CACHE_DIR", raising=False)
    with pytest.raises(SystemExit):
        worker.check_cache_dir(str(tmp_path))
