"""Smoke test of tools/parity.py: a slice of its matrix dumped twice
compares equal record for record, a changed value is reported, and the
script's dumps do not depend on the BLAS thread count."""
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
TOOL = os.path.join(os.path.dirname(HERE), "tools", "parity.py")
SLICE = ["run/zds32-t2/erk4", "run/kdv64-t0.5/imrk4", "grid/epbm5/rho=0"]


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dump_twice_compares_equal(parity, tmp_path, capsys):
    for name in ("a", "b"):
        argv = ["dump", str(tmp_path / name), "--only"] + SLICE
        assert parity.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == ["25 records"] * 2
    assert parity.main(["compare", str(tmp_path / "a"),
                        str(tmp_path / "b")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "total: 25 bitwise, 0 within rtol 0, 0 moved, 0 missing"

    # one perturbed entry: within a loose rtol, moved under a tight one
    path = tmp_path / "b" / parity.RECORDS
    records = [json.loads(line) for line in path.read_text().splitlines()]
    y = records[0]["fields"]["y"]
    scale = max(abs(float(v)) for v in y)
    y[0] = "%.17g" % (float(y[0]) * (1 + 1e-12))
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert parity.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                        "--rtol", "1e-9"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "total: 24 bitwise, 1 within rtol 1e-09, 0 moved")
    assert parity.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                        "--rtol", "1e-15"]) == 1
    moved = capsys.readouterr().out.splitlines()[0]
    assert moved.startswith("MOVED %s: y differs by" % records[0]["id"])
    # a moved run also names the scale of the baseline's final state
    assert moved.endswith("; baseline max|y| %.3g" % scale)

    # a moved grid record has no y, and no scale
    records[-1]["fields"]["absR"][0] = "2"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert parity.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                        "--rtol", "1e-9"]) == 1
    moved = capsys.readouterr().out.splitlines()[0]
    assert moved.startswith("MOVED %s: absR differs by" % records[-1]["id"])
    assert "max|y|" not in moved

    # a record with several moved fields names each of them, in key order
    fields = records[0]["fields"]
    t_base = fields["t"]
    fields["t"] = fields["sample1.t"] = "1"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert parity.main(["compare", str(tmp_path / "a"), str(tmp_path / "b"),
                        "--rtol", "1e-15"]) == 1
    moved = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("MOVED %s:" % records[0]["id"])]
    assert len(moved) == 1
    assert moved[0].startswith("MOVED %s: sample1.t: %s -> 1; t: %s -> 1; "
                               "y differs by " % (records[0]["id"], t_base,
                                                  t_base))
    assert moved[0].endswith(" relative; baseline max|y| %.3g" % scale)


def test_gap_over_a_subnormal_baseline_is_inf_without_a_warning(parity):
    # a run damped to subnormals: 1.0 against 1e-310 overflows the
    # relative gap, which reads inf (moved) and warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parity._array_gap(["1.0"], ["1e-310"]) == math.inf
        assert parity.classify({"y": ["1e-310"]}, {"y": ["1.0"]},
                               1e-14)[0] == "moved"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_script_runs_blas_on_one_thread(parity, tmp_path):
    """A dump made with the BLAS thread variables unset equals one made
    with them set to 1: imrk4's batched KdV-512 stage products round with
    the thread count, so on a multi-core host they differ unless the script
    pins one thread itself."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    base["PYTHONPATH"] = os.path.join(os.path.dirname(HERE), "src")
    pinned = dict(base, **{k: "1" for k in BLAS_THREADS})
    for name, env in (("unset", base), ("pinned", pinned)):
        subprocess.run([sys.executable, TOOL, "dump", str(tmp_path / name),
                        "--only", "run/kdv512-t0.1/imrk4"], env=env,
                       check=True, capture_output=True)
    assert parity.compare(str(tmp_path / "pinned"),
                          str(tmp_path / "unset"), 0.0) == 0
