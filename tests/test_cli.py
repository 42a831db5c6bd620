"""Tests for the experiment harness: parsing, the reference cache, the run
drivers, CSV outputs, and exit codes."""
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import expstab.cli as cli
from expstab import HyperviscositySpec, RepartitionSpec, read_spectrum
from expstab.cli import (
    ConfigError,
    ReferenceFailure,
    ensure_reference,
    main,
    relative_error,
    run_convergence,
    run_longtime,
    run_solve,
    run_stability_maps,
)

BLOWUP_ARGS = ("zds", 32, "rk4", 40, 40.0)   # h = 1 on |L| up to 64: diverges


# --- parsing --------------------------------------------------------------------

class TestModificationFlags:
    """The grammar itself is tested with spectral.parse_modification; these
    are the flags' own rules, with errors raised as ConfigError."""

    @staticmethod
    def build(repartition=None, hyperviscosity=None, cfg=None):
        import argparse
        args = argparse.Namespace(repartition=repartition,
                                  hyperviscosity=hyperviscosity)
        return cli._build_modification(args, cfg or {})

    def test_forms(self):
        assert self.build() is None
        assert self.build("abs_k3:rho=pi/64") == RepartitionSpec(
            "abs_k3", rho=math.pi / 64)
        assert self.build("identity:16").epsilon == 16.0
        # --hyperviscosity takes m:gamma without the kind prefix
        assert self.build(hyperviscosity="m=8:gamma=1e10") \
            == HyperviscositySpec(8, 1e10)
        assert self.build(hyperviscosity="4:1e6") == HyperviscositySpec(4, 1e6)
        assert self.build(cfg={"hyperviscosity": "6:1"}) \
            == HyperviscositySpec(6, 1.0)

    @pytest.mark.parametrize("rep, hyper", [
        ("abs_k3", None), ("bogus:rho=0.1", None), ("k2:two", None),
        ("hyperviscosity:8:1e10", None), ("none", None),
        (None, "8"), (None, "5:1.0"),
        ("identity:1", "8:1e10"),
        ("identity:rho=0.3", None),     # identity takes eps only
    ])
    def test_rejects(self, rep, hyper):
        with pytest.raises(ConfigError):
            self.build(rep, hyper)

    def test_bad_angle_exit_code(self, tmp_path):
        rc = main(["stability", "--methods", "erk4", "--rho", "pi*2",
                   "--out", str(tmp_path)])
        assert rc == 2


class TestConfig:
    def test_load(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# comment\nproblem = zds\nsteps=500,1000  # inline\n\n"
                     "out = a=b.csv\n")
        cfg = cli._load_config(p)
        assert cfg == {"problem": "zds", "steps": "500,1000", "out": "a=b.csv"}

    def test_rejects_malformed(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("just a line\n")
        with pytest.raises(ConfigError):
            cli._load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli._load_config(tmp_path / "absent.cfg")

    def test_get_precedence(self):
        import argparse
        args = argparse.Namespace(nx="64")
        assert cli._get(args, {"nx": "32"}, "nx", 128, int) == 64
        args = argparse.Namespace(nx=None)
        assert cli._get(args, {"nx": "32"}, "nx", 128, int) == 32
        assert cli._get(args, {}, "nx", 128, int) == 128
        with pytest.raises(ConfigError):
            cli._get(args, {"nx": "lots"}, "nx", 128, int)


def test_relative_error():
    y_ref = np.array([3.0 + 4j, 0.0])
    y = np.array([3.0 + 4j, 1.0])
    assert relative_error(y, y_ref) == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(ValueError):
        relative_error(y, np.zeros(2))


# --- reference cache ------------------------------------------------------------

class TestEnsureReference:
    def test_build_and_reuse(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        got = ensure_reference("zds", 32, "rk4", 500, 1.0, [0.5, 1.0])
        assert [t for t, _ in got] == pytest.approx([0.5, 1.0], abs=1e-12)
        entries = os.listdir(tmp_path / "cache")
        assert len(entries) == 1
        assert entries[0].startswith("zds-nx32-rk4-n500-")

        # second call must be served from disk: forbid any new runs
        monkeypatch.setattr(cli, "_run_single",
                            lambda task: pytest.fail("cache miss"))
        again = ensure_reference("zds", 32, "rk4", 500, 1.0, [0.5, 1.0])
        for (a, b) in zip(got, again):
            assert a[0] == b[0]
            assert np.array_equal(a[1], b[1])

    def test_corrupt_meta_detected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])
        entry = os.path.join(tmp_path / "cache",
                             os.listdir(tmp_path / "cache")[0])
        with open(os.path.join(entry, "meta.txt"), "w") as f:
            f.write("tampered\n")
        with pytest.raises(ReferenceFailure):
            ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])

    def test_blowup_raises_and_leaves_no_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(ReferenceFailure):
            ensure_reference(*BLOWUP_ARGS, [40.0])
        assert not os.path.isdir(tmp_path / "cache") \
            or os.listdir(tmp_path / "cache") == []

    def test_publish_is_atomic(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(cache))
        replace = os.replace

        def boom(src, dst):
            raise OSError("simulated rename failure")

        with monkeypatch.context() as m:
            m.setattr(os, "replace", boom)
            with pytest.raises(OSError):
                ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])
        # neither a half-published entry nor the temp dir is left behind
        assert os.listdir(cache) == []
        got = ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])
        assert len(got) == 1 and np.isfinite(got[0][1]).all()

        def lose_race(src, dst):
            shutil.copytree(src, dst)       # another build published first
            replace(src, dst)               # fails: dst is not empty

        with monkeypatch.context() as m:
            m.setattr(os, "replace", lose_race)
            again = ensure_reference("zds", 32, "rk4", 500, 2.0, [2.0])
        assert len(again) == 1 and np.isfinite(again[0][1]).all()
        assert not [e for e in os.listdir(cache) if ".tmp." in e]
        assert len(os.listdir(cache)) == 2

    @pytest.mark.parametrize("damage", ["mid-header", "mid-row", "missing"])
    def test_unreadable_snapshot_exit_code(self, tmp_path, monkeypatch,
                                           capsys, damage):
        # a damaged cache entry is a reference failure naming the entry,
        # not a usage error
        cache = tmp_path / "cache"
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(cache))
        argv = ["reference", "--nx", "32", "--steps", "500", "--t-end", "1.0"]
        assert main(argv) == 0
        entry = os.path.join(cache, os.listdir(cache)[0])
        snap = os.path.join(entry, "snap-0000.txt")
        with open(snap) as f:
            text = f.read()
        if damage == "missing":
            os.remove(snap)
        else:
            with open(snap, "w") as f:
                f.write(text[:30] if damage == "mid-header" else text[:500])
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("reference failure:")
        assert entry in err[0]

    def test_removes_temp_dirs_of_dead_builds(self, tmp_path, monkeypatch):
        # a build killed by a signal leaves <entry>.tmp.<pid>; the next call
        # for the entry removes it once that pid is gone, and keeps the temp
        # dir of a live process
        cache = tmp_path / "cache"
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(cache))
        ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])
        entry = os.path.join(cache, os.listdir(cache)[0])
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        dead = "%s.tmp.%d" % (entry, child.pid)
        live = "%s.tmp.%d" % (entry, os.getpid())
        other = entry + ".tmp.notapid"
        for d in (dead, live, other):
            os.makedirs(d)
        got = ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])
        assert len(got) == 1
        assert not os.path.exists(dead)
        assert os.path.isdir(live) and os.path.isdir(other)


# --- run drivers ----------------------------------------------------------------

class TestRunConvergence:
    def test_small_study(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        csv = tmp_path / "conv.csv"
        records = run_convergence(problem="zds", nx=32, t_end=1.0,
                                  methods=["erk4", "rk4"], steps=[50, 100],
                                  ref_method="rk4", ref_steps=1000,
                                  workers=1, out_csv=csv)
        assert len(records) == 4
        assert all(r.status == "ok" for r in records)
        for m in ("erk4", "rk4"):
            errs = [r.relative_error for r in records if r.method == m]
            assert errs[0] > errs[1] > 0
        # observed order lives on the finer row only
        assert math.isnan(records[0].observed_order)
        assert records[1].observed_order > 2.0
        lines = csv.read_text().splitlines()
        assert lines[0] == ("method,modification,n_steps,h,relative_error,"
                            "observed_order,wall_time_seconds,status")
        assert len(lines) == 5
        assert lines[1].startswith("erk4,none,50,0.02,")

    def test_deterministic_and_pool_equivalent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        kw = dict(problem="zds", nx=32, t_end=1.0, methods=["erk4"],
                  steps=[50, 100], ref_method="rk4", ref_steps=1000)
        a = run_convergence(workers=1, **kw)
        b = run_convergence(workers=2, **kw)

        def key(recs):
            return [(r.method, r.modification, r.n_steps, r.h,
                     r.relative_error,
                     None if math.isnan(r.observed_order) else r.observed_order,
                     r.status) for r in recs]

        assert key(a) == key(b)

    def test_blowup_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        records = run_convergence(problem="zds", nx=32, t_end=40.0,
                                  methods=["rk4"], steps=[40, 80],
                                  ref_method="rk4", ref_steps=20000, workers=1)
        assert records[0].status == "blowup"
        assert math.isnan(records[0].relative_error)

    def test_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(ConfigError):
            run_convergence(steps=[100, 50])
        with pytest.raises(ConfigError):
            run_convergence(steps=[0, 50])
        with pytest.raises(ConfigError):
            run_convergence(methods=["rk5"], steps=[50, 100])
        with pytest.raises(ConfigError):
            run_convergence(problem="zds", nx=32, t_end=1.0, methods=["erk4"],
                            steps=[50, 100], ref_method="rk4", ref_steps=500)


class TestRunLongtime:
    def test_series(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        csv = tmp_path / "lt.csv"
        series = run_longtime(problem="kdv", nx=64, t_end=0.5, n_steps=200,
                              runs=[("erk4", None),
                                    ("erk4", RepartitionSpec("identity",
                                                             epsilon=1.0))],
                              n_samples=5, ref_method="imrk4", ref_steps=2000,
                              workers=1, out_csv=csv)
        assert set(series) == {("erk4", "none"), ("erk4", "identity:eps=1")}
        for rows in series.values():
            assert [t for t, _, _ in rows] == pytest.approx(
                [0.1, 0.2, 0.3, 0.4, 0.5], abs=1e-12)
            assert all(status == "ok" for _, _, status in rows)
            assert all(err < 1e-5 for _, err, _ in rows)
        lines = csv.read_text().splitlines()
        assert lines[0] == "method,modification,t,relative_error,status"
        assert len(lines) == 11

    def test_samples_align_with_reference(self, tmp_path, monkeypatch):
        # 70 steps do not split into 3 even samples: each sample must snap
        # to a step time that the 700-step reference also hits, or the
        # errors show a sawtooth of ~3e-3 from comparing different times
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        series = run_longtime(problem="kdv", nx=64, t_end=0.5, n_steps=70,
                              runs=[("erk4", None)], n_samples=3,
                              ref_method="imrk4", ref_steps=700, workers=1)
        rows = series[("erk4", "none")]
        assert [t for t, _, _ in rows] == pytest.approx(
            [0.5 * 23 / 70, 0.5 * 47 / 70, 0.5], abs=1e-12)
        assert all(status == "ok" for _, _, status in rows)
        assert all(err < 2e-6 for _, err, _ in rows)

    def test_blowup_trailing_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        series = run_longtime(problem="zds", nx=32, t_end=40.0, n_steps=40,
                              runs=[("rk4", None)], n_samples=4,
                              ref_method="rk4", ref_steps=4000, workers=1)
        rows = series[("rk4", "none")]
        assert rows[-1][2] == "blowup"

    @pytest.mark.parametrize("workers", [1, 3])
    def test_groups_match_single_runs(self, workers):
        # runs that share a method step as one batch, in any task order;
        # three workers split the erk4 group so the pool gets three batches
        tasks = [("kdv", 64, "erk4", 50, 0.5, None, [0.25, 0.5]),
                 ("kdv", 64, "esdc6", 50, 0.5, None, [0.25, 0.5]),
                 ("kdv", 64, "erk4", 50, 0.5,
                  RepartitionSpec("k2", rho=math.pi / 3), [0.25, 0.5]),
                 ("kdv", 64, "erk4", 50, 0.5, HyperviscositySpec(8, 1e10),
                  [0.25, 0.5])]
        for got, task in zip(cli._run_many(tasks, workers), tasks):
            want = cli._run_single(task)
            assert (got["ok"], got["t"], got["h"]) == (want["ok"], want["t"],
                                                      want["h"])
            assert np.allclose(got["y"], want["y"], rtol=1e-14, atol=0)
            for (tg, yg), (tw, yw) in zip(got["samples"], want["samples"]):
                assert tg == tw and np.allclose(yg, yw, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("workers, sizes", [
        (1, [4, 4, 3]), (2, [4, 4, 3]), (4, [4, 3, 2, 2]),
        (8, [2, 2, 2, 1, 1, 1, 1, 1]), (20, [1] * 11)])
    def test_partition_gives_every_worker_a_batch(self, workers, sizes):
        # the paper's 11 long-time runs: erk4, esdc6 and epbm5 groups
        runs = ["erk4"] * 4 + ["esdc6"] * 3 + ["epbm5"] * 4
        tasks = [("kdv", 64, fam, 50, 0.5, RepartitionSpec("identity",
                                                             epsilon=i), None)
                 for i, fam in enumerate(runs)]
        parts = cli._partition(tasks, workers)
        assert sorted(i for p in parts for i in p) == list(range(11))
        assert all(len({runs[i] for i in p}) == 1 for p in parts)
        assert sorted(map(len, parts), reverse=True) == sizes
        assert cli._partition([], workers) == []

    def test_rejects_duplicate_runs(self, tmp_path, monkeypatch):
        # the series is keyed by (method, describe()): a second identical
        # run would overwrite the first
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        with pytest.raises(ConfigError, match="duplicate run"):
            run_longtime(problem="kdv", nx=64, t_end=0.5, n_steps=200,
                         runs=[("erk4", RepartitionSpec("k2", rho=0.5)),
                               ("erk4", RepartitionSpec("k2", rho=0.5))],
                         ref_steps=2000)
        rc = main(["longtime", "--problem", "kdv", "--nx", "64",
                   "--t-end", "0.5", "--steps", "200", "--ref-steps", "2000",
                   "--runs", "erk4;epbm5;erk4:none",
                   "--out", str(tmp_path / "lt.csv")])
        assert rc == 2
        assert not os.listdir(tmp_path)     # failed before any reference

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_longtime(runs=[("nope", None)])
        with pytest.raises(ConfigError):
            run_longtime(problem="kdv", nx=64, runs=[("erk4", None)],
                         n_steps=200, ref_steps=500)
        with pytest.raises(ConfigError):    # not a multiple of the steps
            run_longtime(problem="kdv", nx=64, runs=[("erk4", None)],
                         n_steps=200, ref_steps=2100)
        for counts in (dict(n_steps=0), dict(n_samples=0)):
            with pytest.raises(ConfigError):
                run_longtime(problem="kdv", nx=64, runs=[("erk4", None)],
                             ref_steps=2000, **counts)


def test_run_stability_maps(tmp_path):
    paths = run_stability_maps(["erk4"], [0.0, math.pi / 2048],
                               tmp_path / "maps", resolution=(5, 4))
    assert [os.path.basename(p) for p in paths] == [
        "stability-erk4-rho0.csv",
        "stability-erk4-rho%.10g.csv" % (math.pi / 2048)]
    for p in paths:
        lines = open(p).read().splitlines()
        assert lines[0] == "k1,k2,absR,class"
        assert len(lines) == 1 + 5 * 4
    # default k2 band for erk4 is 12
    last = lines[-1].split(",")
    assert float(last[0]) == 60.0 and float(last[1]) == 12.0


@pytest.mark.parametrize("bad", [dict(resolution=(0, 5)),
                                 dict(resolution=(5, 0)),
                                 dict(methods=["rk5"]),
                                 dict(rhos=[0.0, 2.0]),
                                 dict(k2_max=float("inf"))],
                         ids=["n1=0", "n2=0", "method", "rho", "k2_max"])
def test_run_stability_maps_rejects_before_output(tmp_path, bad):
    kwargs = dict(methods=["erk4"], rhos=[0.0], out_dir=tmp_path / "maps",
                  resolution=(5, 4))
    with pytest.raises(ValueError):
        run_stability_maps(**{**kwargs, **bad})
    assert not (tmp_path / "maps").exists()


class TestRunSolve:
    def test_snapshot(self, tmp_path):
        out = tmp_path / "sol.txt"
        res = run_solve("zds", 32, "erk4", 100, 1.0, out_path=out)
        assert res["ok"]
        meta, u = read_spectrum(out)
        assert meta["problem"] == "zds"
        assert meta["t"] == pytest.approx(1.0, abs=1e-12)
        assert "status" not in meta
        assert np.isfinite(u).all()

    def test_blowup_flag(self, tmp_path):
        out = tmp_path / "sol.txt"
        res = run_solve(*BLOWUP_ARGS, out_path=out)
        assert not res["ok"]
        meta, u = read_spectrum(out)
        assert meta["status"] == "blowup"
        assert np.isfinite(u).all()


# --- entry point and exit codes ---------------------------------------------------

class TestMain:
    def test_solve_ok(self, tmp_path):
        out = tmp_path / "sol.txt"
        rc = main(["solve", "--problem", "zds", "--nx", "32", "--method",
                   "erk4", "--steps", "100", "--t-end", "1.0",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_solve_blowup_exit_code(self, tmp_path):
        rc = main(["solve", "--problem", "zds", "--nx", "32", "--method",
                   "rk4", "--steps", "40", "--t-end", "40.0",
                   "--out", str(tmp_path / "sol.txt")])
        assert rc == 4

    def test_config_error_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["converge", "--problem", "zds", "--nx", "32",
                   "--t-end", "1.0", "--methods", "erk4",
                   "--steps", "100,50", "--out", str(tmp_path / "c.csv")])
        assert rc == 2

    def test_reference_failure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["reference", "--problem", "zds", "--nx", "32",
                   "--method", "rk4", "--steps", "40", "--t-end", "40.0"])
        assert rc == 3

    def test_bad_sample_times_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["reference", "--problem", "zds", "--nx", "32",
                   "--samples", "0.5,soon"])
        assert rc == 2

    def test_stability_command(self, tmp_path):
        out = tmp_path / "maps"
        rc = main(["stability", "--methods", "erk4", "--rho", "0",
                   "--resolution", "4x3", "--out", str(out)])
        assert rc == 0
        assert (out / "stability-erk4-rho0.csv").exists()

    def test_config_file_with_cli_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        cfg = tmp_path / "run.cfg"
        csv = tmp_path / "conv.csv"
        cfg.write_text("problem = zds\nnx = 32\nt_end = 1.0\n"
                       "methods = erk4\nsteps = 50,100\n"
                       "ref_method = rk4\nref_steps = 1000\nworkers = 1\n"
                       "out = %s\n" % csv)
        rc = main(["--config", str(cfg), "converge", "--steps", "40,80"])
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert [line.split(",")[2] for line in lines[1:]] == ["40", "80"]

    def test_resolution_parse_error(self, tmp_path):
        rc = main(["stability", "--methods", "erk4", "--rho", "0",
                   "--resolution", "600by200", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--k2-max", "inf"],
                                       ["--k2-max", "nan"],
                                       ["--resolution", "0x5"]])
    def test_rejected_grid_exit_code(self, tmp_path, flags):
        rc = main(["stability", "--methods", "erk4", "--rho", "0",
                   "--out", str(tmp_path)] + flags)
        assert rc == 2
        assert os.listdir(tmp_path) == []

    # each value passes the same checks as a flag and as a config line
    BAD_VALUES = [
        ("solve", "nx", "100"), ("solve", "nx", "abc"),
        ("solve", "nx", "lots"), ("solve", "steps", "0"),
        ("solve", "t_end", "-1"), ("solve", "repartition", "identity:rho=0.3"),
        ("stability", "resolution", "0x5"), ("longtime", "n_samples", "0"),
    ]
    BASE = {"solve": {"nx": "32", "steps": "10", "t_end": "0.1"},
            "stability": {"methods": "erk4"},
            "longtime": {"nx": "32", "t_end": "0.5", "steps": "10",
                         "ref_steps": "100"}}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", BAD_VALUES)
    def test_bad_value_exit_code(self, tmp_path, monkeypatch, capsys,
                                 source, command, key, value):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "out"
        flags = {**self.BASE[command], "out": str(out)}
        flags.pop(key, None)
        argv = [command]
        for k, v in flags.items():
            argv += ["--" + k.replace("_", "-"), v]
        if source == "flag":
            argv += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("%s = %s\n" % (key, value))
            argv = ["--config", str(cfg)] + argv
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not out.exists()
        assert not (tmp_path / "cache").exists()

    def test_console_bad_value_exit_code(self, tmp_path):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "expstab", "solve", "--nx", "100",
             "--out", str(tmp_path / "sol.txt")],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "config error: Nx must be a power of two >= 32"]

    def test_unknown_method_in_stability(self, tmp_path):
        rc = main(["stability", "--methods", "rk5", "--rho", "0",
                   "--out", str(tmp_path)])
        assert rc == 2


def test_k2_bands_cover_all_families():
    from expstab.integrators import FAMILIES
    assert set(cli.K2_BANDS) == set(FAMILIES)
