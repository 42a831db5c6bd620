"""Tests for the experiment harness: parsing, the reference cache, the run
drivers, CSV outputs, and exit codes."""
import importlib.util
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import expstab as es
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
    """converge and solve take one flag, --modification, with the text that
    describe() prints (the grammar itself is tested with
    spectral.parse_modification); a bad one is a config error."""

    @staticmethod
    def dispatch(monkeypatch, capsys, argv):
        """main's exit code and the modification it hands run_solve."""
        given = {}

        def record(**options):
            given.update(options)
            return {"ok": True}
        monkeypatch.setattr(cli, "run_solve", record)
        rc = main(argv)
        if rc:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error: ")
        return rc, given.get("modification")

    @pytest.mark.parametrize("command", ["converge", "solve"])
    def test_help_lists_one_flag(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert "--modification" in out
        assert "--repartition" not in out and "--hyperviscosity" not in out

    def test_forms(self, tmp_path, monkeypatch, capsys):
        assert self.dispatch(monkeypatch, capsys, ["solve"]) == (0, None)
        for text, spec in [
                ("none", None),
                ("abs_k3:rho=pi/64", RepartitionSpec("abs_k3",
                                                     rho=math.pi / 64)),
                ("identity:eps=16", RepartitionSpec("identity", epsilon=16.0)),
                ("hyperviscosity:m=8:gamma=1e10", HyperviscositySpec(8, 1e10))]:
            assert self.dispatch(monkeypatch, capsys, [
                "solve", "--modification", text]) == (0, spec)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modification = hyperviscosity:m=6:gamma=1\n")
        assert self.dispatch(monkeypatch, capsys, [
            "--config", str(cfg), "solve"]) == (0, HyperviscositySpec(6, 1.0))

    @pytest.mark.parametrize("flag, config", [
        ("abs_k3", None), ("bogus:rho=0.1", None), ("k2:two", None),
        ("hyperviscosity:8:1e10", None), ("identity:16", None), ("", None),
        (None, "8"), (None, "5:1.0"), (None, "m=8:gamma=1e10"),
        (None, "hyperviscosity:m=5:gamma=1"),
        ("identity:rho=0.3", None),     # identity takes eps only
    ])
    def test_rejects(self, tmp_path, monkeypatch, capsys, flag, config):
        # the text as a --modification flag, or as a config line
        argv = ["solve"]
        if flag is not None:
            argv += ["--modification", flag]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("modification = %s\n" % config)
            argv = ["--config", str(cfg)] + argv
        assert self.dispatch(monkeypatch, capsys, argv) == (2, None)

    @pytest.mark.parametrize("key", ["repartition", "hyperviscosity"])
    def test_old_config_keys_name_no_option(self, tmp_path, monkeypatch,
                                             capsys, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s = abs_k3:rho=pi/64\n" % key)
        monkeypatch.setattr(cli, "run_solve", lambda **_: pytest.fail("ran"))
        assert main(["--config", str(cfg), "solve"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: config key %r names no option" % key]

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

    def test_key_names_numpy_version(self, tmp_path, monkeypatch):
        # N runs NumPy's own pocketfft, so another NumPy builds its own entry
        cache = tmp_path / "cache"
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(cache))
        for version in ("2.0.0", "2.9.1"):
            monkeypatch.setattr(np, "__version__", version)
            ensure_reference("zds", 32, "rk4", 500, 1.0, [1.0])
        entries = sorted(os.listdir(cache))
        assert len(entries) == 2
        metas = [(cache / e / "meta.txt").read_text() for e in entries]
        assert sorted(m.split()[-1] for m in metas) == ["numpy=2.0.0",
                                                        "numpy=2.9.1"]

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
        with pytest.raises(ConfigError, match="at least one method"):
            run_convergence(methods=[], steps=[50, 100])
        with pytest.raises(ConfigError, match="duplicate method: erk4"):
            run_convergence(problem="zds", nx=32, t_end=1.0,
                            methods=["erk4", "rk4", "erk4"], steps=[10, 20],
                            ref_steps=400)
        with pytest.raises(ConfigError):
            run_convergence(problem="zds", nx=32, t_end=1.0, methods=["erk4"],
                            steps=[50, 100], ref_method="rk4", ref_steps=500)
        for workers in (0, -3):
            with pytest.raises(ConfigError, match="workers"):
                run_convergence(problem="zds", nx=32, t_end=1.0,
                                methods=["erk4"], steps=[10, 20],
                                ref_steps=400, workers=workers)
        assert not (tmp_path / "cache").exists()


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
        for counts in (dict(n_steps=0), dict(n_samples=0),
                       dict(n_steps=10, n_samples=11)):
            with pytest.raises(ConfigError):
                run_longtime(problem="kdv", nx=64, runs=[("erk4", None)],
                             ref_steps=2000, **counts)
        with pytest.raises(ConfigError, match="at least one run"):
            run_longtime(problem="kdv", nx=64, runs=[])
        for workers in (0, -3):
            with pytest.raises(ConfigError, match="workers"):
                run_longtime(problem="kdv", nx=64, runs=[("erk4", None)],
                             n_steps=200, ref_steps=2000, workers=workers)


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
                                 dict(k2_max=float("inf")),
                                 dict(methods=["erk4", "erk4"]),
                                 dict(rhos=[0.0, 0]),
                                 dict(rhos=[math.pi / 2048, 0.0,
                                            math.pi / 2048])],
                         ids=["n1=0", "n2=0", "method", "rho", "k2_max",
                              "repeated-method", "repeated-rho-0",
                              "repeated-rho-pi/2048"])
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

    def test_far_sample_time_is_taken_at_the_end(self, tmp_path, monkeypatch):
        # a finite time far beyond t_end is clamped, not an overflow
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["reference", "--problem", "zds", "--nx", "32", "--t-end",
                   "1", "--method", "rk4", "--steps", "100",
                   "--samples", "0.5,1e308"])
        assert rc == 0
        (entry,) = os.listdir(tmp_path / "cache")
        meta, _ = read_spectrum(tmp_path / "cache" / entry / "snap-0001.txt")
        assert meta["t"] == 1.0

    def test_reference_prebuilds_what_converge_reads(self, tmp_path,
                                                     monkeypatch):
        # `reference` and `converge` each spell out the ZDS reference
        # defaults; with no flags they must ask for the same cache entry
        calls = []

        def record(*args):
            calls.append(args)
            raise ReferenceFailure("recorded")

        monkeypatch.setattr(cli, "ensure_reference", record)
        monkeypatch.chdir(tmp_path)
        assert main(["reference"]) == 3
        assert main(["converge"]) == 3
        assert len(calls) == 2
        assert calls[0] == calls[1]

    def test_stability_command(self, tmp_path):
        out = tmp_path / "maps"
        rc = main(["stability", "--methods", "erk4", "--rho", "0",
                   "--resolution", "4x3", "--out", str(out)])
        assert rc == 0
        assert (out / "stability-erk4-rho0.csv").exists()

    def test_stability_overflow_reads_unstable(self, tmp_path):
        # k2 up to 1e200 overflows the probes of every family alike: the
        # cells read |R| = inf, class unstable, and the run succeeds
        out = tmp_path / "maps"
        rc = main(["stability", "--methods", "epbm5,erk4", "--rho", "0",
                   "--resolution", "4x4", "--k2-max", "1e200",
                   "--out", str(out)])
        assert rc == 0
        for family in ("epbm5", "erk4"):
            text = (out / ("stability-%s-rho0.csv" % family)).read_text()
            rows = [line.split(",") for line in text.splitlines()[1:]]
            overflowed = [row for row in rows if float(row[1]) > 0]
            assert len(overflowed) == 12
            assert all(row[2:] == ["inf", "unstable"] for row in overflowed)

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

    def test_config_key_that_names_no_option(self, tmp_path, monkeypatch,
                                             capsys):
        # a flag's spelling (t-end, not t_end) names no option: refused
        # before any work; a key that only another command takes is allowed
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 32\nt-end = 0.1\nresolution = 4x3\n")
        assert main(["--config", str(cfg), "solve"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: config key 't-end' names no option"]
        assert os.listdir(tmp_path) == ["run.cfg"]
        cfg.write_text("nx = 32\nt_end = 0.1\nsteps = 10\nresolution = 4x3\n")
        assert main(["--config", str(cfg), "solve"]) == 0
        assert (tmp_path / "solution.txt").exists()

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

    # each value passes the same checks as a flag and as a config line.
    # The ids of the three modification values below name the modification's
    # kind (repartition or hyperviscosity) and its fields in short.
    BAD_VALUES = [
        ("solve", "nx", "100"), ("solve", "nx", "abc"),
        ("solve", "nx", "lots"), ("solve", "steps", "0"),
        ("solve", "t_end", "-1"),
        pytest.param("solve", "modification", "identity:rho=0.3",
                     id="solve-repartition-identity:rho=0.3"),
        ("stability", "resolution", "0x5"), ("longtime", "n_samples", "0"),
        ("longtime", "n_samples", "30"), ("longtime", "runs", ";"),
        ("longtime", "runs", "erk4;erk4:"),
        ("converge", "methods", ","), ("converge", "workers", "-3"),
        ("reference", "samples", "inf"), ("reference", "samples", "0.5,nan"),
        ("stability", "methods", ","), ("stability", "rho", ","),
        ("reference", "samples", ","),
        pytest.param("converge", "modification",
                     "hyperviscosity:m=8:gamma=inf",
                     id="converge-hyperviscosity-8:inf"),
        pytest.param("solve", "modification", "abs_k3:rho=0.1:eps=0.5",
                     id="solve-repartition-abs_k3:0.1:0.5"),
        ("converge", "modification", ""), ("solve", "modification", ""),
        ("solve", "out", ""), ("converge", "out", ""), ("longtime", "out", ""),
        ("stability", "out", ""),
        ("converge", "methods", "erk4,erk4"),
        ("stability", "methods", "erk4,epbm5,erk4"),
        ("stability", "rho", "0,0.0"), ("stability", "rho", "pi/2048,pi/2048"),
    ]
    BASE = {"solve": {"nx": "32", "steps": "10", "t_end": "0.1"},
            "stability": {"methods": "erk4"},
            "longtime": {"nx": "32", "t_end": "0.5", "steps": "10",
                         "n_samples": "5", "ref_steps": "100"},
            "converge": {"nx": "32", "t_end": "0.5", "steps": "10,20",
                         "ref_steps": "200"},
            "reference": {"nx": "32", "t_end": "1", "method": "rk4",
                          "steps": "100"}}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key, value", BAD_VALUES)
    def test_bad_value_exit_code(self, tmp_path, monkeypatch, capsys,
                                 source, command, key, value):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "out"
        flags = dict(self.BASE[command])
        if command != "reference":      # a reference goes to the cache only
            flags["out"] = str(out)
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

    @pytest.mark.parametrize("command", ["converge", "longtime", "solve"])
    def test_out_in_missing_directory(self, tmp_path, monkeypatch, capsys,
                                      command):
        # refused before the reference or any run, and no directory is made
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        argv = [command, "--out", str(tmp_path / "absent" / "out.csv")]
        for k, v in self.BASE[command].items():
            argv += ["--" + k.replace("_", "-"), v]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write")
        assert os.listdir(tmp_path) == []

    def test_stability_out_is_a_file(self, tmp_path):
        out = tmp_path / "maps"
        out.write_text("keep\n")
        rc = main(["stability", "--methods", "erk4", "--rho", "0",
                   "--resolution", "4x3", "--out", str(out)])
        assert rc == 2
        assert out.read_text() == "keep\n"

    def test_unknown_problem(self, tmp_path, monkeypatch):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(["converge", "--problem", "foo", "--nx", "32", "--t-end",
                   "1", "--methods", "erk4", "--steps", "10,20",
                   "--ref-steps", "400", "--workers", "1",
                   "--out", str(tmp_path / "c.csv")])
        assert rc == 2
        assert os.listdir(tmp_path) == []

    def test_modification_label_round_trips(self, tmp_path, monkeypatch):
        # --modification takes the describe() text of none and of each
        # modification of the parity matrix, and the CSV writes it back
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        spec = importlib.util.spec_from_file_location("parity", os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "tools", "parity.py"))
        parity = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(parity)
        csv = tmp_path / "c.csv"
        for mod in parity._modifications(es):
            label = "none" if mod is None else mod.describe()
            assert main(["converge", "--problem", "zds", "--nx", "32",
                         "--t-end", "0.5", "--methods", "erk4", "--steps",
                         "10,20", "--ref-steps", "200", "--workers", "1",
                         "--modification", label, "--out", str(csv)]) == 0
            rows = [line.split(",") for line in
                    csv.read_text().splitlines()[1:]]
            assert [row[1] for row in rows] == [label, label]

    @pytest.mark.parametrize("problem, runs, ref_steps, rc", [
        ("kdv", "erk4;erk4:identity:eps=1", "2000", 0),
        ("zds", "rk4", "4000", 4),      # h = 1: every run blows up
    ])
    def test_longtime_exit_code(self, tmp_path, monkeypatch, problem, runs,
                                ref_steps, rc):
        monkeypatch.setenv("EXPSTAB_CACHE_DIR", str(tmp_path / "cache"))
        csv = tmp_path / "lt.csv"
        t_end, steps = ("0.5", "200") if problem == "kdv" else ("40", "40")
        assert main(["longtime", "--problem", problem, "--nx", "32",
                     "--t-end", t_end, "--steps", steps, "--runs", runs,
                     "--n-samples", "4", "--ref-method", "rk4" if rc else
                     "imrk4", "--ref-steps", ref_steps, "--workers", "1",
                     "--out", str(csv)]) == rc
        lines = csv.read_text().splitlines()
        assert lines[0] == "method,modification,t,relative_error,status"
        assert lines[-1].endswith(",blowup" if rc else ",ok")

    def test_unknown_method_in_stability(self, tmp_path):
        rc = main(["stability", "--methods", "rk5", "--rho", "0",
                   "--out", str(tmp_path)])
        assert rc == 2


def test_k2_bands_cover_all_families():
    from expstab.integrators import FAMILIES
    assert set(cli.K2_BANDS) == set(FAMILIES)
