"""The seams of the benchmark's tracer, `perfbench/tracer.py`: the names it
rebinds on `cli`, `integrators`, `phicore` and `stability` must exist, runs
and grids must pass through them, and uninstalling must put every original
back.  The benchmark's own tests are not in this suite, so without this
check a change under src/ that renames or bypasses one of those names
would go unnoticed until a traced benchmark run."""
import importlib.util
import math
import os

import pytest

from expstab import cli, integrators, make_method, phicore, stability
from expstab.spectral import RepartitionSpec

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(os.path.dirname(HERE), "perfbench", "tracer.py")

# (problem, nx, family, n_steps, t_end, modification, sample_times)
LONE = ("zds", 32, "erk4", 10, 2.0, None, None)
PAIR = [LONE, LONE[:5] + (RepartitionSpec("abs_k3", rho=math.pi / 64),
                          None)]
# N calls: 4 per erk4 step for the lone run and for the pair's one batched
# state, and 3 for the pair's row-by-row probe of N (the grid's N is its
# own test-equation lambda, which the tracer does not wrap)
N_CALLS = 4 * 10 + 3 + 4 * 10


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def namespaces():
    """Every namespace the tracer may rebind a name in, by label."""
    return {"cli": vars(cli), "integrators": vars(integrators),
            "phicore": vars(phicore), "stability": vars(stability),
            "PhiCache": vars(phicore.PhiCache)}


def snapshot() -> dict:
    return {(label, name): value for label, ns in namespaces().items()
            for name, value in ns.items()}


def test_traced_runs_and_grid_read_their_counts(tracer_module):
    before = snapshot()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()    # KeyError if a name it rebinds is gone
        rebound = {key for key, value in snapshot().items()
                   if before.get(key) is not value}
        root = tracer.open("study")
        try:
            lone = cli._run_group([LONE])[0]
            pair = cli._run_group(PAIR)
            stability.region_grid(make_method("epbm5"), (0.5, 2.0),
                                  (0.0, 1.0), (4, 3))
        finally:
            tracer.close(root)
    finally:
        tracer.uninstall()
    assert {("cli", "integrate"), ("cli", "build_zds"),
            ("integrators", "epbm_initialize"), ("phicore", "phi_table"),
            ("PhiCache", "table"), ("stability", "region_grid")} <= rebound
    assert lone["ok"] and all(res["ok"] for res in pair)

    m = tracer.metrics()
    assert m["spectral.n_calls"] == N_CALLS
    assert m["phicore.table_requests"] > 0
    assert m["phicore.table_requests"] == m["phicore.tables_built"]
    assert m["integrators.erk4.steps"] == LONE[3]
    assert m["stability.points"] == 12

    after = snapshot()
    moved = sorted(key for key in before if after.get(key) is not before[key])
    assert moved == []
