"""The benchmark's checks on itself: run ``python3 perfbench/selftest.py``.

- Self time of a span equals its duration minus the time its children
  cover, on a synthetic nest of spans and on spans the tracer records.
- Every correctness check passes on a right result and fails on a
  deliberately wrong one.
- BENCHMARK.json declares exactly the workloads and metrics the code has.
- The tracer wraps functions where their callers resolve them, and puts the
  originals back afterwards.
"""

import json
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

GROWTH = SimpleNamespace(a1=5e-4, c_cell=15e3, tau=14.21, h=1.65)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_synthetic_nest():
    #        span:  0     1     2     3      4     5
    start = [0.0, 1.0, 3.0, 8.0, 2.0, 20.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0, 25.0]
    parent = [-1, 0, 0, 0, 1, -1]
    # children of 0 cover [1, 6] and [8, 10] inside it: 7 of its 10
    want = [3.0, 2.0, 3.0, 4.0, 1.0, 5.0]
    got = tracing.self_times(start, end, parent)
    assert np.allclose(got, want, rtol=0, atol=1e-12), got


def test_self_time_recorded_spans():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: _busy(0.002), "inner")
    outer = tracer.wrap(lambda: (_busy(0.001), inner(), inner()), "outer")
    tracer.active = True
    outer()
    spans = tracer.arrays()
    own = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    dur = spans["end"] - spans["start"]
    top = int(np.flatnonzero(spans["parent"] == -1)[0])
    kids = spans["parent"] == top
    assert kids.sum() == 2
    assert math.isclose(own[top], dur[top] - dur[kids].sum(), abs_tol=1e-12)
    assert own[top] >= 0.001


def _strip_nodes(nx=4, ny=2, length=4.0, width=2.0):
    x, y, z = np.meshgrid(np.linspace(0, length, nx + 1),
                          np.linspace(0, width, ny + 1), [0.0, 0.3], indexing="ij")
    return np.stack([x.ravel(), y.ravel(), z.ravel()], axis=1)


def test_mirror_check():
    nodes = _strip_nodes()
    uz = np.sin(np.pi * nodes[:, 0] / 4.0) * np.sin(np.pi * nodes[:, 1] / 2.0)
    for axis, center in ((0, 2.0), (1, 1.0)):
        assert checks.mirror_symmetry("u_z", nodes, uz, axis, center).ok
    # the mirror image of the field, then one node nudged
    wrong = uz[checks.mirror_permutation(nodes, 0, 2.0)].copy()
    wrong[3] += 1e-6
    assert not checks.mirror_symmetry("u_z", nodes, wrong, 0, 2.0).ok
    assert not checks.mirror_symmetry("u_z", nodes, nodes[:, 0], 0, 2.0).ok


def test_gauss_coordinates():
    nodes = _strip_nodes(nx=1, ny=1, length=1.0, width=1.0)
    conn = np.array([[0, 4, 6, 2, 1, 5, 7, 3]])  # node id (i, j, k) is 4i + 2j + k
    xi = np.array([[-1, -1, -1], [1, -1, -1], [1, 1, -1], [-1, 1, -1],
                   [-1, -1, 1], [1, -1, 1], [1, 1, 1], [-1, 1, 1]]) / np.sqrt(3.0)
    gp = checks.gauss_coordinates(nodes, conn, xi)
    assert np.allclose(gp[0], (1.0 + xi) / 2.0 * [1.0, 1.0, 0.3])
    perm = checks.mirror_permutation(gp, 0, 0.5)
    assert np.allclose(gp[0, perm, 0], 1.0 - gp[0, :, 0])


def test_residual_check():
    assert checks.free_residual(np.full(4, 5e-9), 1e-8).ok
    assert not checks.free_residual(np.array([0.0, -2e-8]), 1e-8).ok


def _balanced_reactions(pressure=0.002):
    # two unit quads at z = 0, corners ordered for an outward -z normal
    faces = np.array([[[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]],
                      [[1, 0, 0], [1, 1, 0], [2, 1, 0], [2, 0, 0]]], dtype=float)
    load = checks.pressure_resultant(faces, pressure)
    assert np.allclose(load, [0.0, 0.0, 2.0 * pressure])
    R = np.zeros((4, 3))
    fixed = np.zeros((4, 3), dtype=bool)
    fixed[[0, 3]] = True
    R[[0, 3]] = -0.5 * load
    return R, fixed, faces, pressure


def test_reaction_check():
    R, fixed, faces, p = _balanced_reactions()
    assert checks.reaction_balance(R, fixed, faces, p, 6, 1e-8).ok
    assert not checks.reaction_balance(1.01 * R, fixed, faces, p, 6, 1e-8).ok
    assert not checks.reaction_balance(R, fixed, faces, 1.01 * p, 6, 1e-8).ok


def test_deflection_check():
    t = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    assert checks.deflection_monotone(t, [1.0, 2.0, 1.9, 1.8, 1.8]).ok
    assert not checks.deflection_monotone(t, [1.0, 2.0, 1.9, 1.8, 1.8 + 1e-6]).ok


def test_density_floor_check():
    times = np.linspace(0.0, 28.0, 113)
    floor = checks.bio_only_density(times, GROWTH)
    assert floor[0] == 0.0 and np.all(np.diff(floor) > 0.0)
    assert checks.density_floor("rho", floor * (1.0 + 1e-3), floor).ok
    low = floor.copy()
    low[50] *= 1.0 - 1e-6
    assert not checks.density_floor("rho", low, floor).ok
    gauss = np.full((4, 8), floor[-1])
    gauss[2, 5] -= 1e-6
    assert not checks.density_floor("rho", gauss, floor[-1]).ok


def test_fit_checks():
    truth = {"k1": 0.825, "k2": 4.0}
    assert checks.round_trip({"k1": 0.83, "k2": 3.97}, truth).ok
    assert not checks.round_trip({"k1": 0.85, "k2": 4.0}, truth).ok
    assert checks.series_rms({"a": 1e-7, "b": 5e-5}).ok
    assert not checks.series_rms({"a": 1e-7, "b": 2e-4}).ok
    assert checks.weibull_windows(14.21, 1.65).ok
    assert not checks.weibull_windows(14.8, 1.65).ok
    assert not checks.weibull_windows(14.21, 1.5).ok
    assert checks.within_bounds({"k": 0.5}, {"k": (0.0, 1.0)}).ok
    assert not checks.within_bounds({"k": 1.5}, {"k": (0.0, 1.0)}).ok


def test_free_axis_stress_check():
    sig = np.zeros((5, 6))
    sig[:, 0] = 0.1
    sig[:, 1] = 5e-11
    assert checks.free_axis_stress("s", sig, (1, 2), 1e-10).ok
    sig[3, 2] = -2e-10
    assert not checks.free_axis_stress("s", sig, (1, 2), 1e-10).ok


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_tracer_patches_where_callers_look():
    import maturesim
    from maturesim import matpoint, materials
    from maturesim.fem import solver

    before = (solver.response_batch, matpoint.total_response, solver.splu,
              solver.FemModel.assemble, maturesim.total_response)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        after = (solver.response_batch, matpoint.total_response, solver.splu,
                 solver.FemModel.assemble, maturesim.total_response)
        assert all(a is not b and a.__wrapped__ is b for a, b in zip(after, before))
        from maturesim.config import parse_config
        params = parse_config({}).material
        tracer.active = True
        matpoint.total_response(np.eye(3), params, matpoint.GrowthState(), 0.0, 0.0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (solver.response_batch, matpoint.total_response, solver.splu,
            solver.FemModel.assemble, maturesim.total_response) == before
    assert materials.response_batch is before[0]
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    top = names.index("materials.total_response")
    batch = names.index("materials.response_batch")
    assert spans["parent"][top] == -1 and spans["parent"][batch] == top


def main():
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every failing test, then exit 1
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name}")
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
