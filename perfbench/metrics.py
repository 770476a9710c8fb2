"""Metric definitions and the per-layer figures drawn from a traced run.

`END_TO_END` and `PER_LAYER` are the lists BENCHMARK.json declares; the
self-test checks that the two agree.  Per-layer figures are per round of a
workload (one march, one ramp, one set of fits, one set of protocols), so
counts repeat exactly however many rounds a run fits in, except the two
set-up spans, which happen once per run.
"""

import numpy as np

import tracing

# name, unit, better, bound (share of the parent's median it may worsen).
# The time bounds are wide because the 2-core host this was tuned on runs
# the same work up to 1.7x slower for tens of seconds at a time.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.24),
    ("solve_cpu_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

ELEMENT_KERNELS = ("deformation_gradients", "b_matrices", "internal_forces",
                   "material_stiffness", "geometric_stiffness",
                   "volume_gradient", "face_pressure")
FLOP_KERNELS = ("material_stiffness", "geometric_stiffness")

# name, unit, better
PER_LAYER = (
    [("fem.mesh.strip_mesh.s", "s", "lower"),
     ("fem.solver.model_init.s", "s", "lower")]
    + [(f"fem.elements.{k}.s", "s", "lower") for k in ELEMENT_KERNELS]
    + [("fem.elements.calls", "count", "lower")]
    + [(f"fem.elements.{k}.gflop_per_s", "GFLOP/s", "higher") for k in FLOP_KERNELS]
    + [("fem.solver.assemble.calls", "count", "lower"),
       ("fem.solver.assemble.rejected", "count", "lower"),
       ("fem.solver.assemble.self_s", "s", "lower"),
       ("fem.solver.splu.calls", "count", "lower"),
       ("fem.solver.splu.s", "s", "lower"),
       ("fem.solver.lu_solve.s", "s", "lower"),
       ("fem.solver.ramp.s", "s", "lower"),
       ("fem.solver.ramp_iters", "count", "lower"),
       ("fem.solver.march.s", "s", "lower"),
       ("fem.solver.steps_accepted", "count", "lower"),
       ("fem.solver.newton_iters", "count", "lower"),
       ("fem.solver.solve_step.calls", "count", "lower"),
       ("fem.solver.solve_step.failed", "count", "lower"),
       ("materials.response_batch.calls", "count", "lower"),
       ("materials.response_batch.points", "count", "lower"),
       ("materials.response_batch.s", "s", "lower"),
       ("materials.matrix_batch.s", "s", "lower"),
       ("materials.textile_batch.s", "s", "lower"),
       ("materials.collagen_psim_batch.s", "s", "lower"),
       ("materials.total_response.calls", "count", "lower"),
       ("materials.total_response.s", "s", "lower"),
       ("growth.update_density_batch.calls", "count", "lower"),
       ("growth.update_density_batch.points", "count", "lower"),
       ("growth.update_density_batch.s", "s", "lower"),
       ("matpoint.solve_mixed_point.calls", "count", "lower"),
       ("matpoint.solve_mixed_point.s", "s", "lower"),
       ("matpoint.evals_per_step", "evals/step", "lower"),
       ("calibrate.fit_material.s", "s", "lower"),
       ("calibrate.fit_weibull.s", "s", "lower"),
       ("calibrate.objective_evals", "count", "lower"),
       ("calibrate.objective_eval.s", "s", "lower"),
       ("tensors.calls", "count", "lower"),
       ("tensors.s", "s", "lower"),
       ("trace.spans", "count", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("trace.solve_s", "s", "lower")])

def _per_round(total, rounds):
    value = total / rounds
    return int(value) if float(value).is_integer() else value


def per_layer(tracer, rounds, traced_solve_s):
    """The PER_LAYER figures of a traced run, all but `trace.overhead_s`.

    Set-up spans count once per run; everything else is per round.  Self
    time is a span's duration minus what its child spans cover.  The
    overhead needs an untraced run of the same inputs, so run.py adds it.
    """
    spans = tracer.arrays()
    dur = spans["end"] - spans["start"]
    own = tracing.self_times(spans["start"], spans["end"], spans["parent"])
    n_names = len(tracer.names)
    stats = {}
    for phase in range(len(tracing.PHASES)):
        sel = spans["phase"] == phase
        ids = spans["name_id"][sel]
        stats[phase] = {
            "calls": np.bincount(ids, minlength=n_names),
            "s": np.bincount(ids, weights=dur[sel], minlength=n_names),
            "self_s": np.bincount(ids, weights=own[sel], minlength=n_names),
            "failed": np.bincount(ids, weights=spans["failed"][sel],
                                  minlength=n_names),
        }
    solve = tracing.PHASES.index("solve")
    setup = tracing.PHASES.index("setup")

    def total(name, field, phase=solve):
        if name not in tracer.names:
            return 0
        value = stats[phase][field][tracer.names.index(name)]
        return int(value) if field in ("calls", "failed") else float(value)

    def layer_total(prefix, field):
        return sum(total(n, field) for n in tracer.names if n.startswith(prefix))

    def count(name):
        return tracer.counts.get((solve, name), 0)

    r = rounds
    m = {"fem.mesh.strip_mesh.s": total("fem.mesh.strip_mesh", "s", setup),
         "fem.solver.model_init.s": total("fem.solver.model_init", "s", setup)}
    for k in ELEMENT_KERNELS:
        m[f"fem.elements.{k}.s"] = total(f"fem.elements.{k}", "s") / r
    m["fem.elements.calls"] = _per_round(layer_total("fem.elements.", "calls"), r)
    for k in FLOP_KERNELS:
        busy = total(f"fem.elements.{k}", "s")
        flops = count(f"fem.elements.{k}.flops")
        m[f"fem.elements.{k}.gflop_per_s"] = flops / busy / 1e9 if busy else 0.0
    m["fem.solver.assemble.calls"] = _per_round(total("fem.solver.assemble", "calls"), r)
    m["fem.solver.assemble.rejected"] = _per_round(total("fem.solver.assemble", "failed"), r)
    m["fem.solver.assemble.self_s"] = total("fem.solver.assemble", "self_s") / r
    m["fem.solver.splu.calls"] = _per_round(total("fem.solver.splu", "calls"), r)
    m["fem.solver.splu.s"] = total("fem.solver.splu", "s") / r
    m["fem.solver.lu_solve.s"] = total("fem.solver.lu_solve", "s") / r
    m["fem.solver.ramp.s"] = total("fem.solver.ramp_pressure", "s") / r
    m["fem.solver.ramp_iters"] = _per_round(count("fem.solver.ramp_iters"), r)
    m["fem.solver.march.s"] = total("fem.solver.march_maturation", "s") / r
    m["fem.solver.steps_accepted"] = _per_round(count("fem.solver.steps_accepted"), r)
    m["fem.solver.newton_iters"] = _per_round(count("fem.solver.newton_iters"), r)
    m["fem.solver.solve_step.calls"] = _per_round(total("fem.solver.solve_step", "calls"), r)
    m["fem.solver.solve_step.failed"] = _per_round(total("fem.solver.solve_step", "failed"), r)
    m["materials.response_batch.calls"] = _per_round(
        total("materials.response_batch", "calls"), r)
    m["materials.response_batch.points"] = _per_round(
        count("materials.response_batch.points"), r)
    for k in ("response_batch", "matrix_batch", "textile_batch",
              "collagen_psim_batch", "total_response"):
        m[f"materials.{k}.s"] = total(f"materials.{k}", "s") / r
    m["materials.total_response.calls"] = _per_round(
        total("materials.total_response", "calls"), r)
    m["growth.update_density_batch.calls"] = _per_round(
        total("growth.update_density_batch", "calls"), r)
    m["growth.update_density_batch.points"] = _per_round(
        count("growth.update_density_batch.points"), r)
    m["growth.update_density_batch.s"] = total("growth.update_density_batch", "s") / r
    m["matpoint.solve_mixed_point.calls"] = _per_round(
        total("matpoint.solve_mixed_point", "calls"), r)
    m["matpoint.solve_mixed_point.s"] = total("matpoint.solve_mixed_point", "s") / r
    records = count("matpoint.records")
    m["matpoint.evals_per_step"] = (total("materials.total_response", "calls")
                                    / records if records else 0.0)
    m["calibrate.fit_material.s"] = total("calibrate.fit_material", "s") / r
    m["calibrate.fit_weibull.s"] = total("calibrate.fit_weibull", "s") / r
    evals = total("calibrate.objective_eval", "calls")
    m["calibrate.objective_evals"] = _per_round(evals, r)
    m["calibrate.objective_eval.s"] = (total("calibrate.objective_eval", "s") / evals
                                       if evals else 0.0)
    m["tensors.calls"] = _per_round(layer_total("tensors.", "calls"), r)
    m["tensors.s"] = layer_total("tensors.", "s") / r
    m["trace.spans"] = _per_round(int(np.count_nonzero(spans["phase"] == solve)), r)
    m["trace.solve_s"] = traced_solve_s
    missing = [name for name, *_ in PER_LAYER
               if name not in m and name != "trace.overhead_s"]
    if missing:
        raise KeyError(f"per-layer figures not computed: {missing}")
    return m
