"""Span tracing of maturesim's layers from outside the package.

`Tracer.install()` replaces every public function of the traced layers with a
wrapper that records one span per call: name, start, end, parent span, phase
and a failure flag, all under the tracer's run id.  Where a module imported a
function by name (``from .materials import response_batch``) the wrapper is
set on that module's attribute too, because that is the name the caller
resolves at call time.  Spans live in flat arrays in memory and are written
out once, by `Tracer.save`, when the run ends.

The package itself is never edited; `uninstall()` puts every original back.
"""

import importlib
import sys
import time
import types
import uuid
from array import array

import numpy as np

# layer name -> module whose public functions form the layer
LAYERS = {
    "tensors": "maturesim.tensors",
    "materials": "maturesim.materials",
    "growth": "maturesim.growth",
    "matpoint": "maturesim.matpoint",
    "calibrate": "maturesim.calibrate",
    "fem.mesh": "maturesim.fem.mesh",
    "fem.elements": "maturesim.fem.elements",
    "fem.solver": "maturesim.fem.solver",
}

# FemModel methods traced under the solver layer (method -> span name)
MODEL_METHODS = {"__init__": "model_init", "assemble": "assemble",
                 "solve_step": "solve_step", "commit": "commit",
                 "record": "record"}

PHASES = ("setup", "solve")


def _material_stiffness_flops(args, out):
    # CB = CC @ B, then sum_g w B^T CB; a multiply-add counts as two flops
    e, g = args[0].shape[:2]
    return {"fem.elements.material_stiffness.flops":
            e * g * (2 * 6 * 6 * 24 + 2 * 6 * 24 * 24 + 24 * 24)}


def _geometric_stiffness_flops(args, out):
    # S dN^T and dN (S dN^T) per point, the weighting, then the I3 expansion
    e, g, a = args[1].shape[:3]
    return {"fem.elements.geometric_stiffness.flops":
            e * g * (2 * a * 9 + 2 * a * a * 3 + a * a) + e * (3 * a) ** 2}


def _march_counts(args, out):
    steps = out[0][1:]
    return {"fem.solver.steps_accepted": len(steps),
            "fem.solver.newton_iters": sum(r.newton_iters for r in steps)}


# span name -> counts(args, result) giving the work a call did
COUNTS = {
    "fem.elements.material_stiffness": _material_stiffness_flops,
    "fem.elements.geometric_stiffness": _geometric_stiffness_flops,
    "materials.response_batch": lambda args, out: {
        "materials.response_batch.points": int(np.size(args[0])) // 9},
    "growth.update_density_batch": lambda args, out: {
        "growth.update_density_batch.points": int(np.size(args[0]))},
    "fem.solver.ramp_pressure": lambda args, out: {
        "fem.solver.ramp_iters": int(out[2])},
    "fem.solver.march_maturation": _march_counts,
    "matpoint.solve_mixed_point": lambda args, out: {
        "matpoint.records": len(out)},
}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.failed = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}          # (phase, counter name) -> total
        self._stack = []
        self._patches = []
        self.active = False
        self.current_phase = 0

    # -- recording ---------------------------------------------------------

    def intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.phase.append(self.current_phase)
        self.failed.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx, failed=False):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[idx] = 1

    def set_phase(self, phase):
        self.current_phase = PHASES.index(phase)

    def wrap(self, fn, name, counts=None, wrap_args=None):
        """Traced stand-in for fn.

        `counts(args, result)` returns counters to add for the call;
        `wrap_args(args)` rewrites the arguments first, which is how
        callables handed into fn get traced as well.
        """
        nid = self.intern(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if wrap_args is not None:
                args = wrap_args(args)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx, failed=True)
                raise
            tracer.close(idx)
            if counts is not None:
                for key, value in counts(args, out).items():
                    slot = (tracer.current_phase, key)
                    tracer.counts[slot] = tracer.counts.get(slot, 0) + value
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_named(self, fn, name):
        if name == "fem.solver.splu":
            return self._wrap_splu(fn)
        if name == "calibrate.nelder_mead":
            def objective(args):
                return (self.wrap(args[0], "calibrate.objective_eval"),) + args[1:]
            return self.wrap(fn, name, wrap_args=objective)
        return self.wrap(fn, name, counts=COUNTS.get(name))

    def _wrap_splu(self, splu):
        factor = self.wrap(splu, "fem.solver.splu")
        tracer = self

        def traced_splu(*args, **kwargs):
            lu = factor(*args, **kwargs)
            if not tracer.active:
                return lu
            return _TracedLU(lu, tracer.wrap(lu.solve, "fem.solver.lu_solve"))

        traced_splu.__wrapped__ = splu
        return traced_splu

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced function wherever the package binds it."""
        solver = importlib.import_module("maturesim.fem.solver")
        replace = {}
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != modname):
                    continue
                replace[id(fn)] = (fn, self._wrap_named(fn, f"{layer}.{attr}"))
        # foreign code the solver calls by name
        replace[id(solver.splu)] = (solver.splu,
                                    self._wrap_named(solver.splu, "fem.solver.splu"))
        for modname in sorted(sys.modules):
            mod = sys.modules[modname]
            if mod is None or modname.split(".")[0] != "maturesim":
                continue
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
        for method, short in MODEL_METHODS.items():
            fn = vars(solver.FemModel)[method]
            self._set(solver.FemModel, method,
                      self._wrap_named(fn, f"fem.solver.{short}"))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "phase": np.array(self.phase, dtype=np.int8),
            "failed": np.array(self.failed, dtype=np.int8),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def save(self, path):
        """Write every span (names table, run id, span arrays) as .npz."""
        np.savez_compressed(path, run_id=np.array(self.run_id),
                            names=np.array(self.names, dtype=str),
                            phases=np.array(PHASES, dtype=str),
                            **self.arrays())


class _TracedLU:
    """Stands in for a SuperLU factor so that each solve becomes a span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def self_times(start, end, parent):
    """Span duration minus the part of its interval its children cover.

    Children may overlap each other or run past their parent; only the union
    of their intervals, clipped to the parent's, is subtracted.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    order = kids[np.lexsort((start[kids], parent[kids]))]
    covered = np.zeros_like(out)
    current, lo, hi = -1, 0.0, 0.0
    for k in order:
        p = parent[k]
        a, b = max(start[k], start[p]), min(end[k], end[p])
        if b <= a:
            continue
        if p != current:
            if current >= 0:
                covered[current] += hi - lo
            current, lo, hi = p, a, b
        elif a > hi:
            covered[current] += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if current >= 0:
        covered[current] += hi - lo
    return out - covered
