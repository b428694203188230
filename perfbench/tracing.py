"""Span tracing of the actuopt layers, from outside the package.

`Tracer.install` wraps the public functions of the `config`, `beam_model`,
`wave_model`, `core_system`, `adjoint_grad`, `optimizer` and `cli` modules,
the `Discretization.step_factors`, `gram_solve` and `cost_matrix` methods,
and the `fnl` / `fnl_diag` closures that `assemble_beam` / `assemble_wave`
put on each Discretization. The modules import each other's functions by
name (`actuopt.optimizer.solve_forward`, `actuopt.cli.optimize`, ...), so
every module attribute that refers to a wrapped original is rebound too.
`cli._COMMANDS` keeps its own references to the `cmd_*` functions, so their
time (argument handling and file output) is `cli.main` self time.

A span is (name, parent span, start, end) in CLOCK_MONOTONIC seconds. Spans
stay in flat arrays until `save` writes them out at the end of the run;
`summarize` derives each name's calls, inclusive time, self time (duration
minus the part covered by child spans) and longest call.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYER_MODULES = (
    "config", "beam_model", "wave_model", "core_system", "adjoint_grad",
    "optimizer", "cli",
)
DISC_METHODS = ("step_factors", "gram_solve", "cost_matrix")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # counters recorded at the layer boundaries
        self.counters = {
            "factorizations": 0,
            "lu_nnz": 0,
            "m_plus_nnz": 0,
            "optimize_iterations": 0,
            "optimize_not_converged": 0,
        }
        self._factors = {}

    def _register(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        """Return fn recording one span per call; after(result) runs outside it."""
        nid = self._register(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack)
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(end)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    # boundary counters -------------------------------------------------

    def _after_assemble(self, disc):
        disc.fnl = self.wrap(f"{disc.model}_model.fnl", disc.fnl)
        disc.fnl_diag = self.wrap(f"{disc.model}_model.fnl_diag", disc.fnl_diag)

    def _after_step_factors(self, out):
        lu, m_plus = out
        if id(lu) not in self._factors:
            # keep the factor alive so its id is not reused by a new one
            self._factors[id(lu)] = lu
            self.counters["factorizations"] += 1
            self.counters["lu_nnz"] = int(lu.L.nnz + lu.U.nnz)
            self.counters["m_plus_nnz"] = int(m_plus.nnz)

    def _after_optimize(self, run):
        self.counters["optimize_iterations"] += int(run.n_iters)
        self.counters["optimize_not_converged"] += int(not run.converged)

    def install(self):
        """Wrap the layers of the imported actuopt package in place."""
        import actuopt

        modules = [importlib.import_module(f"actuopt.{m}") for m in LAYER_MODULES]
        after = {
            "beam_model.assemble_beam": self._after_assemble,
            "wave_model.assemble_wave": self._after_assemble,
            "optimizer.optimize": self._after_optimize,
        }
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrapped[fn] = self.wrap(name, fn, after.get(name))
        for mod in modules + [actuopt]:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])

        # the closures are wrapped per Discretization as assembly returns it
        for model in ("beam", "wave"):
            self._register(f"{model}_model.fnl")
            self._register(f"{model}_model.fnl_diag")
        disc_cls = actuopt.core_system.Discretization
        for meth in DISC_METHODS:
            hook = self._after_step_factors if meth == "step_factors" else None
            setattr(disc_cls, meth,
                    self.wrap(f"core_system.{meth}", getattr(disc_cls, meth), hook))

    def save(self, path):
        if len(self._stack) != 1:
            raise RuntimeError("spans still open at save time")
        np.savez(
            path,
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            names=np.array(json.dumps(self.names)),
        )


def summarize(path):
    """Per-name span statistics from a file written by `Tracer.save`.

    Returns (stats, root_s): stats maps each name to calls, self_s, max_s
    (the longest call) and calls_in_optimize (calls with an
    `optimizer.optimize` span among their ancestors); root_s is the summed
    duration of the spans that have no parent.
    """
    with np.load(path) as z:
        name_of = z["name_of"]
        parent = z["parent"]
        dur = z["end"] - z["start"]
        names = json.loads(str(z["names"]))
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    self_t = dur - covered
    n = len(names)
    calls = np.bincount(name_of, minlength=n)
    self_s = np.bincount(name_of, weights=self_t, minlength=n)
    longest = np.zeros(n)
    np.maximum.at(longest, name_of, dur)

    # mark the descendants of optimize spans, one tree level per pass
    is_opt = name_of == names.index("optimizer.optimize")
    inside = np.zeros(dur.size, dtype=bool)
    safe_parent = np.where(has_parent, parent, 0)
    while True:
        nxt = has_parent & (is_opt[safe_parent] | inside[safe_parent])
        if np.array_equal(nxt, inside):
            break
        inside = nxt
    calls_in_optimize = np.bincount(name_of[inside], minlength=n)

    stats = {
        name: {
            "calls": int(calls[k]),
            "self_s": float(self_s[k]),
            "max_s": float(longest[k]),
            "calls_in_optimize": int(calls_in_optimize[k]),
        }
        for k, name in enumerate(names)
    }
    return stats, float(dur[~has_parent].sum())
