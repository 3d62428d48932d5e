"""In-memory span recorder that wraps psaddle's public callables from outside.

Only a traced sample installs the wrappers; untraced samples never import
this module, so their timings are untouched.  Each span is (name, start,
end, parent) under the sample's run id.  Self time is a span's duration
minus the part its children cover; children of one span run one after
another on the one thread, so that part is the sum of their durations.
Spans are timed on the process's CPU clock, like the end-to-end metrics,
less the time of calibration ticks when sample.py passes that clock in.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property, wraps
from time import process_time


class Tracer:
    def __init__(self, run_id: str, clock=process_time):
        self.run_id = run_id
        self.clock = clock
        self.active = False
        # parallel lists of atoms: the cyclic garbage collector does not
        # walk them, so a long run's spans do not slow the traced program
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark's own code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str, on_result=None):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if on_result is not None:
                on_result(tracer, name, out)
            return out

        return traced

    # -- installing ------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a traced wrapper; note it if absent."""
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(orig, cached_property):
            new = cached_property(self.wrap(orig.func, name, on_result))
            new.__set_name__(owner, attr)
            setattr(owner, attr, new)
        else:
            setattr(owner, attr, self.wrap(orig, name, on_result))

    def patch_bindings(self, module, attr: str, name: str, on_result=None) -> None:
        """Trace module.attr in every psaddle module that bound it by name.

        "{layer}" in `name` becomes the binding module's name, so one
        function can be split by the layer that calls it.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        for modname, mod in list(sys.modules.items()):
            if modname.startswith("psaddle") and getattr(mod, attr, None) is orig:
                layer = modname.rsplit(".", 1)[-1]
                setattr(mod, attr, self.wrap(orig, name.format(layer=layer), on_result))

    def install(self) -> None:
        """Wrap the layer boundaries of psaddle named in README.md."""
        from psaddle import cli, core_linalg, monotone, quality, riesz, spaces, system, uzawa

        Op = monotone.GalerkinOperator
        self.patch(Op, "apply", "monotone.apply")
        self.patch(Op, "jacobian", "monotone.jacobian")
        self.patch(monotone, "newton_solve", "monotone.newton_solve", _count_iterations)
        self.patch(monotone, "empirical_mu_bounds", "monotone.empirical_mu_bounds")

        Ctx = riesz.RieszContext
        self.patch(Ctx, "__post_init__", "riesz.context_init")
        self.patch(Ctx, "riesz_Y_solve", "riesz.riesz_Y_solve")
        self.patch(Ctx, "riesz_X_solve", "riesz.riesz_X_solve")
        for attr in ("apply_D", "apply_Dt", "apply_trace_term"):
            self.patch(Ctx, attr, "riesz.coupling")

        self.patch_bindings(core_linalg, "lu_factorize", "core_linalg.lu_factorize.{layer}",
                            _count_factor_nnz)
        self.patch(system, "solve_reference", "system.solve_reference")
        self.patch(system, "assemble_rhs", "system.assemble_rhs")
        self.patch_bindings(spaces, "assemble_matrices", "spaces.assemble_matrices")
        self.patch(uzawa, "run_inexact_uzawa", "uzawa.run_inexact_uzawa")

        Two = quality.TwoLevel
        for attr, value in list(vars(Two).items()):
            if attr.startswith("__"):
                continue
            if callable(value) or isinstance(value, cached_property):
                hook = _count_dense_gram if attr == "coarse_gram_in_fine_norm" else None
                self.patch(Two, attr, f"quality.{attr}", hook)
        self.patch(quality, "infsup_report", "quality.infsup_report")
        self.patch(cli, "write_csv", "cli.write_csv")

    # -- reduction -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        dur = [e - b for b, e in zip(self.starts, self.ends)]
        child_cover = [0.0] * len(dur)
        for d, parent in zip(dur, self.parents):
            if parent >= 0:
                child_cover[parent] += d
        out: dict[str, dict[str, float]] = {}
        for name, d, cover in zip(self.names, dur, child_cover):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += d
            rec["self_s"] += d - cover
        return out

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": {"name": self.names, "start": self.starts, "end": self.ends,
                      "parent": self.parents},
            "counters": dict(self.counters),
            "missing": self.missing,
        }


def _count_iterations(tracer: Tracer, name: str, result) -> None:
    tracer.counters[f"{name}.iterations"] += getattr(result, "iterations", 0)


def _count_factor_nnz(tracer: Tracer, name: str, lu) -> None:
    # SuperLU's own count of stored factor entries (L and U together, in its
    # supernodal storage).  Reading L.nnz + U.nnz instead would copy both
    # factors and distort the very memory this counter is meant to explain.
    nnz = int(getattr(lu, "nnz", 0))
    tracer.counters[f"{name}.factor_nnz"] += nnz
    key = "core_linalg.lu_factorize.max_factor_nnz"
    tracer.counters[key] = max(tracer.counters[key], nnz)


def _count_dense_gram(tracer: Tracer, name: str, gram) -> None:
    # computed, not measured: the bytes of each dense coarse Gram built
    tracer.counters["quality.dense_gram_bytes"] += float(gram.nbytes)
