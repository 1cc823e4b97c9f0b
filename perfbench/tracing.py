"""Per-layer timing by wrapping the package's public functions.

The wrappers live here, in the benchmark, not in the package. A function is
replaced in every ``baryfit`` module that binds it, because ``aaa``,
``nlaaa``, ``refine`` and ``gradients`` import their kernels by name: a
wrapper on ``baryfit.linalg`` alone would miss nearly every call. Methods
are replaced on their class.

Each wrapped call is a span. A module's self time is the time of its spans
minus the time of the wrapped spans they called, so ``<module>.self_s``
adds up, over all modules, to the time spent inside wrapped calls.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, metric key). Several attributes may share a key; their
# counts and times add up under it.
TARGETS = (
    ("linalg", "min_unit_norm_solution", "linalg.min_unit_norm_solution"),
    ("linalg", "pivoted_weighted_lsq", "linalg.pivoted_weighted_lsq"),
    ("linalg", "assemble_levy_system", "linalg.assemble_levy_system"),
    ("linalg", "LevySystem.residual_sq_sum", "linalg.residual_sq_sum"),
    ("refine", "sk_iterate", "refine.sk_iterate"),
    ("refine", "wf_iterate", "refine.wf_iterate"),
    ("refine", "wf_step", "refine.wf_step"),
    ("nlaaa", "nlaaa_fit", "nlaaa.nlaaa_fit"),
    ("nlaaa", "select_weights", "nlaaa.select_weights"),
    ("nlaaa", "full_squared_error", "nlaaa.full_squared_error"),
    ("nlaaa", "fallback_greedy", "nlaaa.fallback_greedy"),
    ("aaa", "aaa_fit", "aaa.aaa_fit"),
    ("aaa", "greedy_select", "aaa.greedy_select"),
    ("core", "SampleSet.deactivate", "core.SampleSet.deactivate"),
    ("core", "RationalModel.__call__", "core.RationalModel.call"),
    ("core", "realize", "core.realize"),
    ("core", "Realization.transfer", "core.Realization.transfer"),
    ("data", "metrics", "data.metrics"),
    ("gradients", "grad_nonlinear", "gradients.grad"),
    ("gradients", "grad_levy", "gradients.grad"),
    ("gradients", "grad_levy_rearranged", "gradients.grad"),
    ("gradients", "grad_sk_step", "gradients.grad"),
    ("gradients", "grad_sk_fixed_point", "gradients.grad"),
    ("gradients", "grad_wf_step", "gradients.grad"),
    ("gradients", "error_nonlinear", "gradients.error"),
    ("gradients", "error_levy", "gradients.error"),
    ("gradients", "error_sk_step", "gradients.error"),
    ("gradients", "error_wf_step", "gradients.error"),
    ("gradients", "finite_difference_gradient", "gradients.finite_difference_gradient"),
)

MODULES = ("linalg", "refine", "nlaaa", "aaa", "core", "data", "gradients")


def _calls_s(*keys):
    return tuple(m for k in keys for m in ((k + ".calls", "count"), (k + ".s", "s")))


# Every per-layer metric of the traced run, with its unit. The "warnings",
# "machine" and "traced" entries are filled by the harness: RuntimeWarnings
# raised during the pass, the median time of the reference computation as
# measured, and the end-to-end timings of the traced pass, whose difference
# from the untraced run is the tracing overhead.
PER_LAYER = (
    _calls_s("linalg.min_unit_norm_solution", "linalg.pivoted_weighted_lsq",
             "linalg.assemble_levy_system", "linalg.residual_sq_sum",
             "refine.sk_iterate")
    + (("refine.sk_iterate.iters", "count"), ("refine.sk_iterate.converged", "count"))
    + _calls_s("refine.wf_iterate")
    + (("refine.wf_iterate.iters", "count"), ("refine.wf_iterate.converged", "count"),
       ("refine.wf_iterate.best_is_start", "count"))
    + _calls_s("refine.wf_step", "nlaaa.select_weights")
    + (("nlaaa.select_weights.accepted", "count"), ("nlaaa.accept_ratio", "ratio"))
    + _calls_s("nlaaa.full_squared_error")
    + (("nlaaa.fallback_greedy.calls", "count"),)
    + _calls_s("aaa.greedy_select", "core.SampleSet.deactivate", "core.RationalModel.call")
    + (("core.RationalModel.call.points", "count"),)
    + _calls_s("core.realize", "core.Realization.transfer")
    + (("core.Realization.transfer.points", "count"),)
    + _calls_s("data.metrics", "gradients.grad")
    + (("gradients.error.calls", "count"),)
    + _calls_s("gradients.finite_difference_gradient")
    + tuple((m + ".self_s", "s") for m in MODULES)
    + (("warnings.runtime", "count"), ("machine.reference_s", "s"))
    + tuple(("traced." + m, "s") for m in
            ("aaa_fit_s", "nlaaa_fit_s", "eval_s", "realize_s", "gradcheck_s"))
)

# Keys whose call count must be nonzero after a pass, per workload. The NL-AAA
# fallback greedy is certain only on the builtins (abs falls back repeatedly).
_EVERYWHERE = tuple(sorted({key for _, _, key in TARGETS} - {"nlaaa.fallback_greedy"}))
EXPECTED = {
    "builtins": _EVERYWHERE + ("nlaaa.fallback_greedy",),
    "mor": _EVERYWHERE,
    "recover": _EVERYWHERE,
}


def _sk_extra(tracer, args, out):
    tracer.add("refine.sk_iterate.iters", len(out.errors))
    tracer.add("refine.sk_iterate.converged", int(out.converged))


def _wf_extra(tracer, args, out):
    tracer.add("refine.wf_iterate.iters", len(out.errors) - 1)  # entry 0 is the start
    tracer.add("refine.wf_iterate.converged", int(out.converged))
    tracer.add("refine.wf_iterate.best_is_start", int(out.best_index == 0))


def _select_extra(tracer, args, out):
    tracer.add("nlaaa.select_weights.accepted", int(out[1] != "fallback"))


def _points_extra(key):
    def extra(tracer, args, out):
        tracer.add(key, int(np.size(args[1])))  # args[0] is self
    return extra


EXTRAS = {
    "refine.sk_iterate": _sk_extra,
    "refine.wf_iterate": _wf_extra,
    "nlaaa.select_weights": _select_extra,
    "core.RationalModel.call": _points_extra("core.RationalModel.call.points"),
    "core.Realization.transfer": _points_extra("core.Realization.transfer.points"),
}


class Tracer:
    """Counts and span times of the wrapped functions, reset per pass."""

    def __init__(self):
        self._originals = []
        self._stack = []
        self.reset()

    def reset(self):
        self.values = defaultdict(float)
        self.self_s = defaultdict(float)

    def add(self, key, amount):
        self.values[key] += amount

    def _wrap(self, fn, key, module):
        extra = EXTRAS.get(key)
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                self.values[key + ".calls"] += 1
                self.values[key + ".s"] += dt
                self.self_s[module] += dt - children
            if extra is not None:
                extra(self, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Replace every target in every loaded baryfit module and class."""
        import baryfit

        binders = [m for name, m in sorted(sys.modules.items())
                   if name == "baryfit" or name.startswith("baryfit.")]
        for module, attr, key in TARGETS:
            home = getattr(baryfit, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, key, module))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, key, module)
            for binder in binders:
                if binder.__dict__.get(attr) is original:
                    self._originals.append((binder, attr, original))
                    setattr(binder, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def snapshot(self):
        """The layer metrics of PER_LAYER recorded since the last reset."""
        refined = self.values["nlaaa.select_weights.calls"]
        derived = {
            "nlaaa.accept_ratio":
                self.values["nlaaa.select_weights.accepted"] / refined if refined else 0.0,
        }
        derived.update((m + ".self_s", self.self_s[m]) for m in MODULES)
        return {name: derived.get(name, self.values[name])
                for name, _ in PER_LAYER if name.split(".")[0] in MODULES}

    def missing(self, workload):
        """Expected keys that recorded no call in the current pass."""
        return [key for key in EXPECTED[workload] if self.values[key + ".calls"] == 0]
