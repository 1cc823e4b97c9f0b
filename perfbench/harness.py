"""One benchmark run: set up, repeat whole passes over a workload for the
given time, check every output, and report the metrics.

A pass goes through the workload's cases in order and fits each with AAA
and with NL-AAA. After each case's fits, it repeats, for that case and every
case before it, one AAA fit, one evaluation and one realization of both
fitted models on the case's validation points, and one gradient check; after
the last case it repeats them once more for every case, so that case i of
n (counted from 1) is repeated n - i + 2 times a pass, spread over the pass.

Timing. Each timing is, for every case, the median of that operation's
repetitions over the whole run, summed over the cases. The machine this was
written on is a shared 2-core VM whose speed for a fixed computation
wanders by up to 2x over seconds to minutes. On eight minutes of repeated
NL-AAA fits of the `mor` cases, cut into 35 s windows, the window-to-window
spread (Q3 - Q1) / median of this statistic was 0.13, against 0.31 for the
fastest repetition per case, which a single lucky repetition sets. A run
starts a new pass only while the time left holds another pass as long as
the last one, so a run ends within about `seconds` of its start. NL-AAA is
fitted once per case and pass, so on `builtins` (one pass per run) its time
is a single measurement of 30-35 s.
"""

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass

import numpy as np

import baryfit
import checks
import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

END_TO_END = (
    ("setup_s", "s"),
    ("aaa_fit_s", "s"),
    ("nlaaa_fit_s", "s"),
    ("degree_at_target", "count"),
    ("eval_s", "s"),
    ("realize_s", "s"),
    ("gradcheck_s", "s"),
    ("peak_rss_mb", "MB"),
)
TIMINGS = ("aaa_fit_s", "nlaaa_fit_s", "eval_s", "realize_s", "gradcheck_s")

SETUP_PROBES = 7

# Workloads whose timings are scaled to the nominal machine speed. On
# `builtins` the reference does not follow the program's speed: its time is
# mostly LAPACK on 1000-row matrices, and the reference, run after those,
# varies on its own. Ten runs (seeds 601-610): nlaaa_fit_s spread 0.06 as
# measured and 0.28 scaled. See speed.py and perfbench/README.md.
SCALED_WORKLOADS = ("mor", "recover")


@dataclass
class Fit:
    case: workloads.Case
    algo: str
    model: baryfit.RationalModel
    trace: baryfit.FitTrace
    val_r: np.ndarray = None
    val_metrics: baryfit.MetricPair = None
    transfer: np.ndarray = None


class Pass:
    """Outputs, timings and operation counts of one pass."""

    def __init__(self):
        self.times = {}  # (timing, case name) -> repetition times
        self.layers = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.fits = []
        self.grad_devs = {}
        self.reference = []  # times of speed.reference(), taken between operations
        self.reference_error = 0.0

    def time_reference(self):
        """Time the reference computation once; it is not counted as an
        operation, since it runs none of the program's code."""
        seconds, err = speed.reference()
        self.reference.append(seconds)
        self.reference_error = max(self.reference_error, err)

    def op(self, label, fn, *args):
        """Run one operation; a raised exception counts it as failed."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # any fault of the program under test is a failed operation
            self.failed += 1
            self.errors.append("%s: %s" % (label, traceback.format_exc(limit=3)))
            return False, None

    def timed(self, timing, case, ops):
        """Run the (label, fn, *args) operations as one timed repetition."""
        t0 = time.perf_counter()
        outs = [self.op(*op) for op in ops]
        self.times.setdefault((timing, case.name), []).append(time.perf_counter() - t0)
        return outs


def _fit(case, algo):
    if algo == "aaa":
        return baryfit.aaa_fit(case.data, baryfit.FitConfig(max_degree=case.max_degree, tol=0.0))
    return baryfit.nlaaa_fit(case.data, baryfit.NlaaaConfig(max_degree=case.max_degree, tol=0.0))


def _evaluate(fit):
    fit.val_r = fit.model(fit.case.val.points)
    fit.val_metrics = baryfit.metrics(fit.model, fit.case.val)


def _realize(fit):
    fit.transfer = baryfit.realize(fit.model).transfer(fit.case.val.points)


def _rel(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def gradcheck(case, inst):
    """The ``baryfit gradcheck`` computation on one instance, extended to all
    six analytic gradients: each against a central finite difference of its
    criterion, plus the WF-step identity at w = w_prev."""
    G = baryfit.gradients
    mask = np.ones(case.data.size, dtype=bool)
    mask[inst.support_idx] = False
    work = baryfit.SampleSet(case.data.points, case.data.values, mask)
    lam = case.data.points[inst.support_idx]
    h = case.data.values[inst.support_idx]
    w, wp = inst.w, inst.w_prev
    pairs = {
        "fd_nonlinear": (G.grad_nonlinear(lam, h, work, w),
                         lambda v: G.error_nonlinear(lam, h, work, v)),
        "fd_levy": (G.grad_levy(lam, h, work, w),
                    lambda v: G.error_levy(lam, h, work, v)),
        "fd_levy_rearranged": (G.grad_levy_rearranged(lam, h, work, w),
                               lambda v: G.error_levy(lam, h, work, v)),
        "fd_sk_step": (G.grad_sk_step(lam, h, work, w, wp),
                       lambda v: G.error_sk_step(lam, h, work, v, wp)),
        "fd_sk_fixed_point": (G.grad_sk_fixed_point(lam, h, work, w),
                              lambda v: G.error_sk_step(lam, h, work, v, w)),
        "fd_wf_step": (G.grad_wf_step(lam, h, work, w, wp),
                       lambda v: G.error_wf_step(lam, h, work, v, wp)),
    }
    devs = {name: _rel(analytic, G.finite_difference_gradient(err, w))
            for name, (analytic, err) in pairs.items()}
    devs["wf_identity"] = _rel(G.grad_wf_step(lam, h, work, w, w),
                               G.grad_nonlinear(lam, h, work, w))
    return devs


def fit_case(p, case):
    label = case.name + " %s"
    p.time_reference()
    fits = []
    for algo in ("aaa", "nlaaa"):
        [(ok, out)] = p.timed(algo + "_fit_s", case, [(label % algo, _fit, case, algo)])
        if ok:
            fits.append(Fit(case, algo, *out))
    return fits


def repeat_case(p, case, inst, fits):
    """One more repetition of the AAA fit, the evaluation and realization
    of both fitted models, and the gradient check."""
    label = case.name + " %s"
    p.time_reference()
    p.timed("aaa_fit_s", case, [(label % "aaa", _fit, case, "aaa")])
    p.timed("eval_s", case, [(label % (f.algo + " eval"), _evaluate, f) for f in fits])
    p.timed("realize_s", case, [(label % (f.algo + " realize"), _realize, f) for f in fits])
    [(ok, devs)] = p.timed("gradcheck_s", case, [(label % "gradcheck", gradcheck, case, inst)])
    if ok:
        p.grad_devs[case.name] = devs


def run_pass(inputs, tracer):
    p = Pass()
    if tracer is not None:
        tracer.reset()
    done = []
    for case, inst in zip(inputs.cases, inputs.grad_instances):
        fits = fit_case(p, case)
        p.fits += fits
        done.append((case, inst, fits))
        for args in done:
            repeat_case(p, *args)
    for args in done:
        repeat_case(p, *args)
    if tracer is not None:
        p.layers = tracer.snapshot()
    return p


def typical(passes, timing):
    """Sum over cases of the median repetition of `timing` in the passes."""
    reps = {}
    for p in passes:
        for (name, case), times in p.times.items():
            if name == timing:
                reps.setdefault(case, []).extend(times)
    return sum(statistics.median(times) for times in reps.values())


def degree_at_target(p):
    return sum(checks.degree_at_target(f.trace, f.case.target) or 0
               for f in p.fits if f.algo == "nlaaa")


def problems(workload, p):
    """Every correctness check on the outputs of one pass."""
    out = []
    final_l2 = {}
    for f in p.fits:
        label = "%s %s" % (f.case.name, f.algo)
        out += checks.fit_problems(label, f.case.data, f.model, f.trace, f.algo == "nlaaa")
        final_l2.setdefault(f.case.name, {})[f.algo] = f.trace.records[-1].l2_norm
        if f.algo == "nlaaa":
            out += checks.target_problems(label, f.trace, f.case.target)
        if workload == "recover":
            out += checks.recovery_problems(label, f.case.max_degree, f.trace)
        if f.val_metrics is not None:
            out += checks.metric_problems(label + " data.metrics", f.val_metrics, f.model,
                                          f.case.val)
            if workload == "mor":
                out += checks.validation_problems(label, f.val_metrics.l2,
                                                  f.trace.records[-1].l2_norm)
        if workload == "mor" and f.transfer is not None:
            out += checks.realization_problems(label, f.transfer, f.val_r)
    if workload == "builtins":
        out += checks.refinement_problems(
            {name: (v["aaa"], v["nlaaa"]) for name, v in final_l2.items() if len(v) == 2})
    for case, devs in p.grad_devs.items():
        out += checks.gradient_problems(case + " gradcheck", devs)
    if not p.reference_error <= speed.REF_MAX_ERROR:
        out.append("reference fit: max error %.3g" % p.reference_error)
    return out


def digests(fits):
    """sha256 of the trace CSV and model JSON of every fit, as written by
    data.save_trace and data.save_model."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = {}
    for f in fits:
        stem = os.path.join(OUT_DIR, "%s.%s" % (f.case.name, f.algo))
        baryfit.save_trace(stem + ".trace.csv", f.trace)
        baryfit.save_model(stem + ".model.json", f.model)
        for suffix in (".trace.csv", ".model.json"):
            with open(stem + suffix, "rb") as fh:
                out[f.case.name + "." + f.algo + suffix] = hashlib.sha256(fh.read()).hexdigest()
    return out


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpus": os.cpu_count(),
    }


def setup_probe(run_py, workload, seed):
    """Wall time of a fresh interpreter that imports the package and builds
    this workload's inputs, then exits."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, run_py, "--setup-probe", "--workload", workload, "--seed", str(seed)],
        check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run(run_py, workload, seed, seconds, traced):
    # setup_s is the median of SETUP_PROBES probes, some before and some
    # after the passes, so that they do not all fall in one spell of load
    setup_times = [setup_probe(run_py, workload, seed) for _ in range(SETUP_PROBES // 2 + 1)]
    inputs = workloads.build(workload, seed)
    tracer = tracing.Tracer() if traced else None
    passes = []
    found = []
    with warnings.catch_warnings(record=traced) as caught:
        if traced:
            warnings.simplefilter("always", RuntimeWarning)
            tracer.install()
        t_start = time.perf_counter()
        last = 0.0
        while not passes or time.perf_counter() - t_start + last <= seconds:
            t_pass = time.perf_counter()
            seen = len(caught) if traced else 0
            p = run_pass(inputs, tracer)
            if traced:
                p.layers["warnings.runtime"] = sum(
                    issubclass(w.category, RuntimeWarning) for w in caught[seen:])
                missing = tracer.missing(workload)
                if missing:
                    found.append("traced pass: no calls recorded for %s" % ", ".join(missing))
            found += problems(workload, p)
            passes.append(p)
            last = time.perf_counter() - t_pass
        if len(passes) == 1:  # reproducibility needs a second pass over some case
            case = inputs.cases[0]
            again = [Fit(case, algo, *_fit(case, algo)) for algo in ("aaa", "nlaaa")]
        else:
            again = passes[1].fits
        if traced:
            tracer.uninstall()
    setup_times += [setup_probe(run_py, workload, seed) for _ in range(len(setup_times),
                                                                       SETUP_PROBES)]
    found += checks.reproducibility_problems(digests(passes[0].fits), digests(again))
    if len({degree_at_target(p) for p in passes}) != 1:
        found.append("degree at target differs between passes")

    reference_s = statistics.median(t for p in passes for t in p.reference)
    if traced:
        values = {name: statistics.median(p.layers[name] for p in passes)
                  for name, _ in tracing.PER_LAYER if name in passes[0].layers}
        values.update(("traced." + name, typical(passes, name)) for name in TIMINGS)
        values["machine.reference_s"] = reference_s
        units = tracing.PER_LAYER
    else:
        values = {name: typical(passes, name) for name in TIMINGS}
        values["setup_s"] = statistics.median(setup_times)
        values["degree_at_target"] = degree_at_target(passes[0])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END
    # on SCALED_WORKLOADS every time taken among the passes is reported at
    # the nominal machine speed (see speed.py); the set-up probes run before
    # and after the passes
    raw = dict(values)
    scale = speed.REF_NOMINAL_S / reference_s if workload in SCALED_WORKLOADS else 1.0
    for name, unit in units:
        if unit == "s" and name not in ("setup_s", "machine.reference_s"):
            values[name] *= scale
    errors = [e for p in passes for e in p.errors]
    result = {
        "correct": not found,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    report(workload, seed, traced, passes, result, raw, reference_s, scale, found, errors)
    return 0 if result["correct"] else 1


def report(workload, seed, traced, passes, result, raw, reference_s, scale, found, errors):
    """Print the metrics, scaled and as measured, with the JSON result as the
    last line, and keep the details (environment, per-case finals, per-pass
    times as measured) in OUT_DIR."""
    env = environment()
    print("env: python %(python)s, numpy %(numpy)s, BLAS %(blas)s, BLAS threads "
          "%(blas_threads)d, %(cpus)d cpus" % env)
    print("workload %s seed %d%s: %d passes, %d operations attempted, %d failed"
          % (workload, seed, " (traced)" if traced else "", len(passes),
             result["attempted"], result["failed"]))
    print("reference fit: median %.6g s against %.6g s nominal; timings scaled by %.6g; "
          "metric, value reported, value as measured"
          % (reference_s, speed.REF_NOMINAL_S, scale))
    for name, m in result["metrics"].items():
        print("  %-40s %14.6g %14.6g %s" % (name, m["value"], raw[name], m["unit"]))
    for line in found:
        print("CHECK FAILED: " + line, file=sys.stderr)
    for line in errors:
        print("OPERATION FAILED: " + line, file=sys.stderr)
    os.makedirs(OUT_DIR, exist_ok=True)
    cases = [{"case": f.case.name, "algo": f.algo, "final_degree": f.trace.records[-1].degree,
              "final_l2": f.trace.records[-1].l2_norm,
              "degree_at_target": checks.degree_at_target(f.trace, f.case.target)}
             for f in passes[0].fits]
    per_pass = [dict(((timing, typical([p], timing)) for timing in TIMINGS),
                     reference_s=statistics.median(p.reference)) for p in passes]
    path = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (workload, seed, int(traced)))
    with open(path, "w") as fh:
        json.dump({"env": env, "workload": workload, "seed": seed, "passes": per_pass,
                   "reference_s": reference_s, "measured": raw, "problems": found,
                   "errors": errors, "cases": cases, "result": result},
                  fh, indent=1)
    print(json.dumps(result))
