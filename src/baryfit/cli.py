"""Command-line front end.

Subcommands: sample (write built-in test data), fit (AAA or NL-AAA), eval,
realize, gradcheck, and compare. Progress goes to stderr (level picked by
BARYFIT_LOG: quiet, info, or debug); results go to files, plus a one-line
summary on stdout where a command has one. Exit codes: 0 success, 2 usage or
data error, 3 numerical failure.
"""

import argparse
import logging
import os
import sys

import numpy as np

from .aaa import FitConfig, aaa_fit
from .core import NumericalError, SampleSet, _check_integer, realize
from .data import (
    BUILTIN_FUNCTIONS,
    SAMPLE_HEADER,
    _fmt,
    load_model,
    load_samples,
    read_complex_rows,
    sample_builtin,
    save_model,
    save_realization,
    save_samples,
    save_trace,
    write_complex_rows,
)
from .gradients import (
    error_levy,
    error_nonlinear,
    error_sk_step,
    error_wf_step,
    finite_difference_gradient,
    grad_levy,
    grad_nonlinear,
    grad_sk_step,
    grad_wf_step,
)
from .nlaaa import FALLBACK_MODES, NlaaaConfig, nlaaa_fit
from .refine import RefineConfig

log = logging.getLogger("baryfit")

_LOG_LEVELS = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
_HANDLER = logging.StreamHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(message)s"))


def _configure_logging():
    """The level from BARYFIT_LOG and the one handler on sys.stderr, set on
    every call, as a process may run main() more than once."""
    name = os.environ.get("BARYFIT_LOG", "info").strip().lower()
    log.setLevel(_LOG_LEVELS.get(name, logging.INFO))
    _HANDLER.stream = sys.stderr
    if _HANDLER not in log.handlers:
        log.addHandler(_HANDLER)
    if name not in _LOG_LEVELS:
        log.warning("BARYFIT_LOG=%r not in %s; using info", name, sorted(_LOG_LEVELS))


def cmd_sample(args):
    samples = sample_builtin(args.fn, args.count)
    save_samples(args.out, samples)
    log.info("wrote %d samples of %s to %s", samples.size, args.fn, args.out)
    return 0


def _given(**options):
    """The options whose flag was given; the configs supply the defaults."""
    return {name: value for name, value in options.items() if value is not None}


def cmd_fit(args):
    samples = load_samples(args.data)
    nlaaa_only = {
        "--pmax": args.pmax,
        "--tol-sk": args.tol_sk,
        "--tol-wf": args.tol_wf,
        "--fallback": args.fallback,
        "--seed": args.seed,
    }
    if args.algo == "aaa":
        stray = sorted(name for name, value in nlaaa_only.items() if value is not None)
        if stray:
            raise ValueError("only valid with --algo nlaaa: %s" % ", ".join(stray))
        cfg = FitConfig(max_degree=args.max_degree, **_given(tol=args.tol))
        model, trace = aaa_fit(samples, cfg)
    else:
        refine = RefineConfig(**_given(p_max=args.pmax, tol_sk=args.tol_sk, tol_wf=args.tol_wf))
        cfg = NlaaaConfig(
            max_degree=args.max_degree,
            refine=refine,
            **_given(tol=args.tol, fallback_mode=args.fallback, rng_seed=args.seed),
        )
        model, trace = nlaaa_fit(samples, cfg)
    if args.model:
        save_model(args.model, model)
    if args.trace:
        save_trace(args.trace, trace)
    last = trace.records[-1]
    if trace.budget_exhausted:
        log.info("budget_exhausted: tolerance not reached within the degree budget")
    log.info("%s finished at degree %d after %d iterations", args.algo, last.degree, len(trace.records))
    print("degree=%d l2=%s linf=%s" % (last.degree, _fmt(last.l2_norm), _fmt(last.linf_norm)))
    return 0


def cmd_eval(args):
    model = load_model(args.model)
    points = read_complex_rows(args.points, [SAMPLE_HEADER[:2], SAMPLE_HEADER])[0][:, 0]
    write_complex_rows(sys.stdout, np.atleast_1d(model(points))[:, None])
    return 0


def cmd_realize(args):
    model = load_model(args.model)
    rom = realize(model)
    save_realization(args.out, rom)
    for probe in (0.0, 0.5, 1.5 + 0.5j, -2.25 + 1j, 3.75 - 2j):
        if np.any(model.supports == probe):
            continue
        try:
            via_rom = rom.transfer(probe)
            direct = model(probe)
        except NumericalError:
            continue
        log.info(
            "wrote order-%d realization to %s; transfer check at z=%s: %s (eval %s)",
            rom.order, args.out, probe, via_rom, direct,
        )
        return 0
    log.warning("wrote realization to %s, but found no probe point for a check", args.out)
    return 0


def cmd_gradcheck(args):
    samples = load_samples(args.data)
    k = args.k
    if not 2 <= k <= samples.size - 1:
        raise ValueError(
            "--k must be between 2 and M-1 = %d: with one support r is the "
            "constant h_1, so the true-error and WF-step gradients vanish and "
            "the check would compare rounding against rounding" % (samples.size - 1)
        )
    rng = np.random.default_rng(_check_integer(args.seed, "--seed", 0))
    chosen = rng.choice(samples.size, size=k, replace=False)
    mask = np.ones(samples.size, dtype=bool)
    mask[chosen] = False
    work = SampleSet(samples.points, samples.values, mask)
    supports = samples.points[chosen]
    interp_values = samples.values[chosen]

    def random_weights():
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)

    w = random_weights()
    w_prev = random_weights()
    comparisons = [
        ("nonlinear", grad_nonlinear(supports, interp_values, work, w),
         lambda v: error_nonlinear(supports, interp_values, work, v)),
        ("levy", grad_levy(supports, interp_values, work, w),
         lambda v: error_levy(supports, interp_values, work, v)),
        ("sk_step", grad_sk_step(supports, interp_values, work, w, w_prev),
         lambda v: error_sk_step(supports, interp_values, work, v, w_prev)),
        ("wf_step", grad_wf_step(supports, interp_values, work, w, w_prev),
         lambda v: error_wf_step(supports, interp_values, work, v, w_prev)),
    ]
    worst = 0.0
    for name, analytic, error_fn in comparisons:
        approx = finite_difference_gradient(error_fn, w)
        deviation = float(
            np.linalg.norm(analytic - approx) / max(np.linalg.norm(analytic), 1e-300)
        )
        log.debug("gradcheck %s: relative deviation %.3e", name, deviation)
        worst = max(worst, deviation)
    print("%.6e" % worst)
    if worst > 1e-5:
        log.error("gradient check failed: max relative deviation %.3e > 1e-5", worst)
        return 3
    return 0


def cmd_compare(args):
    samples = load_samples(args.data)
    tol = _given(tol=args.tol)
    _, aaa_trace = aaa_fit(samples, FitConfig(max_degree=args.max_degree, **tol))
    _, nlaaa_trace = nlaaa_fit(
        samples, NlaaaConfig(max_degree=args.max_degree, **tol, **_given(rng_seed=args.seed))
    )
    os.makedirs(args.out, exist_ok=True)
    save_trace(os.path.join(args.out, "aaa_trace.csv"), aaa_trace)
    save_trace(os.path.join(args.out, "nlaaa_trace.csv"), nlaaa_trace)
    a_recs = aaa_trace.records
    n_recs = nlaaa_trace.records
    table = []
    for i in range(max(len(a_recs), len(n_recs))):
        ra = a_recs[min(i, len(a_recs) - 1)]  # shorter run: final model persists
        rn = n_recs[min(i, len(n_recs) - 1)]
        table.append((i + 1, ra.l2_norm, rn.l2_norm, ra.linf_norm, rn.linf_norm))
    with open(os.path.join(args.out, "compare.csv"), "w", newline="") as f:
        np.savetxt(f, table, fmt=["%d"] + ["%.17g"] * 4, delimiter=",",
                   header="k,aaa_l2,nlaaa_l2,aaa_linf,nlaaa_linf", comments="")
    log.info(
        "compare finished: aaa l2=%.3e, nlaaa l2=%.3e over %d samples",
        a_recs[-1].l2_norm, n_recs[-1].l2_norm, samples.size,
    )
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="baryfit",
        description="Barycentric rational fitting: AAA and its nonlinear "
        "least-squares refinement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    tol_help = "raw active squared error stop (default %g)" % FitConfig.tol

    p = sub.add_parser("sample", help="write a built-in test function to a sample CSV")
    p.add_argument("--fn", required=True, choices=sorted(BUILTIN_FUNCTIONS))
    p.add_argument("--count", type=int, required=True, help="grid size on [-1, 1] (>= 2)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="fit a rational model to a sample CSV")
    p.add_argument("--algo", required=True, choices=["aaa", "nlaaa"])
    p.add_argument("--data", required=True)
    p.add_argument("--tol", type=float, help=tol_help)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--pmax", type=int,
                   help="nlaaa: refinement iteration cap (default %d)" % RefineConfig.p_max)
    p.add_argument("--tol-sk", type=float,
                   help="nlaaa: SK weight-change stop (default %g)" % RefineConfig.tol_sk)
    p.add_argument("--tol-wf", type=float,
                   help="nlaaa: WF weight-change stop (default %g)" % RefineConfig.tol_wf)
    p.add_argument("--fallback", choices=list(FALLBACK_MODES),
                   help="nlaaa: greedy mode after a fallback step (default %s)"
                   % NlaaaConfig.fallback_mode)
    p.add_argument("--seed", type=int, help="nlaaa: RNG seed (default %d)" % NlaaaConfig.rng_seed)
    p.add_argument("--model", help="write the fitted model JSON here")
    p.add_argument("--trace", help="write the per-iteration trace CSV here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="evaluate a model JSON at points from a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--points", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("realize", help="write the state-space realization of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory for E/A/b/c CSV files")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("gradcheck", help="compare analytic gradients against finite differences")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=int, required=True, help="number of random support points, 2 to M-1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("compare", help="run AAA and NL-AAA to the same budget")
    p.add_argument("--data", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tol", type=float, help=tol_help)
    p.add_argument("--seed", type=int,
                   help="NL-AAA RNG seed (default %d)" % NlaaaConfig.rng_seed)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    _configure_logging()
    try:
        return args.func(args)
    except NumericalError as exc:
        log.error("%s", exc)
        return 3
    except (ValueError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
