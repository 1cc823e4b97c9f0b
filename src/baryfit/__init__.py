"""Barycentric rational approximation on sample data.

The package fits rational functions in barycentric form with the adaptive
greedy interpolation algorithm (AAA) and with a nonlinear least-squares
variant that refines the weights at each degree, verifies its stationary
points through complex-derivative identities, and converts fitted models
into descriptor state-space form.

The names below are the fitting front end; the building blocks (the
LevySystem, the SK/WF iterations, the gradients, the file loaders) are
imported from their modules.
"""

from . import aaa, core, data, gradients, linalg, nlaaa, refine
from .aaa import FitConfig, FitTrace, TraceRecord, aaa_fit
from .core import RationalModel, SampleSet, realize
from .data import MetricPair, metrics, sample_builtin, save_model, save_trace
from .nlaaa import NlaaaConfig, nlaaa_fit

__version__ = "0.1.0"

__all__ = [
    "FitConfig",
    "FitTrace",
    "MetricPair",
    "NlaaaConfig",
    "RationalModel",
    "SampleSet",
    "TraceRecord",
    "aaa_fit",
    "metrics",
    "nlaaa_fit",
    "realize",
    "sample_builtin",
    "save_model",
    "save_trace",
]
