"""Participatory-sensing data toolkit: behavior-model fitting, synthetic
trace simulation, grouping of reports into events, and real-vs-simulated
validation."""

from ._kernels import BACKEND as KERNEL_BACKEND
from .distributions import LogNormalParams, Pmf, RandomSource
from .errors import PsSimError
from .simulator import Trace, simulate
from .types import DayBin, SimConfig, TemporalBin

__version__ = "0.1.0"

__all__ = [
    "DayBin",
    "KERNEL_BACKEND",
    "LogNormalParams",
    "Pmf",
    "PsSimError",
    "RandomSource",
    "SimConfig",
    "TemporalBin",
    "Trace",
    "simulate",
    "__version__",
]
