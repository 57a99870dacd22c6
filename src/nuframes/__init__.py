"""Tight wavelet frames on the nonuniform translation set {0, r/N} + 2Z.

The package builds frame systems for L²(ℝ) from frequency-side ingredients
(a scaling function, a filter bank, optionally a positive scaling symbol),
validates the hypotheses those ingredients must satisfy, and verifies the
resulting Parseval frame identity numerically by two independent routes.
"""

from .analysis import (
    DirectLevelSum,
    FrameReport,
    FrequencyGrid,
    default_grid,
    lattice_sum_direct_detail,
    lattice_sum_parseval,
    level_profile,
    norm_sq,
    parseval_report,
    telescoping_residual,
)
from .errors import (
    BadIndicatorBounds,
    ExprSyntaxError,
    NegativeSqrt,
    SupportViolation,
    ThetaMissing,
    ThetaNotPositive,
    TruncationGuard,
    UepPreconditionFailed,
    UnknownIdentifier,
    ZeroScale,
)
from .lattice import TranslationSet
from .presets import PRESETS, load_setup_file, preset, preset_names, setup_from_dict
from .setups import (
    ConditionReport,
    GeneralSetup,
    OepReport,
    derive_generator,
    oep_check,
    oep_normalize,
    two_generator_setup,
    uep_residual,
    validate_setup,
)
from .signals import SignalSpec, catalog, hann_bump, indicator_signal
from .symfunc import FreqExpr, dilate_arg, evaluate, parse, render

__version__ = "0.1.0"

__all__ = [
    "BadIndicatorBounds",
    "ConditionReport",
    "DirectLevelSum",
    "ExprSyntaxError",
    "FrameReport",
    "FreqExpr",
    "FrequencyGrid",
    "GeneralSetup",
    "NegativeSqrt",
    "OepReport",
    "PRESETS",
    "SignalSpec",
    "SupportViolation",
    "ThetaMissing",
    "ThetaNotPositive",
    "TranslationSet",
    "TruncationGuard",
    "UepPreconditionFailed",
    "UnknownIdentifier",
    "ZeroScale",
    "catalog",
    "default_grid",
    "derive_generator",
    "dilate_arg",
    "evaluate",
    "hann_bump",
    "indicator_signal",
    "lattice_sum_direct_detail",
    "lattice_sum_parseval",
    "level_profile",
    "load_setup_file",
    "norm_sq",
    "oep_check",
    "oep_normalize",
    "parse",
    "parseval_report",
    "preset",
    "preset_names",
    "render",
    "setup_from_dict",
    "telescoping_residual",
    "two_generator_setup",
    "uep_residual",
    "validate_setup",
    "__version__",
]
