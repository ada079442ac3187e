"""uqgate: variance-gated uncertainty decomposition for classifier ensembles.

Computes per-sample predictive uncertainty from stacks of ensemble member
predictions, splits it into aleatoric and epistemic parts (standard and
variance-gated), scores class-margin uncertainty with abstention rules, and
diagnoses ensemble diversity collapse. Ships a bit-exact binary container
for prediction tensors and a CLI for reproducible analyses.

Names resolve lazily (PEP 562): ``import uqgate`` loads no numpy, and the
first use of a public name or submodule imports the module that defines it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "calibration": ("TemperatureFit", "apply_temperature", "fit_per_member", "fit_temperature",
                    "nll"),
    "diagnostics": ("CoverageRiskCurve", "DiversitySeries", "auroc", "collapse_epoch",
                    "coverage_risk", "diversity", "ece"),
    "ept": ("EptError", "EptFormatError", "EptManifest", "EptValidationError",
            "PredictionTensor", "make_tensor", "read_ept", "read_ept_file", "read_labels",
            "read_labels_file", "write_ept", "write_ept_file"),
    "gating": ("Decomposition", "GateConfig", "GatedEnsemble", "gate", "gated_decomposition",
               "gated_members"),
    "margin": ("ABSENT", "PRESENT", "UNCERTAIN", "MulticlassDecisions", "decide_multiclass",
               "decide_multilabel", "gmu_multiclass", "gmu_multilabel", "top2"),
    "measures": ("epce", "epjs", "epkl", "standard_decomposition"),
    "stats": ("ClassStats", "Ensemble", "entropy", "softmax", "softmax_tensor"),
    "synth": ("SynthConfig", "generate", "generate_collapse_series"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_DEFINED_IN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_DEFINED_IN)


def __getattr__(name):
    if name in _DEFINED_IN:
        value = getattr(importlib.import_module(f".{_DEFINED_IN[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
