"""uqgate: variance-gated uncertainty decomposition for classifier ensembles.

Computes per-sample predictive uncertainty from stacks of ensemble member
predictions, splits it into aleatoric and epistemic parts (standard and
variance-gated), scores class-margin uncertainty with abstention rules, and
diagnoses ensemble diversity collapse. Ships a bit-exact binary container
for prediction tensors and a CLI for reproducible analyses.
"""

from .calibration import TemperatureFit, apply_temperature, fit_per_member, fit_temperature, nll
from .diagnostics import (
    CoverageRiskCurve,
    DiversitySeries,
    auroc,
    collapse_epoch,
    coverage_risk,
    diversity,
    ece,
)
from .ept import (
    EptError,
    EptFormatError,
    EptManifest,
    EptValidationError,
    PredictionTensor,
    make_tensor,
    read_ept,
    read_ept_file,
    read_labels,
    read_labels_file,
    write_ept,
    write_ept_file,
)
from .gating import Decomposition, GateConfig, GatedEnsemble, gate, gated_decomposition, gated_members
from .margin import (
    ABSENT,
    PRESENT,
    UNCERTAIN,
    MulticlassDecisions,
    decide_multiclass,
    decide_multilabel,
    gmu_multiclass,
    gmu_multilabel,
    top2,
)
from .measures import epce, epjs, epkl, standard_decomposition
from .stats import ClassStats, Ensemble, entropy, softmax, softmax_tensor
from .synth import SynthConfig, generate, generate_collapse_series

__version__ = "0.1.0"

__all__ = [
    "ABSENT",
    "ClassStats",
    "CoverageRiskCurve",
    "Decomposition",
    "DiversitySeries",
    "Ensemble",
    "EptError",
    "EptFormatError",
    "EptManifest",
    "EptValidationError",
    "GateConfig",
    "GatedEnsemble",
    "MulticlassDecisions",
    "PRESENT",
    "PredictionTensor",
    "SynthConfig",
    "TemperatureFit",
    "UNCERTAIN",
    "apply_temperature",
    "auroc",
    "collapse_epoch",
    "coverage_risk",
    "decide_multiclass",
    "decide_multilabel",
    "diversity",
    "ece",
    "entropy",
    "epce",
    "epjs",
    "epkl",
    "fit_per_member",
    "fit_temperature",
    "gate",
    "gated_decomposition",
    "gated_members",
    "generate",
    "generate_collapse_series",
    "gmu_multiclass",
    "gmu_multilabel",
    "make_tensor",
    "nll",
    "read_ept",
    "read_ept_file",
    "read_labels",
    "read_labels_file",
    "softmax",
    "softmax_tensor",
    "standard_decomposition",
    "top2",
    "write_ept",
    "write_ept_file",
]
