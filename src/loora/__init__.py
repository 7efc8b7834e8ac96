"""Design-based ATE estimation with leave-one-out ridge regression adjustment."""

from .design import CompleteDesign, SimpleDesign, draw, enumerate_assignments
from .estimators import LambdaRule, Method
from .inference import EstimateReport, normal_quantile, plan_estimate
from .oracle import (
    Population,
    adjusted_ht_variance,
    dm_variance,
    enumeration_moments,
    ht_variance,
    lin_asymptotic_variance,
    loora_dm_variance,
    loora_ht_variance,
)
from .simulation import SimulationReport, StudyConfig, run_study, synth_population

__version__ = "0.1.0"

__all__ = [
    "CompleteDesign",
    "EstimateReport",
    "LambdaRule",
    "Method",
    "Population",
    "SimpleDesign",
    "SimulationReport",
    "StudyConfig",
    "adjusted_ht_variance",
    "dm_variance",
    "draw",
    "enumerate_assignments",
    "enumeration_moments",
    "ht_variance",
    "lin_asymptotic_variance",
    "loora_dm_variance",
    "loora_ht_variance",
    "normal_quantile",
    "plan_estimate",
    "run_study",
    "synth_population",
    "__version__",
]
