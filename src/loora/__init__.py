"""Design-based ATE estimation with leave-one-out ridge regression adjustment.

Each public name is imported from its module on first access (PEP 562), so
``import loora`` loads none of the modules behind them and a command loads
only the code it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_MODULE_OF = {
    "CompleteDesign": "design",
    "EstimateReport": "inference",
    "LambdaRule": "estimators",
    "Method": "estimators",
    "Population": "oracle",
    "SimpleDesign": "design",
    "SimulationReport": "simulation",
    "StudyConfig": "simulation",
    "adjusted_ht_variance": "oracle",
    "dm_variance": "oracle",
    "draw": "design",
    "enumerate_assignments": "design",
    "enumeration_moments": "simulation",
    "ht_variance": "oracle",
    "lin_asymptotic_variance": "oracle",
    "loora_dm_variance": "oracle",
    "loora_ht_variance": "oracle",
    "normal_quantile": "inference",
    "plan_estimate": "inference",
    "run_study": "simulation",
    "synth_population": "simulation",
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
