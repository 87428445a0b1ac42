"""Affine loop-nest scheduling and data allocation for distributed memory."""

from .algebra import integer_kernel_basis, rank
from .nest import LoopNest, load_nest
from .solver import SolverConfig
from .procedure import TransformPlan, WeightConfig, plan_from_doc, plan_to_doc, run_procedure
from .comm import comm_report, detect_broadcast, exchange_requirements


def __getattr__(name):
    # the validator is the only numpy user: import it on first use (PEP 562)
    if name in ("enumerate_domain", "validate"):
        from . import validation

        value = globals()[name] = getattr(validation, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "LoopNest",
    "SolverConfig",
    "TransformPlan",
    "WeightConfig",
    "comm_report",
    "detect_broadcast",
    "enumerate_domain",
    "exchange_requirements",
    "integer_kernel_basis",
    "load_nest",
    "plan_from_doc",
    "plan_to_doc",
    "rank",
    "run_procedure",
    "validate",
]
