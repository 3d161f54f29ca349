"""Versatile influence functions for data attribution under non-decomposable
losses: Cox partial likelihood, contrastive node embeddings, and ListMLE,
with exact and iterative inverse-Hessian solvers plus a brute-force
leave-one-out oracle for validation.

The public names resolve on first access (PEP 562), so importing the
package, or one of its modules such as `vifkit.cli`, loads only the modules
that are used.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOME = {
    **dict.fromkeys(
        (
            "Attribution",
            "DropOne",
            "HessianContext",
            "HessianSolver",
            "PointMass",
            "attribute_target",
            "classical_if",
            "finite_difference_if",
        ),
        "attributor",
    ),
    **dict.fromkeys(
        ("CoxModel", "SurvivalDataset", "reid_if", "relative_risk_target"), "coxloss"
    ),
    **dict.fromkeys(
        ("EmbedModel", "Graph", "WalkParams", "generate_walks", "pair_loss_target"),
        "embedloss",
    ),
    "VifError": "errors",
    **dict.fromkeys(
        (
            "ExperimentReport",
            "LogisticModel",
            "brute_force_repeat",
            "compare",
            "logistic_fixture",
            "loo_retrain",
            "synth_graph",
            "synth_ranking",
            "synth_survival",
        ),
        "harness",
    ),
    **dict.fromkeys(
        (
            "LossModel",
            "PresenceVector",
            "TargetFunction",
            "TrainConfig",
            "check_gradient",
            "check_hessian",
            "train",
            "train_drop_one",
        ),
        "losscore",
    ),
    **dict.fromkeys(("ListMLEModel", "RankingDataset", "query_loss_target"), "ltrloss"),
    **dict.fromkeys(
        ("SpdFactor", "cg_solve", "factor_spd", "lissa_solve", "pearson", "solve_spd"),
        "numkit",
    ),
}
_SUBMODULES = frozenset(_HOME.values())

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
