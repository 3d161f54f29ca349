"""Versatile influence functions for data attribution under non-decomposable
losses: Cox partial likelihood, contrastive node embeddings, and ListMLE,
with exact and iterative inverse-Hessian solvers plus a brute-force
leave-one-out oracle for validation."""

# set before the submodule imports, which read it during package initialization
__version__ = "0.1.0"

from .attributor import (
    Attribution,
    DropOne,
    HessianContext,
    HessianSolver,
    PointMass,
    attribute_target,
    classical_if,
    finite_difference_if,
)
from .coxloss import CoxModel, SurvivalDataset, reid_if, relative_risk_target
from .embedloss import EmbedModel, Graph, WalkParams, generate_walks, pair_loss_target
from .errors import VifError
from .harness import (
    ExperimentReport,
    LogisticModel,
    brute_force_repeat,
    compare,
    logistic_fixture,
    loo_retrain,
    synth_graph,
    synth_ranking,
    synth_survival,
)
from .losscore import (
    LossModel,
    PresenceVector,
    TargetFunction,
    TrainConfig,
    check_gradient,
    check_hessian,
    train,
    train_drop_one,
)
from .ltrloss import ListMLEModel, RankingDataset, query_loss_target
from .numkit import SpdFactor, cg_solve, factor_spd, lissa_solve, pearson, solve_spd

__all__ = [
    "Attribution",
    "CoxModel",
    "DropOne",
    "EmbedModel",
    "ExperimentReport",
    "Graph",
    "HessianContext",
    "HessianSolver",
    "ListMLEModel",
    "LogisticModel",
    "LossModel",
    "PointMass",
    "PresenceVector",
    "RankingDataset",
    "SpdFactor",
    "SurvivalDataset",
    "TargetFunction",
    "TrainConfig",
    "VifError",
    "WalkParams",
    "attribute_target",
    "brute_force_repeat",
    "cg_solve",
    "check_gradient",
    "check_hessian",
    "classical_if",
    "compare",
    "factor_spd",
    "finite_difference_if",
    "generate_walks",
    "lissa_solve",
    "logistic_fixture",
    "loo_retrain",
    "pair_loss_target",
    "pearson",
    "query_loss_target",
    "reid_if",
    "relative_risk_target",
    "solve_spd",
    "synth_graph",
    "synth_ranking",
    "synth_survival",
    "train",
    "train_drop_one",
]
