"""One record per scenario: all the `vif` command knows of a loss family.

A record holds its `synth` and `model` keys, each with its rule and
default, its `train` and `solver` defaults, its dataset file names and two
functions.  draw(section, seed, paths) writes a synthetic dataset and
returns the object count for synth_meta.json, or None.  build(section,
seed, paths, n_objects) returns the model and its targets; n_objects() is
the count synth recorded, or None, and only a record whose draw returns a
count calls it.  Each function imports its loss module when called.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import files
from .errors import ConfigError, DataError
from .numkit import is_int, is_real

# A section key is (rule, default), or (rule,) for a key without a default;
# a rule is a test of the value and the phrase its error quotes.
_SIZE = (lambda v: is_int(v) and v >= 1, "an int >= 1")
_PENALTY = (lambda v: is_real(v) and v >= 0, "a real >= 0")


class Scenario(NamedTuple):
    synth: dict  # synth section keys
    model: dict  # model section keys
    train: dict  # train section defaults; training recipes are tuned per loss
    solver: dict  # solver defaults over the common ones
    data_files: tuple  # dataset file names inside the run directory
    draw: Callable
    build: Callable

    def defaults(self) -> dict:
        """The synth, model, train and solver sections at their defaults."""
        synth, model = ({key: spec[1] for key, spec in keys.items() if len(spec) > 1}
                        for keys in (self.synth, self.model))
        return {"synth": synth, "model": model, "train": self.train, "solver": self.solver}


def _held_out(path: str, fits: bool, why: str):
    """Refuse a held-out table that does not fit the training data."""
    if not fits:
        raise DataError(f"{path}: {why}")


def _draw_cox(s: dict, seed: int, paths: list) -> None:
    from .coxloss import SurvivalDataset
    from .synth import synth_survival

    # alternating-sign, decaying planted coefficients; deterministic in d
    theta_star = np.asarray(s.get("theta_star", [(-1.0) ** j / (1.0 + j) for j in range(s["d"])]))
    full = synth_survival(n=s["n"] + s["n_test"], d=s["d"], theta_star=theta_star,
                          censor_rate=s["censor_rate"], seed=seed)
    for path, rows in zip(paths, (slice(None, s["n"]), slice(s["n"], None))):
        part = SurvivalDataset(x=full.x[rows], y=full.y[rows], delta=full.delta[rows])
        files.write_survival(path, part)


def _build_cox(m: dict, seed: int, paths: list, n_objects):
    from .coxloss import CoxModel, relative_risk_target

    data, test = files.read_survival(paths[0]), files.read_survival(paths[1])
    _held_out(paths[1], test.d == data.d, f"{test.d} features, training data has {data.d}")
    return CoxModel(data), [relative_risk_target(row) for row in test.x]


def _draw_ltr(s: dict, seed: int, paths: list) -> int:
    from .ltrloss import RankingDataset
    from .synth import synth_ranking

    m = s["m"]
    full = synth_ranking(m=m + s["n_test"], n=s["n"], k=s["k"], p=s["p"], seed=seed)
    for (qpath, lpath), rows in zip((paths[:2], paths[2:]), (slice(None, m), slice(m, None))):
        part = RankingDataset(features=full.features[rows], rel_lists=full.rel_lists[rows],
                              n_items=s["n"])
        files.write_ranking(qpath, lpath, part)
    return s["n"]


def _build_ltr(m: dict, seed: int, paths: list, n_objects):
    from .ltrloss import ListMLEModel, query_loss_target

    data = files.read_ranking(paths[0], paths[1], n_objects())
    # an item of labels_test.csv outside the training items is a DataError
    test = files.read_ranking(paths[2], paths[3], data.n_items)
    _held_out(paths[2], test.p == data.p, f"{test.p} features, training data has {data.p}")
    model = ListMLEModel(data, l2=m["l2"])
    targets = zip(test.features, test.rel_lists)
    return model, [query_loss_target(model, x, lst) for x, lst in targets]


def _draw_embed(s: dict, seed: int, paths: list) -> int:
    from .synth import synth_graph

    g = synth_graph(n=s.get("n"), edge_prob=s.get("edge_prob"), seed=seed, preset=s.get("preset"))
    if g.edges.shape[0] == 0:  # `train` would refuse the empty edges.txt
        raise ConfigError(f"the graph drawn with n={s.get('n')}, edge_prob={s.get('edge_prob')} "
                          f"and seed {seed} has no edges; raise n or edge_prob, or change the seed")
    files.write_edges(paths[0], g)
    return g.n


def _build_embed(m: dict, seed: int, paths: list, n_objects):
    from .embedloss import EmbedModel, WalkParams, pair_loss_target

    graph = files.read_edges(paths[0], n_objects())
    walks = WalkParams(walks_per_node=m["walks_per_node"], walk_length=m["walk_length"],
                       window=m["window"], seed=seed)
    model = EmbedModel(graph, k=m["k"], walk_params=walks)
    return model, [pair_loss_target(model, int(u), int(v)) for u, v in graph.edges]


def _draw_logistic(s: dict, seed: int, paths: list) -> None:
    from .logisticloss import logistic_fixture

    full = logistic_fixture(s["n"] + s["n_test"], s["d"], seed)
    labels = full.labels.astype(np.int64)
    for path, rows in zip(paths, (slice(None, s["n"]), slice(s["n"], None))):
        files.write_points(path, full.x[rows], labels[rows])


def _build_logistic(m: dict, seed: int, paths: list, n_objects):
    from .logisticloss import LogisticModel
    from .losscore import LossTarget

    (x, labels), (xt, lt) = files.read_points(paths[0]), files.read_points(paths[1])
    d, dt = x.shape[1], xt.shape[1]
    _held_out(paths[1], dt == d, f"{dt} features, training data has {d}")
    model = LogisticModel(x, labels, reg=m["reg"])
    return model, [LossTarget(LogisticModel(xt[i : i + 1], lt[i : i + 1], reg=0.0))
                   for i in range(xt.shape[0])]


SCENARIOS = {
    "cox": Scenario(
        synth={"n": (_SIZE, 200), "d": (_SIZE, 3),
               "censor_rate": ((lambda v: is_real(v) and 0 <= v < 1, "a real in [0, 1)"), 0.2),
               "n_test": (_SIZE, 50),
               "theta_star": ((lambda v: isinstance(v, list) and all(map(is_real, v)),
                               "a list of reals"),)},
        model={},
        train={"optimizer": "adam", "learning_rate": 0.01, "epochs": 200},
        solver={},
        data_files=("survival.csv", "survival_test.csv"),
        draw=_draw_cox,
        build=_build_cox,
    ),
    "embed": Scenario(
        synth={"preset": ((lambda v: v in (None, "karate"), 'null or "karate"'), "karate"),
               "n": (_SIZE,),
               "edge_prob": ((lambda v: is_real(v) and 0 <= v <= 1, "a real in [0, 1]"),)},
        model={"k": (_SIZE, 2), "walks_per_node": (_SIZE, 1000), "walk_length": (_SIZE, 6),
               "window": (_SIZE, 3)},
        train={"optimizer": "adam", "learning_rate": 0.05, "epochs": 300},
        # non-convex loss: the inverse-Hessian solve needs damping
        solver={"damping": 0.01},
        data_files=("edges.txt",),
        draw=_draw_embed,
        build=_build_embed,
    ),
    "ltr": Scenario(
        synth={"m": (_SIZE, 200), "n": (_SIZE, 30), "k": (_SIZE, 5), "p": (_SIZE, 8),
               "n_test": (_SIZE, 50)},
        model={"l2": (_PENALTY, 5e-4)},
        train={"optimizer": "adam", "learning_rate": 0.001, "epochs": 100, "batch_size": 128},
        solver={},
        data_files=("queries.csv", "labels.csv", "queries_test.csv", "labels_test.csv"),
        draw=_draw_ltr,
        build=_build_ltr,
    ),
    "logistic": Scenario(
        synth={"n": (_SIZE, 200), "d": (_SIZE, 5), "n_test": (_SIZE, 20)},
        model={"reg": (_PENALTY, 1e-3)},
        train={"optimizer": "newton", "epochs": 100},
        solver={},
        data_files=("points.csv", "points_test.csv"),
        draw=_draw_logistic,
        build=_build_logistic,
    ),
}
