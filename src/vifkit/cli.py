"""Command-line front end for reproducible attribution runs.

Subcommands: synth, train, attribute, loo, compare, check.  A run lives in
one output directory; each command reads the artifacts of the previous stage
from there and refuses stale mixtures via a config hash.  Exit codes: 1 for
config errors, 2 for data errors, 3 for numerical failures, with a
machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import itertools
import json
import logging
import os
import sys
import time
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from .attributor import HessianSolver, attribute_target
from .coxloss import CoxModel, SurvivalDataset, relative_risk_target
from .embedloss import EmbedModel, Graph, WalkParams, pair_loss_target
from .errors import ConfigError, DataError, NumericalError, VifError
from .harness import (
    LogisticModel,
    LogLossTarget,
    compare,
    logistic_fixture,
    loo_retrain,
    synth_graph,
    synth_ranking,
    synth_survival,
)
from .losscore import PresenceVector, TrainConfig, TrainResult, check_gradient, check_hessian, train
from .ltrloss import ListMLEModel, RankingDataset, query_loss_target
from .numkit import is_int, is_real

log = logging.getLogger("vifkit.cli")

CHECKPOINT_NAME = "checkpoint.bin"
INFLUENCES_NAME = "influences.csv"
LOO_NAME = "loo.csv"
SUMMARY_NAME = "summary.json"
CSV_CHUNK_ROWS = 8192

# Per-scenario defaults; a config file overrides these, flags override both.
# Training recipes are tuned per loss family.
SCENARIO_DEFAULTS = {
    "cox": {
        "synth": {"n": 200, "d": 3, "censor_rate": 0.2, "n_test": 50},
        "train": {"optimizer": "adam", "learning_rate": 0.01, "epochs": 200},
        "model": {},
    },
    "embed": {
        "synth": {"preset": "karate"},
        "model": {"k": 2, "walks_per_node": 1000, "walk_length": 6, "window": 3},
        "train": {"optimizer": "adam", "learning_rate": 0.05, "epochs": 300},
        # non-convex loss: the inverse-Hessian solve needs damping
        "solver": {"damping": 0.01},
    },
    "ltr": {
        "synth": {"m": 200, "n": 30, "k": 5, "p": 8, "n_test": 50},
        "model": {"l2": 5e-4},
        "train": {
            "optimizer": "adam",
            "learning_rate": 0.001,
            "epochs": 100,
            "batch_size": 128,
        },
    },
    "logistic": {
        "synth": {"n": 200, "d": 5, "n_test": 20},
        "model": {"reg": 1e-3},
        "train": {"optimizer": "newton", "epochs": 100},
    },
}
COMMON_DEFAULTS = {
    "solver": {"strategy": "explicit", "damping": 0.0},
    "objects": "all",
    "jobs": 1,
}

# Keys that identify the experiment.  Solver settings change the estimate,
# not the experiment, and out/jobs are pure plumbing; none of them belong in
# the hash that guards attribute/loo pairing.
HASHED_KEYS = ("scenario", "seed", "synth", "data", "model", "train", "objects")


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_config(args, need_out: bool = True) -> dict:
    """Effective run config with precedence flags > file > defaults."""
    file_cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: top level must be a JSON object")
    scenario = file_cfg.get("scenario")
    if scenario not in SCENARIO_DEFAULTS:
        raise ConfigError(
            f"scenario must be one of {sorted(SCENARIO_DEFAULTS)}, got {scenario!r}"
        )
    cfg = _deep_merge(COMMON_DEFAULTS, SCENARIO_DEFAULTS[scenario])
    cfg = _deep_merge(cfg, file_cfg)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "solver", None) is not None:
        cfg["solver"]["strategy"] = args.solver
    if getattr(args, "damping", None) is not None:
        cfg["solver"]["damping"] = args.damping
    if getattr(args, "jobs", None) is not None:
        cfg["jobs"] = args.jobs
    if getattr(args, "out", None) is not None:
        cfg["out"] = args.out
    if "seed" not in cfg:
        raise ConfigError("seed is required (config field or --seed)")
    if not is_int(cfg["seed"]):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    if not is_int(cfg["jobs"]) or cfg["jobs"] < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {cfg['jobs']!r}")
    if need_out and "out" not in cfg:
        raise ConfigError("output directory is required (config field or --out)")
    return cfg


def config_hash(cfg: dict) -> str:
    subset = {k: cfg[k] for k in HASHED_KEYS if k in cfg}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _out_dir(cfg: dict) -> str:
    path = cfg["out"]
    os.makedirs(path, exist_ok=True)
    return path


def _train_config(cfg: dict, model) -> TrainConfig:
    t = cfg["train"]
    known = {"optimizer", "learning_rate", "epochs", "batch_size", "grad_tol"}
    extra = set(t) - known
    if extra:
        raise ConfigError(f"unknown train settings: {sorted(extra)}")
    try:
        tc = TrainConfig(seed=cfg["seed"], **t)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad train config: {exc}") from None
    if tc.batch_size is not None and not model.supports_term_gradients:
        raise ConfigError(f"train.batch_size: {type(model).__name__} has no per-term gradients")
    return tc


_SIZE = (lambda v: is_int(v) and v >= 1, "an int >= 1")
_PENALTY = (lambda v: is_real(v) and v >= 0, "a real >= 0")

# The keys each scenario accepts in its synth and model sections, with the
# rule every value must meet.
_SECTION_RULES = {
    "synth": {
        "cox": {
            **dict.fromkeys(("n", "d", "n_test"), _SIZE),
            "censor_rate": (lambda v: is_real(v) and 0 <= v < 1, "a real in [0, 1)"),
            "theta_star": (
                lambda v: isinstance(v, list) and all(map(is_real, v)),
                "a list of reals",
            ),
        },
        "ltr": dict.fromkeys(("m", "n", "k", "p", "n_test"), _SIZE),
        "embed": {
            "preset": (lambda v: v in (None, "karate"), 'null or "karate"'),
            "n": _SIZE,
            "edge_prob": (lambda v: is_real(v) and 0 <= v <= 1, "a real in [0, 1]"),
        },
        "logistic": dict.fromkeys(("n", "d", "n_test"), _SIZE),
    },
    "model": {
        "cox": {},
        "ltr": {"l2": _PENALTY},
        "embed": dict.fromkeys(("k", "walks_per_node", "walk_length", "window"), _SIZE),
        "logistic": {"reg": _PENALTY},
    },
}


def _section(cfg: dict, name: str) -> dict:
    """The synth or model section, checked against the scenario's rules."""
    section, rules = cfg[name], _SECTION_RULES[name][cfg["scenario"]]
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    extra = set(section) - set(rules)
    if extra:
        raise ConfigError(f"unknown {name} settings: {sorted(extra)}")
    for key, val in section.items():
        ok, rule = rules[key]
        if not ok(val):
            raise ConfigError(f"{name}.{key} must be {rule}, got {val!r}")
    return section


def _solver(cfg: dict) -> HessianSolver:
    try:
        return HessianSolver(**cfg["solver"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad solver config: {exc}") from None


# Per-scenario dataset filenames inside the run directory.
_FILES = {
    "cox": ("survival.csv", "survival_test.csv"),
    "ltr": ("queries.csv", "labels.csv", "queries_test.csv", "labels_test.csv"),
    "embed": ("edges.txt",),
    "logistic": ("points.csv", "points_test.csv"),
}


def _data_paths(cfg: dict) -> list[str]:
    """Paths the scenario reads: explicit `data` entries or synth outputs."""
    names = _FILES[cfg["scenario"]]
    data = cfg.get("data")
    if data is not None:
        try:
            return [data[os.path.splitext(n)[0]] for n in names]
        except KeyError as exc:
            raise ConfigError(f"data section missing entry {exc}") from None
    if "out" not in cfg:
        raise ConfigError("no data paths configured and no run directory to read from")
    return [os.path.join(cfg["out"], n) for n in names]


def _require_files(paths: list[str]):
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DataError(
            f"missing dataset files {missing}; run `vif synth` or set data paths"
        )


def _write_records_csv(path: str, **columns):
    """Write a CSV table from equal-length named columns, in row chunks.

    The header is the column names.  Integer columns are written as
    integers, float columns as repr(float), the shortest round-trip decimal;
    a NaN score, and every cell of a column given as None, is an empty cell.
    """
    n_rows = len(next(col for col in columns.values() if col is not None))

    def cells(col, rows):
        if col is None:
            return itertools.repeat("")
        values = col[rows].tolist()
        if col.dtype.kind in "iu":
            return map(str, values)
        return [repr(v) if v == v else "" for v in values]

    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, n_rows, CSV_CHUNK_ROWS):
            rows = slice(lo, lo + CSV_CHUNK_ROWS)
            parts = [cells(col, rows) for col in columns.values()]
            fh.write("\n".join(map(",".join, zip(*parts))) + "\n")


def _read_table(path: str, lead: tuple) -> tuple[list, np.ndarray]:
    """Header and (rows x columns) float cells of a table _write_records_csv wrote.

    The header must start with the column names in lead and every row must
    have one number per header column; an empty cell reads as NaN.
    """
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            body = fh.read()
    except FileNotFoundError:
        raise DataError(f"missing {path}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not a text file") from None
    if tuple(header[: len(lead)]) != lead:
        raise DataError(f"{path}: expected a header starting {','.join(lead)}")
    if not body.strip():
        raise DataError(f"{path}: no data rows")
    try:
        cells = np.loadtxt(
            io.StringIO(body), delimiter=",", comments=None, ndmin=2,
            converters=lambda v: float(v) if v else np.nan,
        )
    except ValueError as exc:  # a ragged row or a non-numeric cell
        raise DataError(f"{path}: {exc}") from None
    if cells.shape[1] != len(header):
        raise DataError(f"{path}: {cells.shape[1]} cells per row, {len(header)} header columns")
    return header, cells


def _ids(path: str, column: np.ndarray) -> np.ndarray:
    """An id column as int64; every value must be a non-negative integer."""
    # 2**53 bounds the integers a float64 cell holds exactly
    if not np.all((column >= 0) & (column < 2.0**53) & (column == np.floor(column))):
        raise DataError(f"{path}: an id is not a non-negative integer")
    return column.astype(np.int64)


def _x_columns(x: np.ndarray) -> dict:
    """Feature columns x1..xd for the table writer, one per column of x."""
    return {f"x{j + 1}": x[:, j] for j in range(x.shape[1])}


def _read_survival(path: str) -> SurvivalDataset:
    _, cells = _read_table(path, ("y", "delta", "x1"))
    return SurvivalDataset(x=cells[:, 2:], y=cells[:, 0], delta=cells[:, 1])


def _read_points(path: str):
    """Features and labels of a label,x1,...,xd table."""
    _, cells = _read_table(path, ("label", "x1"))
    return cells[:, 1:], cells[:, 0]


def _write_ranking_csv(qpath: str, lpath: str, data: RankingDataset):
    _write_records_csv(qpath, query_id=np.arange(data.m), **_x_columns(data.features))
    lengths = [len(lst) for lst in data.rel_lists]
    _write_records_csv(
        lpath,
        query_id=np.repeat(np.arange(data.m), lengths),
        rank=np.concatenate([np.arange(k) for k in lengths]),
        item_id=np.concatenate(data.rel_lists),
    )


def _read_ranking(qpath: str, lpath: str) -> RankingDataset:
    """Queries (query_id,x1,...,xp) and their ranked items (query_id,rank,item_id)."""
    _, queries = _read_table(qpath, ("query_id", "x1"))
    m = queries.shape[0]
    if not np.array_equal(queries[:, 0], np.arange(m)):
        raise DataError(f"{qpath}: query_id must be 0..m-1 in order")
    _, labels = _read_table(lpath, ("query_id", "rank", "item_id"))
    query, rank, item = _ids(lpath, labels[:, :3]).T
    if query.max() >= m:
        raise DataError(f"{lpath}: unknown query_id {query.max()}")
    order = np.lexsort((rank, query))
    query, rank, item = query[order], rank[order], item[order]
    starts = np.searchsorted(query, np.arange(m + 1))
    if not np.array_equal(rank, np.arange(rank.size) - starts[query]):
        raise DataError(f"{lpath}: each query's ranks must be 0..k-1")
    lists = tuple(tuple(item[a:b].tolist()) for a, b in zip(starts[:-1], starts[1:]))
    return RankingDataset(features=queries[:, 1:], rel_lists=lists, n_items=int(item.max()) + 1)


def _write_edges(path: str, graph: Graph):
    with open(path, "w") as fh:
        for u, v in graph.edges:
            fh.write(f"{u} {v}\n")


def _read_edges(path: str) -> Graph:
    """Whitespace-separated 'u v' lines; '#' starts a comment."""
    pairs = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected 'u v'")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer endpoint") from None
    if not pairs:
        raise DataError(f"{path}: no edges")
    n = max(max(u, v) for u, v in pairs) + 1
    return Graph(n=n, edges=np.array(pairs, dtype=np.int64))


def _read_scores_csv(path: str, column: str):
    """Object ids, test ids and one score column of a score table.

    Each (object_id, test_id) pair may appear once.
    """
    header, cells = _read_table(path, ("object_id", "test_id"))
    if column not in header:
        raise DataError(f"{path}: no {column} column")
    ids = _ids(path, cells[:, :2])
    if np.unique(ids, axis=0).shape[0] != ids.shape[0]:
        raise DataError(f"{path}: duplicate (object_id, test_id) rows")
    return ids[:, 0], ids[:, 1], cells[:, header.index(column)]


def _split_survival(full: SurvivalDataset, n: int):
    train_part = SurvivalDataset(x=full.x[:n], y=full.y[:n], delta=full.delta[:n])
    test_part = SurvivalDataset(x=full.x[n:], y=full.y[n:], delta=full.delta[n:])
    return train_part, test_part


def _default_theta_star(d: int) -> np.ndarray:
    # alternating-sign, decaying planted coefficients; deterministic in d
    return np.array([(-1.0) ** j / (1.0 + j) for j in range(d)])


def cmd_synth(args) -> int:
    cfg = load_config(args)
    if cfg.get("data") is not None:
        raise ConfigError("config points at external data files; nothing to synthesize")
    scenario, seed, s = cfg["scenario"], cfg["seed"], _section(cfg, "synth")
    out = _out_dir(cfg)
    paths = _data_paths(cfg)
    if scenario == "cox":
        theta_star = np.asarray(s.get("theta_star", _default_theta_star(s["d"])))
        full = synth_survival(
            n=s["n"] + s["n_test"],
            d=s["d"],
            theta_star=theta_star,
            censor_rate=s["censor_rate"],
            seed=seed,
        )
        for path, part in zip(paths, _split_survival(full, s["n"])):
            _write_records_csv(path, y=part.y, delta=part.delta, **_x_columns(part.x))
    elif scenario == "ltr":
        full = synth_ranking(
            m=s["m"] + s["n_test"], n=s["n"], k=s["k"], p=s["p"], seed=seed
        )
        train_part = RankingDataset(
            features=full.features[: s["m"]],
            rel_lists=full.rel_lists[: s["m"]],
            n_items=s["n"],
        )
        test_part = RankingDataset(
            features=full.features[s["m"] :],
            rel_lists=full.rel_lists[s["m"] :],
            n_items=s["n"],
        )
        _write_ranking_csv(paths[0], paths[1], train_part)
        _write_ranking_csv(paths[2], paths[3], test_part)
    elif scenario == "embed":
        g = synth_graph(
            n=s.get("n"), edge_prob=s.get("edge_prob"), seed=seed, preset=s.get("preset")
        )
        _write_edges(paths[0], g)
    else:
        full = logistic_fixture(s["n"] + s["n_test"], s["d"], seed)
        labels = full.labels.astype(np.int64)
        for path, rows in zip(paths, (slice(None, s["n"]), slice(s["n"], None))):
            _write_records_csv(path, label=labels[rows], **_x_columns(full.x[rows]))
    meta = {
        "config_hash": config_hash(cfg),
        "scenario": scenario,
        "seed": seed,
        "files": [os.path.basename(p) for p in paths],
    }
    _write_json(os.path.join(out, "synth_meta.json"), meta)
    log.info("synthesized %s dataset into %s", scenario, out)
    print(f"wrote {len(paths)} dataset file(s) to {out}")
    return 0


def build_model(cfg: dict):
    """Model plus the target list implied by the scenario's test artifacts."""
    scenario, m = cfg["scenario"], _section(cfg, "model")
    paths = _data_paths(cfg)
    _require_files(paths)
    if scenario == "cox":
        data = _read_survival(paths[0])
        test = _read_survival(paths[1])
        model = CoxModel(data)
        targets = [relative_risk_target(row) for row in test.x]
    elif scenario == "ltr":
        data = _read_ranking(paths[0], paths[1])
        test = _read_ranking(paths[2], paths[3])
        model = ListMLEModel(data, l2=m.get("l2", 0.0))
        targets = [
            query_loss_target(model, test.features[q], test.rel_lists[q])
            for q in range(test.m)
        ]
    elif scenario == "embed":
        graph = _read_edges(paths[0])
        walks = WalkParams(
            walks_per_node=m["walks_per_node"],
            walk_length=m["walk_length"],
            window=m["window"],
            seed=cfg["seed"],
        )
        model = EmbedModel(graph, k=m["k"], walk_params=walks)
        targets = [pair_loss_target(model, int(u), int(v)) for u, v in graph.edges]
    else:
        x, labels = _read_points(paths[0])
        xt, lt = _read_points(paths[1])
        model = LogisticModel(x, labels, reg=m.get("reg", 1e-3))
        targets = [LogLossTarget(xt[i], lt[i]) for i in range(xt.shape[0])]
    return model, targets


def _objects(cfg: dict, model) -> list[int]:
    """The configured object ids: "all", or a list of distinct in-range ints."""
    sel = cfg["objects"]
    if sel == "all":
        return list(range(model.n_objects))
    # bool is an int subtype, but JSON true is not an object id
    if not isinstance(sel, list) or any(type(i) is not int for i in sel):
        raise ConfigError(f'objects must be "all" or a list of integer ids, got {sel!r}')
    bad = [i for i in sel if not 0 <= i < model.n_objects]
    if bad:
        raise ConfigError(f"object ids out of range: {bad}")
    if len(set(sel)) != len(sel):
        raise ConfigError(f"objects lists an id more than once: {sel}")
    return sel


def write_checkpoint(path: str, theta: np.ndarray, layout: dict, extra: dict):
    header = dict(extra)
    header["format"] = "vif-checkpoint-v1"
    header["dim"] = int(theta.shape[0])
    header["layout"] = {k: [int(a), int(b)] for k, (a, b) in layout.items()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(theta, dtype="<f8").tobytes())


def read_checkpoint(path: str):
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            blob = fh.read()
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}; run `vif train` first") from None
    try:
        header = json.loads(header_line)
    except ValueError:  # undecodable bytes or malformed JSON
        raise DataError(f"{path}: corrupt checkpoint header") from None
    if not isinstance(header, dict) or header.get("format") != "vif-checkpoint-v1":
        raise DataError(f"{path}: not a recognized checkpoint")
    if len(blob) % 8 or len(blob) // 8 != header.get("dim"):
        raise DataError(f"{path}: payload length does not match header dim")
    return np.frombuffer(blob, dtype="<f8").astype(np.float64), header


def cmd_train(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    model, _ = build_model(cfg)
    tc = _train_config(cfg, model)
    ones = PresenceVector.all_ones(model.n_objects)
    res = train(model, ones, tc)
    path = os.path.join(out, CHECKPOINT_NAME)
    write_checkpoint(
        path,
        res.theta,
        model.layout,
        {
            "config_hash": config_hash(cfg),
            "scenario": cfg["scenario"],
            "grad_norm": res.grad_norm,
            "converged": res.converged,
            "iterations": res.iterations,
            "loss": res.loss,
        },
    )
    log.info("trained %s: grad_norm=%.3e converged=%s", cfg["scenario"], res.grad_norm, res.converged)
    print(
        f"wrote {path} (grad_norm={res.grad_norm:.3e}, "
        f"{'converged' if res.converged else 'not converged'})"
    )
    return 0


def _load_checkpoint_for(cfg: dict, model):
    path = os.path.join(cfg["out"], CHECKPOINT_NAME)
    theta, header = read_checkpoint(path)
    want = config_hash(cfg)
    if header.get("config_hash") != want:
        raise ConfigError(
            f"checkpoint {path} was trained under a different config "
            f"(hash {header.get('config_hash')!r} != {want!r}); retrain or fix the config"
        )
    if theta.shape != (model.dim,):
        raise DataError(
            f"{path}: {theta.shape[0]} parameters, the {cfg['scenario']} model has {model.dim}"
        )
    if not np.all(np.isfinite(theta)):
        raise DataError(f"{path}: non-finite parameters")
    return theta, header


def _write_json(path: str, obj) -> None:
    """Write obj as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_attribute(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    model, targets = build_model(cfg)
    theta, _ = _load_checkpoint_for(cfg, model)
    objects = _objects(cfg, model)
    solver = _solver(cfg)
    start = time.perf_counter()
    result = attribute_target(model, theta, targets, objects, solver=solver)
    runtime = time.perf_counter() - start
    k, n_targets = result.scores.shape
    _write_records_csv(
        os.path.join(out, INFLUENCES_NAME),
        object_id=np.repeat(result.objects, n_targets),
        test_id=np.tile(np.arange(n_targets), k),
        vif=result.scores.ravel(),
        loo=None,
    )
    meta = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "runtime_s": runtime,
        "n_objects": len(objects),
        "n_targets": len(targets),
        "grad_norm": result.grad_norm,
        "solver": result.solver,
    }
    _write_json(os.path.join(out, "attribute_meta.json"), meta)
    log.info("attributed %d objects x %d targets in %.3fs", len(objects), len(targets), runtime)
    print(f"wrote {os.path.join(out, INFLUENCES_NAME)} ({result.scores.size} rows, {runtime:.3f}s)")
    return 0


def cmd_loo(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    model, targets = build_model(cfg)
    theta, header = _load_checkpoint_for(cfg, model)
    objects = _objects(cfg, model)
    tc = _train_config(cfg, model)
    # the config hash ties the checkpoint to this exact full-data training run
    stats = [header.get(k) for k in ("grad_norm", "converged", "iterations", "loss")]
    full = TrainResult(theta, *stats)
    start = time.perf_counter()
    result = loo_retrain(model, tc, objects, targets, full_result=full, jobs=cfg["jobs"])
    runtime = time.perf_counter() - start
    k, n_targets = result.deltas.shape
    path = os.path.join(out, LOO_NAME)
    # scores in the influence convention, f(full) - f(drop i): negated deltas
    _write_records_csv(
        path,
        object_id=np.repeat(result.objects, n_targets),
        test_id=np.tile(np.arange(n_targets), k),
        loo=-result.deltas.ravel(),
    )
    n_converged = int(result.converged.sum())
    meta = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "runtime_s": runtime,
        "n_retrains": k,
        "n_converged": n_converged,
        "all_converged": n_converged == k,
        # per retrain, in the object order of loo.csv
        "grad_norm": result.grad_norm.tolist(),
        "converged": result.converged.tolist(),
        "wall_s": result.wall_s.tolist(),
    }
    _write_json(os.path.join(out, "loo_meta.json"), meta)
    log.info("retrained %d times in %.3fs", k, runtime)
    print(
        f"wrote {path} ({result.deltas.size} rows, {runtime:.3f}s, "
        f"{n_converged}/{k} retrains converged)"
    )
    return 0


def _read_meta(out: str, name: str) -> dict:
    path = os.path.join(out, name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise DataError(f"missing {path}; run the corresponding stage first") from None
    except json.JSONDecodeError:
        raise DataError(f"{path}: corrupt JSON") from None


def cmd_compare(args) -> int:
    # compare needs no config of its own: everything lives in the run dir
    out = args.out
    if out is None and args.config is not None:
        out = load_config(args)["out"]
    if out is None:
        raise ConfigError("output directory is required (--out or config file)")
    vif_meta = _read_meta(out, "attribute_meta.json")
    loo_meta = _read_meta(out, "loo_meta.json")
    hashes = {vif_meta.get("config_hash"), loo_meta.get("config_hash")}
    if len(hashes) != 1:
        if not args.force:
            raise ConfigError(
                f"config hash mismatch between attribute and loo outputs in {out} "
                f"({sorted(hashes)}); rerun the stale stage or pass --force"
            )
        log.warning("config hash mismatch overridden by --force")
    vif_obj, vif_test, vif_score = _read_scores_csv(os.path.join(out, INFLUENCES_NAME), "vif")
    loo_obj, loo_test, loo_score = _read_scores_csv(os.path.join(out, LOO_NAME), "loo")
    # both files as objects x tests tables over the distinct ids they name
    objects, obj_at = np.unique(np.concatenate([vif_obj, loo_obj]), return_inverse=True)
    tests, test_at = np.unique(np.concatenate([vif_test, loo_test]), return_inverse=True)
    vif = np.full((objects.size, tests.size), np.nan)
    loo = vif.copy()
    n_vif = vif_score.size
    vif[obj_at[:n_vif], test_at[:n_vif]] = vif_score
    loo[obj_at[n_vif:], test_at[n_vif:]] = loo_score
    report = compare(
        vif,
        loo,
        vif_runtime=vif_meta.get("runtime_s"),
        loo_runtime=loo_meta.get("runtime_s"),
        config=vif_meta.get("config", {}),
    )
    has_vif = ~np.isnan(vif)
    obj_rows, test_cols = np.nonzero(has_vif)
    _write_records_csv(
        os.path.join(out, INFLUENCES_NAME),
        object_id=objects[obj_rows],
        test_id=tests[test_cols],
        vif=vif[has_vif],
        loo=loo[has_vif],
    )
    summary = asdict(report)
    summary["config_hash"] = vif_meta.get("config_hash")
    summary["created_utc"] = datetime.now(timezone.utc).isoformat()
    _write_json(os.path.join(out, SUMMARY_NAME), summary)
    print(
        f"pearson_r={report.pearson_r:.6f} over {report.n_pairs} pairs"
        + (
            f", speedup={report.improvement_ratio:.1f}x"
            if report.improvement_ratio
            else ""
        )
    )
    return 0


def cmd_check(args) -> int:
    cfg = load_config(args, need_out=False)
    model, _ = build_model(cfg)
    rng = np.random.default_rng(cfg["seed"])
    ones = PresenceVector.all_ones(model.n_objects)
    max_grad, max_hess = 0.0, 0.0
    trials = []
    for t in range(args.trials):
        theta = 0.3 * rng.standard_normal(model.dim)
        b = ones if t % 2 == 0 else ones.without(int(rng.integers(model.n_objects)))
        ge = check_gradient(model, theta, b)
        he = check_hessian(model, theta, b)
        trials.append({"grad_error": ge, "hess_error": he, "full_presence": b is ones})
        max_grad, max_hess = max(max_grad, ge), max(max_hess, he)
    report = {
        "scenario": cfg["scenario"],
        "trials": trials,
        "max_grad_error": max_grad,
        "max_hess_error": max_hess,
        "grad_ok": max_grad <= 1e-4,
        "hess_ok": max_hess <= 1e-3,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    if "out" in cfg:
        _write_json(os.path.join(_out_dir(cfg), "check_report.json"), report)
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; that code is reserved for data
    # errors here, so route them through the config-error path instead
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vif", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": (cmd_synth, "generate a synthetic dataset into the run directory"),
        "train": (cmd_train, "fit the scenario model and write a checkpoint"),
        "attribute": (cmd_attribute, "compute VIF scores for every (object, target)"),
        "loo": (cmd_loo, "brute-force leave-one-out ground truth"),
        "compare": (cmd_compare, "correlate VIF with LOO and write summary.json"),
        "check": (cmd_check, "finite-difference gradient/Hessian verification"),
    }
    for name, (func, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="JSON run config", default=None)
        p.add_argument("--out", help="run directory", default=None)
        if name != "compare":
            p.add_argument("--seed", type=int, default=None, help="master seed override")
        if name in ("attribute",):
            p.add_argument(
                "--solver",
                choices=("explicit", "cg", "lissa"),
                default=None,
                help="inverse-Hessian strategy override",
            )
            p.add_argument(
                "--damping", type=float, default=None, help="Hessian damping override"
            )
        if name == "loo":
            p.add_argument("--jobs", type=int, default=None, help="parallel retrainings")
        if name == "compare":
            p.add_argument(
                "--force",
                action="store_true",
                help="pair outputs even if their config hashes differ",
            )
        if name == "check":
            p.add_argument("--trials", type=int, default=5, help="seeded check points")
    return parser


def _setup_logging():
    level_name = os.environ.get("VIF_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level_name not in levels:
        raise ConfigError(f"VIF_LOG must be one of {sorted(levels)}, got {level_name!r}")
    logging.basicConfig(
        level=levels[level_name],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def main(argv=None) -> int:
    try:
        _setup_logging()
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        return _fail(1, exc)
    except DataError as exc:
        return _fail(2, exc)
    except NumericalError as exc:
        return _fail(3, exc)
    except VifError as exc:
        return _fail(1, exc)
    except ValueError as exc:  # bad parameter values surfaced by the library
        return _fail(1, exc)


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
