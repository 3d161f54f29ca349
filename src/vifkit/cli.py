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
import csv
import hashlib
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from .attributor import HessianSolver, InfluenceRecord, attribute_target
from .coxloss import CoxModel, SurvivalDataset, relative_risk_target
from .embedloss import EmbedModel, Graph, WalkParams, pair_loss_target
from .errors import ConfigError, DataError, NumericalError, VifError
from .harness import (
    LogisticModel,
    LogLossTarget,
    compare,
    logistic_fixture,
    loo_records,
    loo_retrain,
    merge_records,
    synth_graph,
    synth_ranking,
    synth_survival,
)
from .losscore import PresenceVector, TrainConfig, TrainResult, check_gradient, check_hessian, train
from .ltrloss import ListMLEModel, RankingDataset, query_loss_target

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
    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
    if need_out and "out" not in cfg:
        raise ConfigError("output directory is required (config field or --out)")
    return cfg


def config_hash(cfg: dict) -> str:
    subset = {k: cfg[k] for k in HASHED_KEYS if k in cfg}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fmt(v: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(v))


def _out_dir(cfg: dict) -> str:
    path = cfg["out"]
    os.makedirs(path, exist_ok=True)
    return path


def _train_config(cfg: dict, model) -> TrainConfig:
    t = cfg["train"]
    known = {"optimizer", "learning_rate", "epochs", "batch_size", "weight_decay", "grad_tol"}
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


def _write_survival_csv(path: str, x: np.ndarray, y: np.ndarray, delta: np.ndarray):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["y", "delta"] + [f"x{j + 1}" for j in range(x.shape[1])])
        for i in range(x.shape[0]):
            w.writerow([_fmt(y[i]), int(delta[i])] + [_fmt(v) for v in x[i]])


def _write_points_csv(path: str, x: np.ndarray, labels: np.ndarray):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["label"] + [f"x{j + 1}" for j in range(x.shape[1])])
        for i in range(x.shape[0]):
            w.writerow([int(labels[i])] + [_fmt(v) for v in x[i]])


def _read_points_csv(path: str):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "label":
            raise DataError(f"{path}: expected header label,x1,...")
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no data rows")
    try:
        arr = np.array(rows, dtype=np.float64)
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric cell ({exc})") from None
    return arr[:, 1:], arr[:, 0]


def _write_ranking_csv(qpath: str, lpath: str, data: RankingDataset):
    with open(qpath, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["query_id"] + [f"x{j + 1}" for j in range(data.p)])
        for qi in range(data.m):
            w.writerow([qi] + [_fmt(v) for v in data.features[qi]])
    with open(lpath, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["query_id", "rank", "item_id"])
        for qi, lst in enumerate(data.rel_lists):
            for rank, item in enumerate(lst):
                w.writerow([qi, rank, item])


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
    out = _out_dir(cfg)
    scenario, seed, s = cfg["scenario"], cfg["seed"], cfg["synth"]
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
        train_part, test_part = _split_survival(full, s["n"])
        _write_survival_csv(paths[0], train_part.x, train_part.y, train_part.delta)
        _write_survival_csv(paths[1], test_part.x, test_part.y, test_part.delta)
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
        if "preset" in s:
            g = synth_graph(preset=s["preset"])
        else:
            g = synth_graph(n=s["n"], edge_prob=s["edge_prob"], seed=seed)
        with open(paths[0], "w") as fh:
            for u, v in g.edges:
                fh.write(f"{u} {v}\n")
    else:
        full = logistic_fixture(s["n"] + s["n_test"], s["d"], seed)
        _write_points_csv(paths[0], full.x[: s["n"]], full.labels[: s["n"]])
        _write_points_csv(paths[1], full.x[s["n"] :], full.labels[s["n"] :])
    meta = {
        "config_hash": config_hash(cfg),
        "scenario": scenario,
        "seed": seed,
        "files": [os.path.basename(p) for p in paths],
    }
    with open(os.path.join(out, "synth_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("synthesized %s dataset into %s", scenario, out)
    print(f"wrote {len(paths)} dataset file(s) to {out}")
    return 0


def build_model(cfg: dict):
    """Model plus the target list implied by the scenario's test artifacts."""
    scenario, m = cfg["scenario"], cfg["model"]
    paths = _data_paths(cfg)
    _require_files(paths)
    if scenario == "cox":
        data = SurvivalDataset.from_csv(paths[0])
        test = SurvivalDataset.from_csv(paths[1])
        model = CoxModel(data)
        targets = [relative_risk_target(row) for row in test.x]
    elif scenario == "ltr":
        data = RankingDataset.from_csv(paths[0], paths[1])
        test = RankingDataset.from_csv(paths[2], paths[3])
        model = ListMLEModel(data, l2=m.get("l2", 0.0))
        targets = [
            query_loss_target(model, test.features[q], test.rel_lists[q])
            for q in range(test.m)
        ]
    elif scenario == "embed":
        graph = Graph.from_edge_list(paths[0])
        walks = WalkParams(
            walks_per_node=m["walks_per_node"],
            walk_length=m["walk_length"],
            window=m["window"],
            seed=cfg["seed"],
        )
        model = EmbedModel(graph, k=m["k"], walk_params=walks)
        targets = [pair_loss_target(model, int(u), int(v)) for u, v in graph.edges]
    else:
        x, labels = _read_points_csv(paths[0])
        xt, lt = _read_points_csv(paths[1])
        model = LogisticModel(x, labels, reg=m.get("reg", 1e-3))
        targets = [LogLossTarget(xt[i], lt[i]) for i in range(xt.shape[0])]
    return model, targets


def _objects(cfg: dict, model) -> list[int]:
    sel = cfg["objects"]
    if sel == "all":
        return list(range(model.n_objects))
    ids = [int(i) for i in sel]
    bad = [i for i in ids if not 0 <= i < model.n_objects]
    if bad:
        raise ConfigError(f"object ids out of range: {bad}")
    return ids


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
        res.params.theta,
        res.params.layout,
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


def _load_checkpoint_for(cfg: dict):
    path = os.path.join(cfg["out"], CHECKPOINT_NAME)
    theta, header = read_checkpoint(path)
    want = config_hash(cfg)
    if header.get("config_hash") != want:
        raise ConfigError(
            f"checkpoint {path} was trained under a different config "
            f"(hash {header.get('config_hash')!r} != {want!r}); retrain or fix the config"
        )
    return theta, header


def _write_records_csv(path: str, object_ids, test_ids, vif, loo=None):
    """Write the influence table from equal-length columns, in row chunks.

    Scores are written as repr(float), the shortest round-trip decimal; a
    NaN score, and every loo cell when loo is None, is an empty cell.
    """
    def cells(values):
        return [repr(v) if v == v else "" for v in values.tolist()]

    with open(path, "w", newline="") as fh:
        fh.write("object_id,test_id,vif,loo\n")
        for lo in range(0, len(vif), CSV_CHUNK_ROWS):
            rows = slice(lo, lo + CSV_CHUNK_ROWS)
            vif_cells = cells(vif[rows])
            loo_cells = cells(loo[rows]) if loo is not None else [""] * len(vif_cells)
            fh.write("".join(
                f"{o},{t},{v},{l}\n"
                for o, t, v, l in zip(
                    object_ids[rows].tolist(), test_ids[rows].tolist(), vif_cells, loo_cells
                )
            ))


def _read_scores_csv(path: str, column: str):
    """(object_id, test_id) -> score for one column of an influence CSV."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise DataError(f"missing {path}") from None
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise DataError(f"{path}: expected a {column} column")
        out = {}
        for row in reader:
            try:
                key = (int(row["object_id"]), int(row["test_id"]))
                val = row[column]
                out[key] = float(val) if val not in ("", None) else None
            except (KeyError, ValueError):
                raise DataError(f"{path}: malformed row {row}") from None
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def cmd_attribute(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    model, targets = build_model(cfg)
    theta, _ = _load_checkpoint_for(cfg)
    objects = _objects(cfg, model)
    solver = _solver(cfg)
    start = time.perf_counter()
    result = attribute_target(model, theta, targets, objects, solver=solver)
    runtime = time.perf_counter() - start
    k, n_targets = result.scores.shape
    _write_records_csv(
        os.path.join(out, INFLUENCES_NAME),
        np.repeat(result.objects, n_targets),
        np.tile(np.arange(n_targets), k),
        result.scores.ravel(),
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
    with open(os.path.join(out, "attribute_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("attributed %d objects x %d targets in %.3fs", len(objects), len(targets), runtime)
    print(f"wrote {os.path.join(out, INFLUENCES_NAME)} ({result.scores.size} rows, {runtime:.3f}s)")
    return 0


def cmd_loo(args) -> int:
    cfg = load_config(args)
    out = _out_dir(cfg)
    model, targets = build_model(cfg)
    theta, header = _load_checkpoint_for(cfg)
    objects = _objects(cfg, model)
    tc = _train_config(cfg, model)
    # the config hash ties the checkpoint to this exact full-data training run
    stats = [header.get(k) for k in ("grad_norm", "converged", "iterations", "loss")]
    full = TrainResult(model.param_vector(theta), *stats)
    start = time.perf_counter()
    results = loo_retrain(
        model, tc, objects, targets, full_result=full, jobs=cfg["jobs"]
    )
    runtime = time.perf_counter() - start
    records = loo_records(results)
    with open(os.path.join(out, LOO_NAME), "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["object_id", "test_id", "loo"])
        for r in records:
            w.writerow([r.object_id, r.test_id, _fmt(r.loo)])
    meta = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "runtime_s": runtime,
        "n_retrains": len(results),
        "n_converged": sum(r.converged for r in results),
        "all_converged": all(r.converged for r in results),
        # per retrain, in the object order of loo.csv
        "grad_norm": [r.grad_norm for r in results],
        "converged": [r.converged for r in results],
        "wall_s": [r.wall_time for r in results],
    }
    with open(os.path.join(out, "loo_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("retrained %d times in %.3fs", len(results), runtime)
    print(f"wrote {os.path.join(out, LOO_NAME)} ({len(records)} rows, {runtime:.3f}s)")
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
    vif_scores = _read_scores_csv(os.path.join(out, INFLUENCES_NAME), "vif")
    loo_scores = _read_scores_csv(os.path.join(out, LOO_NAME), "loo")
    vif_recs = [
        InfluenceRecord(object_id=o, test_id=t, vif=v)
        for (o, t), v in sorted(vif_scores.items())
        if v is not None
    ]
    loo_recs = [
        InfluenceRecord(object_id=o, test_id=t, vif=float("nan"), loo=v)
        for (o, t), v in sorted(loo_scores.items())
        if v is not None
    ]
    report = compare(
        vif_recs,
        loo_recs,
        vif_runtime=vif_meta.get("runtime_s"),
        loo_runtime=loo_meta.get("runtime_s"),
        config=vif_meta.get("config", {}),
    )
    merged = merge_records(vif_recs, loo_recs)
    _write_records_csv(
        os.path.join(out, INFLUENCES_NAME),
        np.array([r.object_id for r in merged], dtype=np.int64),
        np.array([r.test_id for r in merged], dtype=np.int64),
        np.array([r.vif for r in merged]),
        np.array([np.nan if r.loo is None else r.loo for r in merged]),
    )
    summary = report.to_dict()
    summary["config_hash"] = vif_meta.get("config_hash")
    summary["created_utc"] = datetime.now(timezone.utc).isoformat()
    with open(os.path.join(out, SUMMARY_NAME), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
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
        with open(os.path.join(_out_dir(cfg), "check_report.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
