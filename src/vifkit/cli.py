"""Command-line front end for reproducible attribution runs.

Subcommands: synth, train, attribute, loo, compare, check.  A run lives in
one output directory; each command reads the artifacts of the previous stage
from there, through `files`, and refuses stale mixtures via a config hash.
Exit codes: 1 for config errors, 2 for data errors, 3 for numerical
failures, running out of memory and failed file operations (OSError), with
a machine-readable JSON object on stderr.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import logging
import os
import sys
import time
from dataclasses import asdict, fields
from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy as np

from . import files
from .errors import ConfigError, DataError, NumericalError, VifError
from .numkit import is_int
from .scenarios import SCENARIOS

# bench/tracer.py times score-table writes by wrapping cli._write_records_csv,
# so the commands call the writer through that name
from .files import write_scores as _write_records_csv

# SHA-256 from CPython's own module, as random.py takes SHA-512: hashlib loads
# OpenSSL, which costs a stage several MiB and milliseconds for one digest.
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

# Each command imports the modules it runs, so a stage process loads only
# those; the names below are for annotations.
if TYPE_CHECKING:
    from .attributor import HessianSolver
    from .losscore import TrainConfig

log = logging.getLogger("vifkit.cli")

# Defaults of every scenario, under those of its record in scenarios.py; a
# config file overrides both, flags override all three.
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
    extra = set(file_cfg) - {*COMMON_DEFAULTS, *HASHED_KEYS, "out"}
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    scenario = file_cfg.get("scenario")
    if not isinstance(scenario, str) or scenario not in SCENARIOS:  # a list is unhashable
        raise ConfigError(f"scenario must be one of {sorted(SCENARIOS)}, got {scenario!r}")
    cfg = _deep_merge(COMMON_DEFAULTS, SCENARIOS[scenario].defaults())
    cfg = _deep_merge(cfg, file_cfg)
    for name in ("train", "solver", "data"):
        section = cfg.get(name)
        if name == "data" and section is None:
            continue  # no data section: the run directory's own files
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a JSON object, got {section!r}")
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
    if not is_int(cfg["seed"]) or cfg["seed"] < 0:  # every stream is seeded from it
        raise ConfigError(f"seed must be an integer >= 0, got {cfg['seed']!r}")
    if not is_int(cfg["jobs"]) or cfg["jobs"] < 1:
        raise ConfigError(f"jobs must be an integer >= 1, got {cfg['jobs']!r}")
    if need_out and "out" not in cfg:
        raise ConfigError("output directory is required (config field or --out)")
    return cfg


def config_hash(cfg: dict) -> str:
    subset = {k: cfg[k] for k in HASHED_KEYS if k in cfg}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def _out_dir(cfg: dict) -> str:
    path = cfg["out"]
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # a regular file on the path, no permission, ...
        raise ConfigError(f"out {path!r} is not a usable directory: {exc.strerror}") from None
    return path


def _known(cfg: dict, name: str, keys) -> dict:
    """cfg[name], refused unless it is a JSON object whose keys are all in keys."""
    section = cfg[name]
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object, got {section!r}")
    extra = set(section) - set(keys)
    if extra:
        raise ConfigError(f"unknown {name} settings: {sorted(extra)}")
    return section


def _train_config(cfg: dict, model) -> TrainConfig:
    from .losscore import TrainConfig

    t = _known(cfg, "train", {f.name for f in fields(TrainConfig)} - {"seed"})
    try:
        tc = TrainConfig(seed=cfg["seed"], **t)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad train config: {exc}") from None
    if tc.batch_size is not None and not model.supports_term_gradients:
        raise ConfigError(f"train.batch_size: {type(model).__name__} has no per-term gradients")
    return tc


def _section(cfg: dict, name: str) -> dict:
    """The synth or model section, checked against the scenario's keys."""
    keys = getattr(SCENARIOS[cfg["scenario"]], name)
    section = _known(cfg, name, keys)
    for key, val in section.items():
        ok, rule = keys[key][0]
        if not ok(val):
            raise ConfigError(f"{name}.{key} must be {rule}, got {val!r}")
    return section


def _solver(cfg: dict) -> HessianSolver:
    from .attributor import HessianSolver

    settings = _known(cfg, "solver", {f.name for f in fields(HessianSolver)})
    try:
        return HessianSolver(**settings)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad solver config: {exc}") from None


def _data_paths(cfg: dict) -> list[str]:
    """Paths the scenario reads: explicit `data` entries or synth outputs."""
    names = SCENARIOS[cfg["scenario"]].data_files
    data = cfg.get("data")
    if data is not None:
        stems = [os.path.splitext(n)[0] for n in names]
        try:
            paths = [data[stem] for stem in stems]
        except KeyError as exc:
            raise ConfigError(f"data section missing entry {exc}") from None
        extra = set(data) - set(stems)
        if extra:
            raise ConfigError(f"unknown data entries: {sorted(extra)}")
        for path in paths:
            if not isinstance(path, str):
                raise ConfigError(f"data paths must be strings, got {path!r}")
        return paths
    if "out" not in cfg:
        raise ConfigError("no data paths configured and no run directory to read from")
    return [os.path.join(cfg["out"], n) for n in names]


def _require_files(paths: list[str]):
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise DataError(
            f"missing dataset files {missing}; run `vif synth` or set data paths"
        )


def cmd_synth(args) -> int:
    cfg = load_config(args)
    if cfg.get("data") is not None:
        raise ConfigError("config points at external data files; nothing to synthesize")
    scenario, seed, s = cfg["scenario"], cfg["seed"], _section(cfg, "synth")
    out = _out_dir(cfg)
    paths = _data_paths(cfg)
    n_objects = SCENARIOS[scenario].draw(s, seed, paths)
    meta = {"config_hash": config_hash(cfg), "scenario": scenario, "seed": seed,
            "files": [os.path.basename(p) for p in paths]}
    if n_objects is not None:
        meta["n_objects"] = n_objects
    files.write_json(os.path.join(out, "synth_meta.json"), meta)
    log.info("synthesized %s dataset into %s", scenario, out)
    print(f"wrote {len(paths)} dataset file(s) to {out}")
    return 0


def _object_count(cfg: dict) -> int | None:
    """The object count `synth` recorded for the run directory
    (synth_meta.json n_objects), whether or not the data names every
    object.  None with a data section, or for tables put in the run
    directory by hand, where the readers take the largest id + 1."""
    if cfg.get("data") is not None:
        return None
    path = os.path.join(cfg["out"], "synth_meta.json")
    if not os.path.isfile(path):  # no synth record: the tables did not come from synth
        return None
    meta = files.read_meta(cfg["out"], "synth_meta.json")
    if meta.get("scenario") != cfg["scenario"]:
        return None
    n = meta.get("n_objects")
    if n is not None and not (is_int(n) and n > 0):
        raise DataError(f"{path}: n_objects must be a positive integer, got {n!r}")
    return n


def build_model(cfg: dict):
    """Model plus the target list implied by the scenario's test artifacts.

    Where synth recorded an object count (_object_count), the ids of a
    synthesized run are that many, otherwise 0 up to the largest id in the
    training data; an id outside them is a DataError naming the file.  Each
    held-out table is checked against the training data, so a table that no
    target can use is a DataError naming the file.
    """
    m = _section(cfg, "model")
    paths = _data_paths(cfg)
    _require_files(paths)
    return SCENARIOS[cfg["scenario"]].build(m, cfg["seed"], paths, lambda: _object_count(cfg))


def _objects(cfg: dict, model) -> list[int]:
    """The configured object ids: "all", or a list of distinct in-range ints."""
    sel = cfg["objects"]
    if sel == "all":
        return list(range(model.n_objects))
    # bool is an int subtype, but JSON true is not an object id
    if not isinstance(sel, list) or any(type(i) is not int for i in sel):
        raise ConfigError(f'objects must be "all" or a list of integer ids, got {sel!r}')
    if not sel:
        raise ConfigError("objects is an empty list; name at least one object id")
    bad = [i for i in sel if not 0 <= i < model.n_objects]
    if bad:
        raise ConfigError(f"object ids out of range: {bad}")
    if len(set(sel)) != len(sel):
        raise ConfigError(f"objects lists an id more than once: {sel}")
    return sel


def cmd_train(args) -> int:
    from .losscore import PresenceVector, train

    cfg = load_config(args)
    model, _ = build_model(cfg)
    tc = _train_config(cfg, model)
    out = _out_dir(cfg)
    ones = PresenceVector.all_ones(model.n_objects)
    res = train(model, ones, tc)
    path = os.path.join(out, files.CHECKPOINT_NAME)
    files.write_checkpoint(
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
    path = os.path.join(cfg["out"], files.CHECKPOINT_NAME)
    theta, header = files.read_checkpoint(path)
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


def cmd_attribute(args) -> int:
    from .attributor import attribute_target

    cfg = load_config(args)
    model, targets = build_model(cfg)
    theta, _ = _load_checkpoint_for(cfg, model)
    objects = _objects(cfg, model)
    solver = _solver(cfg)
    out = _out_dir(cfg)
    start = time.perf_counter()
    result = attribute_target(model, theta, targets, objects, solver=solver)
    runtime = time.perf_counter() - start
    start = time.perf_counter()
    # the scores are formed chunk by chunk as the table is written
    _write_records_csv(
        os.path.join(out, files.INFLUENCES_NAME), result.objects, np.arange(len(targets)),
        vif=result, loo=None,
    )
    meta = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "runtime_s": runtime,
        "write_s": time.perf_counter() - start,
        "n_objects": len(objects),
        "n_targets": len(targets),
        "grad_norm": result.grad_norm,
        "solver": result.solver,
        **result.details,
    }
    files.write_json(os.path.join(out, "attribute_meta.json"), meta)
    log.info("attributed %d objects x %d targets in %.3fs", len(objects), len(targets), runtime)
    rows = len(objects) * len(targets)
    print(f"wrote {os.path.join(out, files.INFLUENCES_NAME)} ({rows} rows, {runtime:.3f}s)")
    return 0


def cmd_loo(args) -> int:
    from .harness import loo_retrain
    from .losscore import TrainResult

    cfg = load_config(args)
    model, targets = build_model(cfg)
    theta, header = _load_checkpoint_for(cfg, model)
    objects = _objects(cfg, model)
    tc = _train_config(cfg, model)
    out = _out_dir(cfg)
    # the config hash ties the checkpoint to this exact full-data training run
    stats = [header.get(k) for k in ("grad_norm", "converged", "iterations", "loss")]
    full = TrainResult(theta, *stats)
    start = time.perf_counter()
    result = loo_retrain(model, tc, objects, targets, full_result=full, jobs=cfg["jobs"])
    runtime = time.perf_counter() - start
    k, n_targets = result.deltas.shape
    path = os.path.join(out, files.LOO_NAME)
    # scores in the influence convention, f(full) - f(drop i): negated deltas
    start = time.perf_counter()
    _write_records_csv(path, result.objects, np.arange(n_targets), loo=-result.deltas)
    n_converged = int(result.converged.sum())
    meta = {
        "config_hash": config_hash(cfg),
        "config": cfg,
        "runtime_s": runtime,
        "write_s": time.perf_counter() - start,
        "n_retrains": k,
        "n_converged": n_converged,
        "all_converged": n_converged == k,
        # per retrain, in the object order of loo.csv (in lockstep, wall_s is
        # the group's wall time split evenly over its rows), then the retrains
        # per lockstep group, empty when each retrained on its own
        **{key: getattr(result, key).tolist()
           for key in ("grad_norm", "converged", "iterations", "wall_s", "group_rows")},
    }
    files.write_json(os.path.join(out, "loo_meta.json"), meta)
    log.info("retrained %d times in %.3fs", k, runtime)
    print(
        f"wrote {path} ({result.deltas.size} rows, {runtime:.3f}s, "
        f"{n_converged}/{k} retrains converged)"
    )
    return 0


def cmd_compare(args) -> int:
    from .harness import compare

    # compare needs no config of its own: everything lives in the run dir,
    # but a config it is given is checked as every stage checks it
    out = args.out
    if args.config is not None:
        out = load_config(args)["out"]  # --out overrides the file's out
    if out is None:
        raise ConfigError("output directory is required (--out or config file)")
    vif_meta = files.read_meta(out, "attribute_meta.json")
    loo_meta = files.read_meta(out, "loo_meta.json")
    hashes = {vif_meta.get("config_hash"), loo_meta.get("config_hash")}
    if len(hashes) != 1:
        if not args.force:
            raise ConfigError(
                f"config hash mismatch between attribute and loo outputs in {out} "
                f"({sorted(hashes)}); rerun the stale stage or pass --force"
            )
        log.warning("config hash mismatch overridden by --force")
    influences = os.path.join(out, files.INFLUENCES_NAME)
    vif_obj, vif_test, vif_score = files.read_scores(influences, "vif")
    loo_obj, loo_test, loo_score = files.read_scores(os.path.join(out, files.LOO_NAME), "loo")
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
    # one row per cell with a vif score
    _write_records_csv(influences, objects, tests, keep=~np.isnan(vif), vif=vif, loo=loo)
    summary = asdict(report)
    summary["config_hash"] = vif_meta.get("config_hash")
    summary["created_utc"] = datetime.now(timezone.utc).isoformat()
    files.write_json(os.path.join(out, files.SUMMARY_NAME), summary)
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
    from .losscore import PresenceVector, check_gradient, check_hessian

    if args.trials < 1:
        raise ConfigError(f"trials must be an integer >= 1, got {args.trials!r}")
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
        files.write_json(os.path.join(_out_dir(cfg), "check_report.json"), report)
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
    level_name = os.environ.get("VIF_LOG", "warning").lower()
    levels = {
        "error": logging.ERROR,
        "warning": logging.WARNING,
        "info": logging.INFO,
        "debug": logging.DEBUG,
    }
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
    except MemoryError as exc:  # e.g. an id in the data that sizes the model past memory
        # numpy raises a private subclass; report the public name
        return _fail(3, MemoryError(str(exc) or "out of memory"))
    except OSError as exc:  # a run file that cannot be written: disk full, no permission
        return _fail(3, exc)


def _fail(code: int, exc: Exception) -> int:
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


def run() -> int:
    """The `vif` process: main on sys.argv, then gc.freeze().

    A stage exits right after main returns, and interpreter shutdown would
    run full collections over the tens of thousands of objects numpy and
    the stage leave alive; frozen objects are exempt, so the process ends
    without them.  main itself never freezes: it runs many times in one
    process under tests, where frozen garbage would never be freed.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
