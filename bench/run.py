"""Stage benchmark for the `vif` pipeline.

Usage:
    python3 bench/run.py --workload cox-loo --seed 42 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn
    python3 bench/run.py --smoke                   # tiny sizes, one pass each
    python3 bench/run.py --write-spec              # regenerate BENCHMARK.json

An untraced run drives the real CLI (`python3 -m vifkit.cli`, from the
checkout's `src/`), one fresh process per stage, and reports the end-to-end
metrics.  A traced run (`--trace 1`) additionally runs each stage under
`bench/tracer.py` and reports per-layer metrics from its spans.  Every stage
output is checked; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  A full record of the run,
machine facts included, goes to `.bench_runs/BENCH_<workload>.json`.

See bench/README.md for why each workload exists and which layer metric
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH_DIR)

import machine  # noqa: E402

DEFAULT_SEED = 42
RUN_SECONDS = 30
# A stage still running this long after its run began is killed, so that a
# run always ends within the 180 s it may take.
HARD_LIMIT_S = 160.0
# Relative tolerance against the scores recorded from the seed commit.
REFERENCE_RTOL = 1e-9
# VIF-vs-LOO correlation below which the cox-loo compare stage fails.
PEARSON_FLOOR = 0.95
LISSA_STEPS = 100  # HessianSolver default; each nonzero LiSSA solve takes this many HVPs
KARATE_EDGES = 78


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    stages: tuple  # (stage, extra CLI args), synth first
    smoke: dict = field(default_factory=dict)  # config overrides for --smoke

    @property
    def scenario(self) -> str:
        return self.config["scenario"]

    @property
    def explicit(self) -> bool:
        return "lissa" not in dict(self.stages)["attribute"]


# Synth sizes are spelled out, though cox-loo and ltr use the CLI defaults, so
# that a change of those defaults cannot silently change a workload.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cox-loo",
            "Cox at CLI defaults through synth, train, attribute (LiSSA), loo and compare: "
            "the paper's VIF-vs-LOO validation loop",
            {"scenario": "cox", "synth": {"n": 200, "d": 3, "n_test": 50}},
            (
                ("synth", ()),
                ("train", ()),
                ("attribute", ("--solver", "lissa")),
                ("loo", ("--jobs", "1")),
                ("compare", ()),
            ),
            {"synth": {"n": 40, "d": 2, "n_test": 4}, "train": {"learning_rate": 0.05, "epochs": 100}},
        ),
        Workload(
            "cox-scale",
            "Cox n=5000 d=10 with the explicit solver: 250,000 scores, cost in drop-one "
            "gradients, records and CSV writing",
            {"scenario": "cox", "synth": {"n": 5000, "d": 10, "n_test": 50}},
            (("synth", ()), ("train", ()), ("attribute", ("--solver", "explicit"))),
            {"synth": {"n": 300, "d": 3, "n_test": 5}, "train": {"epochs": 20}},
        ),
        Workload(
            "ltr",
            "ListMLE at CLI defaults with the explicit solver: Python softmax loops and "
            "240x240 solves that depend on BLAS threads",
            {"scenario": "ltr", "synth": {"m": 200, "n": 30, "k": 5, "p": 8, "n_test": 50}},
            (("synth", ()), ("train", ()), ("attribute", ("--solver", "explicit"))),
            {"synth": {"m": 20, "n": 8, "k": 3, "p": 3, "n_test": 4}, "train": {"epochs": 5}},
        ),
        Workload(
            "embed",
            "Karate node embedding, walks_per_node=250: 35 walk-corpus builds dominate "
            "attribute; damped 136x136 solves",
            {"scenario": "embed", "synth": {"preset": "karate"}, "model": {"walks_per_node": 250}},
            (("synth", ()), ("train", ()), ("attribute", ())),
            {"model": {"walks_per_node": 5}, "train": {"epochs": 10}},
        ),
    )
}
STAGES = ("synth", "train", "attribute", "loo", "compare")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def spec(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


# Time bounds are the largest a bound may be: on the 2-vCPU test VM the same
# stage's median reads up to ~20% apart between runs a few minutes apart.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("train_s", "s", "lower", 0.25),
    Metric("attribute_s", "s", "lower", 0.25),
    Metric("pipeline_s", "s", "lower", 0.25),
    Metric("attribute_peak_rss_mb", "MiB", "lower", 0.1),
)
# Printed for every workload but not gated: they do not exist on every
# workload, or read zero on correct code (error_rate is failed/attempted).
REPORTED_ONLY = (
    Metric("loo_s", "s", "lower"),
    Metric("compare_s", "s", "lower"),
    Metric("pearson_r", "1", "higher"),
    Metric("error_rate", "ratio", "lower"),
)
PER_LAYER = (
    Metric("cli.import_s", "s", "lower"),
    Metric("cli.build_model_s", "s", "lower"),
    Metric("cli.csv_write_s", "s", "lower"),
    Metric("losscore.train_calls", "count", "lower"),
    Metric("losscore.train_s", "s", "lower"),
    Metric("coxloss.gradient_calls", "count", "lower"),
    Metric("coxloss.gradient_s", "s", "lower"),
    Metric("coxloss.delta_gradient_calls", "count", "lower"),
    Metric("coxloss.delta_gradient_s", "s", "lower"),
    Metric("coxloss.delta_gradient_p50_ms", "ms", "lower"),
    Metric("coxloss.delta_gradient_p99_ms", "ms", "lower"),
    Metric("coxloss.per_term_hvp_calls", "count", "lower"),
    Metric("coxloss.per_term_hvp_s", "s", "lower"),
    Metric("coxloss.hessian_s", "s", "lower"),
    Metric("ltrloss.term_gradient_sum_calls", "count", "lower"),
    Metric("ltrloss.term_gradient_sum_s", "s", "lower"),
    Metric("ltrloss.gradient_s", "s", "lower"),
    Metric("ltrloss.hessian_s", "s", "lower"),
    Metric("ltrloss.delta_gradient_s", "s", "lower"),
    Metric("embedloss.generate_walks_calls", "count", "lower"),
    Metric("embedloss.generate_walks_s", "s", "lower"),
    Metric("embedloss.walks_to_pairs_s", "s", "lower"),
    Metric("embedloss.pair_cache_hit_ratio", "ratio", "higher"),
    Metric("embedloss.delta_gradient_s", "s", "lower"),
    Metric("numkit.solve_spd_calls", "count", "lower"),
    Metric("numkit.solve_spd_s", "s", "lower"),
    Metric("numkit.solve_spd_p50_ms", "ms", "lower"),
    Metric("numkit.solve_spd_p99_ms", "ms", "lower"),
    Metric("numkit.lu_fallbacks", "count", "lower"),
    Metric("numkit.lissa_solve_calls", "count", "lower"),
    Metric("numkit.lissa_solve_self_s", "s", "lower"),
    Metric("attributor.assembly_count", "count", "lower"),
    Metric("attributor.context_s", "s", "lower"),
    Metric("attributor.attribute_target_self_s", "s", "lower"),
    Metric("harness.loo_retrains", "count", "lower"),
    Metric("harness.loo_converged", "count", "higher"),
    Metric("harness.loo_retrain_s", "s", "lower"),
    Metric("harness.compare_s", "s", "lower"),
    Metric("harness.pearson_r", "1", "higher"),
) + tuple(Metric(f"trace.overhead.{s}_s", "s", "lower") for s in STAGES)


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [m.spec() for m in END_TO_END],
        "per_layer": [m.spec() for m in PER_LAYER],
    }


# ---------------------------------------------------------------- processes


class BenchError(Exception):
    """The benchmark itself cannot run here (no program, broken environment)."""


@dataclass
class StageRun:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    traced: bool
    check: str = "not run"  # "ok" or the reason the output check failed

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.check == "ok"


def _stage_env() -> dict:
    # Threading variables are inherited untouched: the BLAS thread count in
    # effect is part of what the benchmark records, not something it fixes.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list, log_path: str, timeout: float):
    """Run argv to completion; return (wall_s, cpu_s, peak_rss_mib, exit_code)."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_stage_env(), stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4; keep Popen from waiting again
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, code


def _median(values):
    return statistics.median(values) if values else None


def _percentile_ms(durations, q):
    if not durations:
        return 0.0
    ordered = sorted(durations)
    k = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[k] * 1000.0


# ---------------------------------------------------------------- checks


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class RunDir:
    """One workload's run directory plus what its synth output implies."""

    def __init__(self, path: str, workload: Workload, config: dict):
        self.path = path
        self.workload = workload
        self.config = config
        self.objects = None
        self.targets = None
        self.zero_drop_one = 0  # cox records whose drop-one gradient is exactly 0

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def check_synth(self) -> str:
        s, scenario = self.config["synth"], self.workload.scenario
        if scenario == "cox":
            rows = _csv_rows(self.file("survival.csv"))
            test = _csv_rows(self.file("survival_test.csv"))
            if len(rows) != s["n"] or len(test) != s["n_test"]:
                return f"survival rows {len(rows)}/{len(test)}, expected {s['n']}/{s['n_test']}"
            times = [(float(r[0]), int(r[1])) for r in rows]
            first_event = min(y for y, d in times if d == 1)
            # censored before any event: no risk set loses it, no term is its own
            self.zero_drop_one = sum(1 for y, d in times if d == 0 and y < first_event)
            self.objects, self.targets = len(rows), len(test)
        elif scenario == "ltr":
            queries = _csv_rows(self.file("queries.csv"))
            test = _csv_rows(self.file("queries_test.csv"))
            labels = _csv_rows(self.file("labels.csv"))
            if len(queries) != s["m"] or len(test) != s["n_test"]:
                return f"query rows {len(queries)}/{len(test)}, expected {s['m']}/{s['n_test']}"
            # the item universe is read back from the training labels
            self.objects = max(int(r[2]) for r in labels) + 1
            self.targets = len(test)
        else:
            with open(self.file("edges.txt")) as fh:
                edges = [tuple(map(int, line.split())) for line in fh if line.strip()]
            if len(edges) != KARATE_EDGES:
                return f"{len(edges)} edges, expected {KARATE['edges']}"
            self.objects = max(max(e) for e in edges) + 1
            self.targets = len(edges)
        return "ok"

    def check_checkpoint(self) -> str:
        with open(self.file("checkpoint.bin"), "rb") as fh:
            header = json.loads(fh.readline())
            payload = fh.read()
        if len(payload) != 8 * header["dim"]:
            return f"checkpoint payload {len(payload)} bytes for dim {header['dim']}"
        return "ok"

    def scores(self, name: str, column: str):
        """Stream (object_id, test_id, text) rows of one score column.

        Streaming keeps this process small: a child inherits the parent's peak
        RSS as its starting ru_maxrss, so a large parent would hide the
        stage's own peak.
        """
        with open(self.file(name), newline="") as fh:
            for r in csv.DictReader(fh):
                yield int(r["object_id"]), int(r["test_id"]), r[column]

    def check_scores(self, name: str, columns: tuple) -> str:
        want = self.objects * self.targets
        for column in columns:
            seen = bytearray(want)
            rows = bad = 0
            for o, t, v in self.scores(name, column):
                rows += 1
                if 0 <= o < self.objects and 0 <= t < self.targets:
                    seen[o * self.targets + t] = 1
                bad += not _finite(v)
            if rows != want or sum(seen) != want:
                return f"{name}: {rows} rows covering {sum(seen)} of {want} (object, target) pairs"
            if bad:
                return f"{name}: {bad} non-finite {column} scores"
        return "ok"

    def pearson_r(self) -> float:
        with open(self.file("summary.json")) as fh:
            return float(json.load(fh)["pearson_r"])

    def check(self, stage: str) -> str:
        try:
            if stage == "synth":
                return self.check_synth()
            if stage == "train":
                return self.check_checkpoint()
            if stage == "attribute":
                return self.check_scores("influences.csv", ("vif",))
            if stage == "loo":
                return self.check_scores("loo.csv", ("loo",))
            r = self.pearson_r()
            if not r >= PEARSON_FLOOR:
                return f"pearson_r {r:.6f} below the floor {PEARSON_FLOOR}"
            return self.check_scores("influences.csv", ("vif", "loo"))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{stage} output unreadable: {type(exc).__name__}: {exc}"


def reference_path(workload: str) -> str:
    return os.path.join(BENCH_DIR, "reference", f"{workload}.json")


def _sample_scores(rundir: RunDir, stride: int):
    """Every stride-th (object, target, score) row and the sum of |score|."""
    sample, abs_sum, rows = [], 0.0, 0
    for pos, (o, t, text) in enumerate(rundir.scores("influences.csv", "vif")):
        v = float(text)
        abs_sum += abs(v)
        rows += 1
        if pos % stride == 0:
            sample.append([o, t, v])
    return sample, abs_sum, rows


def check_reference(rundir: RunDir) -> str:
    """Compare influences.csv with the scores recorded from the seed commit.

    A score passes when |v - r| <= REFERENCE_RTOL * (|r| + 1e-6 * max|r|):
    relative, with a floor for scores that cancel to near zero.
    """
    with open(reference_path(rundir.workload.name)) as fh:
        ref = json.load(fh)
    sample, abs_sum, rows = _sample_scores(rundir, ref["stride"])
    if rows != ref["rows"]:
        return f"fail: {rows} rows, reference has {ref['rows']}"
    floor = 1e-6 * max(abs(r) for _, _, r in ref["scores"])
    worst = abs(abs_sum - ref["abs_sum"]) / ref["abs_sum"]
    for (o, t, r), (oo, tt, v) in zip(ref["scores"], sample):
        if (o, t) != (oo, tt):
            return f"fail: row order differs at object {o} target {t}"
        worst = max(worst, abs(v - r) / (abs(r) + floor))
    if worst > REFERENCE_RTOL:
        return f"fail: relative deviation {worst:.3e} > {REFERENCE_RTOL:.0e}"
    return f"pass ({worst:.1e} <= {REFERENCE_RTOL:.0e})"


def write_reference(rundir: RunDir, seed: int):
    rows = rundir.objects * rundir.targets
    stride = max(1, rows // 2000)
    sample, abs_sum, rows = _sample_scores(rundir, stride)
    ref = {
        "workload": rundir.workload.name,
        "seed": seed,
        "rows": rows,
        "stride": stride,
        "abs_sum": abs_sum,
        "scores": sample,
    }
    os.makedirs(os.path.dirname(reference_path(rundir.workload.name)), exist_ok=True)
    with open(reference_path(rundir.workload.name), "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")


# ---------------------------------------------------------------- traces


def load_spans(path: str) -> dict:
    """Per span name: call count, inclusive durations and total self time."""
    with open(path) as fh:
        dump = json.load(fh)
    names, spans = dump["names"], dump["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layers = {}
    for pos, (name_id, start, end, _) in enumerate(spans):
        entry = layers.setdefault(names[name_id], {"calls": 0, "durations": [], "self_s": 0.0})
        entry["calls"] += 1
        entry["durations"].append(end - start)
        entry["self_s"] += (end - start) - child_time[pos]
    return {"layers": layers, "missing": dump["missing"], "loo_converged": dump["loo_converged"]}


def tracer_check(workload: Workload, rundir: RunDir, layers: dict) -> dict:
    """Expected call counts in the traced attribute stage, from the inputs.

    With the default seed these are the counts measured on the seed code:
    cox-loo 200 delta_gradient, 200 lissa_solve and 19,900 per_term_hvp (one
    record's drop-one gradient is exactly zero, so its LiSSA solve returns
    at once); embed 35 generate_walks, 34 delta_gradient, 34 solve_spd;
    cox-scale 5,000 delta_gradient and 5,000 solve_spd.
    """
    n = rundir.objects
    family = {"cox": "coxloss", "ltr": "ltrloss", "embed": "embedloss"}[workload.scenario]
    want = {f"{family}.delta_gradient": n}
    if workload.explicit:
        want["numkit.solve_spd"] = n
        want["attributor.assemble"] = 1
    else:
        want["numkit.lissa_solve"] = n
        want["coxloss.per_term_hvp"] = LISSA_STEPS * (n - rundir.zero_drop_one)
    if workload.scenario == "embed":
        want["embedloss.generate_walks"] = n + 1  # full corpus plus one per dropped node
    return {
        name: {"expected": count, "got": layers.get(name, {}).get("calls", 0)}
        for name, count in want.items()
    }


def layer_metrics(traces: dict, import_s: float, overhead: dict, pearson: float) -> dict:
    """Per-layer metrics from the traced stages' span summaries."""
    merged: dict = {}
    for stage_trace in traces.values():
        for name, entry in stage_trace["layers"].items():
            m = merged.setdefault(name, {"calls": 0, "durations": [], "self_s": 0.0})
            m["calls"] += entry["calls"]
            m["durations"] += entry["durations"]
            m["self_s"] += entry["self_s"]

    def calls(name):
        return merged.get(name, {}).get("calls", 0)

    def total(name):
        return sum(merged.get(name, {}).get("durations", []))

    def self_s(name):
        return merged.get(name, {}).get("self_s", 0.0)

    def pct(name, q):
        return _percentile_ms(merged.get(name, {}).get("durations", []), q)

    attribute = traces.get("attribute", {"layers": {}})["layers"]
    loo = traces.get("loo", {"loo_converged": 0})
    walks, lookups = calls("embedloss.generate_walks"), calls("embedloss.pair_counts")
    values = {
        "cli.import_s": import_s,
        "cli.build_model_s": total("cli.build_model"),
        "cli.csv_write_s": sum(attribute.get("cli.csv_write", {}).get("durations", [])),
        "losscore.train_calls": calls("losscore.train"),
        "losscore.train_s": total("losscore.train"),
        "coxloss.gradient_calls": calls("coxloss.gradient"),
        "coxloss.gradient_s": total("coxloss.gradient"),
        "coxloss.delta_gradient_calls": calls("coxloss.delta_gradient"),
        "coxloss.delta_gradient_s": total("coxloss.delta_gradient"),
        "coxloss.delta_gradient_p50_ms": pct("coxloss.delta_gradient", 0.5),
        "coxloss.delta_gradient_p99_ms": pct("coxloss.delta_gradient", 0.99),
        "coxloss.per_term_hvp_calls": calls("coxloss.per_term_hvp"),
        "coxloss.per_term_hvp_s": total("coxloss.per_term_hvp"),
        "coxloss.hessian_s": total("coxloss.hessian"),
        "ltrloss.term_gradient_sum_calls": calls("ltrloss.term_gradient_sum"),
        "ltrloss.term_gradient_sum_s": total("ltrloss.term_gradient_sum"),
        "ltrloss.gradient_s": total("ltrloss.gradient"),
        "ltrloss.hessian_s": total("ltrloss.hessian"),
        "ltrloss.delta_gradient_s": total("ltrloss.delta_gradient"),
        "embedloss.generate_walks_calls": walks,
        "embedloss.generate_walks_s": total("embedloss.generate_walks"),
        "embedloss.walks_to_pairs_s": total("embedloss.walks_to_pairs"),
        "embedloss.pair_cache_hit_ratio": 1.0 - walks / lookups if lookups else 0.0,
        "embedloss.delta_gradient_s": total("embedloss.delta_gradient"),
        "numkit.solve_spd_calls": calls("numkit.solve_spd"),
        "numkit.solve_spd_s": total("numkit.solve_spd"),
        "numkit.solve_spd_p50_ms": pct("numkit.solve_spd", 0.5),
        "numkit.solve_spd_p99_ms": pct("numkit.solve_spd", 0.99),
        "numkit.lu_fallbacks": calls("numkit.lu_fallback"),
        "numkit.lissa_solve_calls": calls("numkit.lissa_solve"),
        "numkit.lissa_solve_self_s": self_s("numkit.lissa_solve"),
        "attributor.assembly_count": calls("attributor.assemble"),
        "attributor.context_s": total("attributor.context"),
        "attributor.attribute_target_self_s": self_s("attributor.attribute_target"),
        "harness.loo_retrains": calls("harness.loo_one"),
        "harness.loo_converged": loo["loo_converged"],
        "harness.loo_retrain_s": total("harness.loo_retrain"),
        "harness.compare_s": total("harness.compare"),
        "harness.pearson_r": pearson,
    }
    for stage in STAGES:
        values[f"trace.overhead.{stage}_s"] = overhead.get(stage, 0.0)
    return values


# ---------------------------------------------------------------- one run


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


class Runner:
    """Runs one workload: set-up, timed repetitions, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_root: str, check_reference: bool = True):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.out_root = out_root
        self.path = os.path.join(out_root, workload.name)
        config = {"seed": seed, "out": self.path, "jobs": 1}
        config = _deep_merge(config, workload.config)
        if smoke:
            config = _deep_merge(config, workload.smoke)
        self.config = config
        self.config_path = os.path.join(out_root, f"{workload.name}.config.json")
        self.log_path = os.path.join(out_root, f"{workload.name}.log")  # stage output
        self.rundir = RunDir(self.path, workload, config)
        self.runs: list[StageRun] = []
        self.traces: dict = {}
        # on other seeds and sizes there are no recorded scores to compare with
        self.check_reference = check_reference and not smoke and seed == DEFAULT_SEED
        self.reference = "not run" if self.check_reference else "skipped"
        self.pearson = None

    # -- processes

    def _remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def _argv(self, stage: str, args: tuple, spans: str | None) -> list:
        head = [sys.executable]
        head += [os.path.join(BENCH_DIR, "tracer.py"), spans] if spans else ["-m", "vifkit.cli"]
        return head + [stage, "--config", self.config_path, *args]

    def stage(self, stage: str, args: tuple, traced: bool) -> StageRun:
        spans = os.path.join(self.out_root, f"{self.workload.name}.{stage}.spans.json")
        wall, cpu, rss, code = _spawn(self._argv(stage, args, spans if traced else None),
                                      self.log_path, self._remaining())
        run = StageRun(stage, wall, cpu, rss, code, traced)
        run.check = self.rundir.check(stage) if code == 0 else f"exit code {code}"
        if run.ok and stage == "attribute" and self.check_reference:
            self.reference = check_reference(self.rundir)
            if not self.reference.startswith("pass"):
                run.check = f"reference scores: {self.reference}"
        if run.ok and stage == "compare":
            self.pearson = self.rundir.pearson_r()
        if traced and os.path.exists(spans):
            self.traces[stage] = load_spans(spans)
        self.runs.append(run)
        return run

    def repetition(self, traced: bool) -> bool:
        for stage, args in self.workload.stages:
            if not self.stage(stage, args, traced).ok:
                return False
        return True

    def next_stage(self, deadline: float):
        """The least-sampled stage that fits before the deadline, or None.

        Every stage rewrites its outputs byte for byte on a rerun, so after the
        first pass any stage may run again in any order; once a long stage no
        longer fits, the short ones keep collecting samples.
        """
        left = deadline - time.monotonic()
        fits = [(len(self.walls(stage)), pos, (stage, args))
                for pos, (stage, args) in enumerate(self.workload.stages)
                if _median(self.walls(stage)) <= left]
        return min(fits)[2] if fits else None

    def import_time(self) -> float:
        code = "import time; t = time.perf_counter(); import vifkit.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(1 if self.smoke else 3):
            done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_stage_env(),
                                  capture_output=True, text=True, timeout=60)
            if done.returncode == 0:
                samples.append(float(done.stdout.strip()))
        return _median(samples) or 0.0

    def probe(self) -> dict:
        done = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "machine.py")],
                              cwd=ROOT, env=_stage_env(), capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise BenchError(f"cannot import numpy/scipy for the program: {done.stderr.strip()}")
        facts = json.loads(done.stdout.strip().splitlines()[-1])
        location = facts["vifkit"].get("file") or ""
        if not os.path.abspath(location).startswith(os.path.join(SRC, "vifkit")):
            raise BenchError(f"vifkit is not importable from {SRC}: {facts['vifkit']}")
        return facts

    # -- the run

    def run(self) -> dict:
        if not os.path.isfile(os.path.join(SRC, "vifkit", "cli.py")):
            raise BenchError(f"no program source at {SRC}/vifkit; run from a checkout")
        self.start = time.monotonic()
        os.makedirs(self.out_root, exist_ok=True)
        shutil.rmtree(self.path, ignore_errors=True)
        with open(self.log_path, "w"):
            pass
        with open(self.config_path, "w") as fh:
            json.dump(self.config, fh, indent=2, sort_keys=True)
        facts = {**machine.host_facts(), **self.probe()}
        measure_start = time.monotonic()
        deadline = measure_start + self.seconds

        import_s = 0.0
        ok = self.repetition(traced=False)
        if ok and self.trace:
            import_s = self.import_time()
            ok = self.repetition(traced=True)
        while ok:
            stage = self.next_stage(deadline)
            if stage is None:
                break
            ok = self.stage(*stage, traced=False).ok
        facts["loadavg_end"] = machine.host_facts()["loadavg"]
        # every stage's ru_maxrss starts at this process's peak (see RunDir.scores)
        facts["bench_peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.record(facts, import_s, time.monotonic() - measure_start)

    # -- results

    def walls(self, stage: str, key: str = "wall_s", traced: bool = False) -> list:
        return [getattr(r, key) for r in self.runs
                if r.stage == stage and r.traced == traced and r.ok]

    def stage_walls(self) -> dict:
        """Untraced samples per stage: count, wall min/median/max, median CPU time."""
        out = {}
        for stage, _ in self.workload.stages:
            walls = self.walls(stage)
            if walls:
                out[stage] = {"n": len(walls), "min": min(walls), "median": _median(walls),
                              "max": max(walls), "cpu_median": _median(self.walls(stage, "cpu_s"))}
        return out

    def end_to_end(self, walls: dict) -> dict:
        med = {stage: w["median"] for stage, w in walls.items()}
        complete = len(med) == len(self.workload.stages)
        failed = sum(not r.ok for r in self.runs)
        return {
            "setup_s": med.get("synth"),
            "train_s": med.get("train"),
            "attribute_s": med.get("attribute"),
            "pipeline_s": sum(med.values()) if complete else None,
            "attribute_peak_rss_mb": _median(self.walls("attribute", "rss_mib")),
            "loo_s": med.get("loo"),
            "compare_s": med.get("compare"),
            "pearson_r": self.pearson,
            "error_rate": failed / len(self.runs) if self.runs else None,
        }

    def record(self, facts: dict, import_s: float, measured_s: float) -> dict:
        walls = self.stage_walls()
        result = {"stage_walls": walls, "end_to_end": self.end_to_end(walls)}
        if self.trace and self.traces:
            overhead = {}
            for stage, _ in self.workload.stages:
                traced = self.walls(stage, traced=True)
                if traced and stage in walls:
                    overhead[stage] = traced[0] - walls[stage]["median"]
            result["per_layer"] = layer_metrics(self.traces, import_s, overhead,
                                                self.pearson or 0.0)
            attribute = self.traces.get("attribute", {"layers": {}})["layers"]
            result["tracer_check"] = tracer_check(self.workload, self.rundir, attribute)
            result["tracer_missing"] = sorted(
                {m for t in self.traces.values() for m in t["missing"]}
            )
        failed = sum(not r.ok for r in self.runs)
        wanted = PER_LAYER if self.trace else END_TO_END
        values = result.get("per_layer" if self.trace else "end_to_end", {})
        metrics = {m.name: {"value": values[m.name], "unit": m.unit}
                   for m in wanted if values.get(m.name) is not None}
        correct = bool(self.runs) and failed == 0 and len(metrics) == len(wanted)
        summary = {"correct": correct, "attempted": len(self.runs), "failed": failed,
                   "metrics": metrics}
        record = {
            "workload": self.workload.name,
            "why": self.workload.why,
            "seed": self.seed,
            "seconds": self.seconds,
            "measured_s": measured_s,
            "trace": self.trace,
            "smoke": self.smoke,
            "config": self.config,
            "machine": facts,
            "checks": {
                "reference": self.reference,
                "pearson_floor": PEARSON_FLOOR if "compare" in dict(self.workload.stages) else None,
                "reference_rtol": REFERENCE_RTOL,
            },
            "stages": [vars(r) for r in self.runs],
            **result,
            "summary": summary,
        }
        name = f"BENCH_{self.workload.name}{'_trace' if self.trace else ''}.json"
        with open(os.path.join(self.out_root, name), "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return record


# ---------------------------------------------------------------- output


def _fmt(value, unit: str) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value} {unit}"
    return f"{value:.6g} {unit}"


def print_record(record: dict):
    w, e2e = record["workload"], record["end_to_end"]
    blas = record["machine"].get("blas_threads_in_effect")
    print(f"== {w}  seed={record['seed']}  trace={int(record['trace'])}  "
          f"nproc={record['machine']['nproc']}  blas_threads={blas}  "
          f"measured {record['measured_s']:.1f} s")
    print(f"   benchmark process peak RSS {record['machine']['bench_peak_rss_mib']:.1f} MiB")
    for stage, w in record["stage_walls"].items():
        print(f"   {stage:9s} n={w['n']:<3d} wall min {w['min']:.4f} s  median {w['median']:.4f} s"
              f"  max {w['max']:.4f} s;  CPU median {w['cpu_median']:.4f} s")
    for m in END_TO_END + REPORTED_ONLY:
        gate = f"  (bound {m.bound:.0%})" if m.bound is not None else ""
        print(f"   {m.name:28s} {_fmt(e2e.get(m.name), m.unit):>18s}  {m.better} is better{gate}")
    print(f"   reference check: {record['checks']['reference']}")
    for s in record["stages"]:
        if s["check"] != "ok":
            print(f"   FAILED {s['stage']}{' (traced)' if s['traced'] else ''}: {s['check']}")
    if "per_layer" in record:
        for m in PER_LAYER:
            print(f"   {m.name:38s} {_fmt(record['per_layer'][m.name], m.unit):>18s}")
        bad = {k: v for k, v in record["tracer_check"].items() if v["expected"] != v["got"]}
        checked = ", ".join(f"{k}={v['got']}" for k, v in record["tracer_check"].items())
        print(f"   tracer self-check: {'pass' if not bad else 'MISMATCH ' + str(bad)} ({checked})")
        if record["tracer_missing"]:
            print(f"   tracer could not find: {record['tracer_missing']}")


def tracer_ok(record: dict) -> bool:
    checks = record.get("tracer_check", {})
    return bool(checks) and all(v["expected"] == v["got"] for v in checks.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one traced and one untraced pass per workload")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_runs"),
                        help="directory for run directories and BENCH_*.json records")
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from the definitions here and exit")
    parser.add_argument("--record-reference", action="store_true",
                        help="store the default-seed scores as the reference (seed commit only)")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return 0

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.smoke
    seconds = 0.0 if args.smoke else args.seconds
    records = []
    try:
        for name in names:
            runner = Runner(WORKLOADS[name], args.seed, seconds, trace, args.smoke,
                            os.path.abspath(args.out), not args.record_reference)
            record = runner.run()
            if args.record_reference and record["summary"]["correct"]:
                write_reference(runner.rundir, args.seed)
            records.append(record)
            print_record(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if len(records) == 1:
        summary = records[0]["summary"]
    else:
        summary = {
            "correct": all(r["summary"]["correct"] for r in records),
            "attempted": sum(r["summary"]["attempted"] for r in records),
            "failed": sum(r["summary"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["summary"]["metrics"].items()},
        }
    if args.smoke and not all(tracer_ok(r) for r in records):
        summary["correct"] = False
    print(json.dumps(summary))
    return 0 if summary["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
