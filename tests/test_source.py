"""Every package module compiles with warnings treated as errors, every
exported name exists, and each stage loads only the modules it runs.

Invalid escape sequences in string literals warn at compile time
(DeprecationWarning, SyntaxWarning from Python 3.12), and byte-compiled
caches hide the warning on later imports, so compile from source here.

A `vif` stage is one short process, so every module it imports without
running adds to its wall time; the start-up tests read sys.modules in fresh
interpreters.  `hashlib` loads OpenSSL (`_hashlib`), several MiB of a
stage's peak RSS, so no stage that draws no random numbers may load it.
"""

import hashlib
import json
import pathlib
import subprocess
import sys
import warnings

import pytest

import vifkit
from conftest import subprocess_env
from vifkit import cli
from vifkit.cli import main

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "vifkit"
OPENSSL = {"hashlib", "_hashlib"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def last_json(code: str):
    """The JSON value a fresh interpreter prints last after running code."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def modules_after(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    return set(last_json(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def test_every_exported_name_resolves():
    # in a fresh interpreter, where no lookup has cached a name yet
    listed, missing, unknown = last_json(
        "import json, vifkit\n"
        "listed = dir(vifkit)\n"
        "missing = [name for name in vifkit.__all__ if not hasattr(vifkit, name)]\n"
        "print(json.dumps([listed, missing, hasattr(vifkit, 'no_such_name')]))"
    )
    assert sorted(set(vifkit.__all__) - set(listed)) == []
    assert missing == [] and unknown is False


def run_stage(stage: str, *argv: str) -> set:
    """The modules loaded by one stage run through cli.main in a fresh interpreter."""
    args = [stage, *argv]
    return modules_after(f"from vifkit.cli import main\nassert main({args!r}) == 0")


def test_package_import_loads_no_submodule():
    loaded = modules_after("import vifkit")
    assert sorted(m for m in loaded if m.startswith("vifkit.")) == []


def test_files_import_loads_only_errors():
    loaded = modules_after("import vifkit.files")
    assert sorted(m for m in loaded if m.startswith("vifkit.")) == ["vifkit.errors", "vifkit.files"]


@pytest.mark.parametrize("code", [
    "import numpy as np\nfrom vifkit.numkit import lissa_solve\n"
    "lissa_solve(lambda j, v: v * (j + 1), 20, 10.0, 0.0, np.ones((3, 2)), 0, n_terms=4)",
    "from vifkit.losscore import derive_seed\nderive_seed(42, 7)",
], ids=["numkit.lissa_solve", "losscore.derive_seed"])
def test_lissa_and_seed_derivation_load_no_numpy_random(code):
    # numpy loads numpy.random on first use of np.random, so import and call:
    # both draw from vifkit.pcg64, a copy of numpy's integer streams
    assert sorted(modules_after(code) & ({"numpy.random"} | OPENSSL)) == []


def test_cli_import_loads_only_its_own_layer():
    loaded = modules_after("import vifkit.cli")
    unwanted = {f"vifkit.{m}" for m in ("attributor", "coxloss", "embedloss", "harness",
                                        "logisticloss", "losscore", "ltrloss", "synth")}
    unwanted |= {"numpy.ma", "concurrent.futures"} | OPENSSL
    assert sorted(loaded & unwanted) == []


def test_config_hash_is_sha256_of_the_hashed_keys(tmp_path):
    # the benchmark's cox-scale config at seed 42, and its digest at the
    # version that still took SHA-256 from hashlib
    cfg_path = tmp_path / "cox-scale.json"
    cfg_path.write_text(json.dumps({
        "scenario": "cox", "seed": 42, "out": str(tmp_path / "run"), "jobs": 1,
        "synth": {"n": 5000, "d": 10, "n_test": 50},
    }))
    cfg = cli.load_config(cli.build_parser().parse_args(["attribute", "--config", str(cfg_path)]))
    digest = cli.config_hash(cfg)
    assert digest == "edb606d4a8b69c007dfbed18f5bc6f095dec3a83caee05e87d5958f3117daee7"
    subset = {k: cfg[k] for k in cli.HASHED_KEYS if k in cfg}
    blob = json.dumps(subset, sort_keys=True, separators=(",", ":"))
    assert digest == hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def cox_run(tmp_path_factory):
    """A small Cox run directory that has been through synth, train and
    attribute in this process."""
    tmp = tmp_path_factory.mktemp("startup")
    cfg_path = tmp / "cox.json"
    cfg_path.write_text(json.dumps({
        "scenario": "cox", "seed": 1, "out": str(tmp / "run"),
        "synth": {"n": 30, "n_test": 5},
        "train": {"optimizer": "adam", "learning_rate": 0.01, "epochs": 20},
    }))
    for stage in ("synth", "train", "attribute"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    return str(cfg_path)


def test_cox_synth_loads_no_oracle_or_attributor(cox_run):
    loaded = run_stage("synth", "--config", cox_run)
    assert {"vifkit.synth", "vifkit.coxloss"} <= loaded
    unwanted = {"vifkit.harness", "vifkit.attributor", "vifkit.logisticloss"}
    assert sorted(loaded & unwanted) == []


def test_cox_train_loads_no_other_scenario_or_later_stage(cox_run):
    loaded = run_stage("train", "--config", cox_run)
    assert "vifkit.coxloss" in loaded
    unwanted = {"vifkit.embedloss", "vifkit.ltrloss", "vifkit.attributor", "vifkit.harness",
                "numpy.ma", "numpy.random", "subprocess"} | OPENSSL
    assert sorted(loaded & unwanted) == []


def test_cox_attribute_starts_no_process(cox_run, tmp_path):
    # a 150-row table, and a 100,000-row one from a small-d run, which the
    # two-CPU share rule of earlier versions split over two processes: both
    # written in this process
    big = tmp_path / "cox.json"
    big.write_text(json.dumps({
        "scenario": "cox", "seed": 1, "out": str(tmp_path / "run"),
        "synth": {"n": 2000, "d": 1, "n_test": 50},
        "train": {"optimizer": "adam", "learning_rate": 0.01, "epochs": 5},
    }))
    for stage in ("synth", "train"):
        assert main([stage, "--config", str(big)]) == 0
    for cfg_path, rows in ((cox_run, 150), (str(big), 100_000)):
        loaded = run_stage("attribute", "--config", cfg_path)
        assert "vifkit.attributor" in loaded
        assert sorted(loaded & ({"subprocess", "numpy.ma", "concurrent.futures"} | OPENSSL)) == []
        table = pathlib.Path(json.loads(pathlib.Path(cfg_path).read_text())["out"], "influences.csv")
        with open(table) as fh:
            assert sum(1 for _ in fh) == rows + 1


def test_cox_lissa_attribute_and_newton_loo_load_no_numpy_random(tmp_path):
    # the per-term LiSSA index stream and each per-retrain seed are integers
    # drawn by vifkit.pcg64, so neither stage loads numpy.random or OpenSSL
    cfg_path, out = tmp_path / "cox.json", tmp_path / "run"
    cfg_path.write_text(json.dumps({
        "scenario": "cox", "seed": 1, "out": str(out),
        "synth": {"n": 30, "n_test": 5}, "train": {"optimizer": "newton", "epochs": 20},
    }))
    for stage in ("synth", "train"):
        assert main([stage, "--config", str(cfg_path)]) == 0
    loaded = run_stage("attribute", "--config", str(cfg_path), "--solver", "lissa")
    assert sorted(loaded & ({"numpy.random"} | OPENSSL)) == []
    assert json.loads((out / "attribute_meta.json").read_text())["lissa"]["mode"] == "per_term"
    loaded = run_stage("loo", "--config", str(cfg_path), "--jobs", "1")
    assert sorted(loaded & ({"numpy.random", "concurrent.futures"} | OPENSSL)) == []
    meta = json.loads((out / "loo_meta.json").read_text())
    assert meta["n_retrains"] == 30 and meta["group_rows"] == []  # one retrain at a time


@pytest.mark.parametrize("stage, argv", [("loo", ("--jobs", "1")), ("compare", ())])
def test_cox_loo_and_compare_load_no_masked_arrays_or_process_pool(cox_run, stage, argv):
    if stage == "compare":
        assert main(["loo", "--config", cox_run]) == 0
    loaded = run_stage(stage, "--config", cox_run, *argv)
    assert sorted(loaded & ({"numpy.ma", "concurrent.futures", "subprocess"} | OPENSSL)) == []
    if stage == "compare":  # it reads score tables and runs no model
        unwanted = {f"vifkit.{m}" for m in ("attributor", "coxloss", "embedloss",
                                            "logisticloss", "ltrloss", "synth")}
        assert sorted(loaded & unwanted) == []
