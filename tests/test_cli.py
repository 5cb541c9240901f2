import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plumerom
from plumerom.cli import THREAD_VARIABLES, main
from plumerom.smx import read_smx, write_smx


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small generate -> train run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    model = root / "model"
    assert main(["generate", "--out", str(data), "--n", "40",
                 "--grid", "41x21", "--seed", "3"]) == 0
    assert main(["train", "--dataset", str(data), "--out", str(model),
                 "--L", "4", "--method", "map", "--seed", "0"]) == 0
    return root, data, model


def test_generate_outputs(pipeline):
    _, data, _ = pipeline
    assert (data / "full.smx").exists()
    assert (data / "half.smx").exists()
    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["n_snapshots"] == 40
    run_config = json.loads((data / "run_config.json").read_text())
    assert run_config["command"] == "generate"
    assert run_config["config"]["n"] == 40


def test_generate_refuses_nonempty_without_force(pipeline):
    _, data, _ = pipeline
    assert main(["generate", "--out", str(data), "--n", "10",
                 "--grid", "41x21"]) == 3


def test_generate_rerun_byte_identical(pipeline, tmp_path):
    _, data, _ = pipeline
    again = tmp_path / "again"
    assert main(["generate", "--config", str(data / "run_config.json"),
                 "--out", str(again)]) == 0
    assert (again / "full.smx").read_bytes() == (data / "full.smx").read_bytes()
    assert (again / "half.smx").read_bytes() == (data / "half.smx").read_bytes()
    assert (again / "manifest.json").read_text() == (data / "manifest.json").read_text()


def test_train_outputs(pipeline):
    _, _, model = pipeline
    meta = json.loads((model / "model.json").read_text())
    assert meta["method"] == "map"
    assert len(meta["gps"]) == 4
    assert meta["priors_audit"] is not None
    assert (model / "basis.smx").exists()
    assert (model / "gps.smx").exists()


def test_train_rerun_byte_identical(pipeline, tmp_path):
    _, data, model = pipeline
    again = tmp_path / "again"
    assert main(["train", "--dataset", str(data), "--out", str(again),
                 "--L", "4", "--method", "map", "--seed", "0"]) == 0
    names = sorted(p.name for p in model.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (again / name).read_bytes() == (model / name).read_bytes(), name


def test_train_config_round_trip(pipeline, tmp_path):
    # train's run_config.json records the dataset beside the settings
    _, data, model = pipeline
    again = tmp_path / "again"
    assert main(["train", "--config", str(model / "run_config.json"),
                 "--dataset", str(data), "--out", str(again)]) == 0
    assert (again / "gps.smx").read_bytes() == (model / "gps.smx").read_bytes()


def test_train_split_independent_of_method(pipeline, tmp_path):
    _, data, model = pipeline
    prior_dir = tmp_path / "prior_model"
    assert main(["train", "--dataset", str(data), "--out", str(prior_dir),
                 "--L", "4", "--method", "prior"]) == 0
    a = json.loads((model / "model.json").read_text())["split_manifest"]
    b = json.loads((prior_dir / "model.json").read_text())["split_manifest"]
    assert a["train"]["hash"] == b["train"]["hash"]
    assert a["calibration"]["hash"] == b["calibration"]["hash"]


def test_train_prior_zero_iterations(pipeline, tmp_path):
    _, data, _ = pipeline
    out = tmp_path / "prior2"
    assert main(["train", "--dataset", str(data), "--out", str(out),
                 "--L", "3", "--method", "prior"]) == 0
    meta = json.loads((out / "model.json").read_text())
    assert all(g["diagnostics"]["total_iterations"] == 0 for g in meta["gps"])


def test_train_excessive_L_is_config_error(pipeline, tmp_path):
    _, data, _ = pipeline
    assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "x"),
                 "--L", "400", "--method", "prior"]) == 2


def test_predict_physical_point(pipeline, tmp_path):
    root, _, model = pipeline
    out = tmp_path / "pred"
    assert main(["predict", "--model", str(model), "--out", str(out),
                 "--mu", "5.78,2.79e-2,-1.01,0.830"]) == 0
    field, nx, nz = read_smx(out / "field.smx")
    assert (nx, nz) == (41, 21)
    lines = (out / "coefficients.csv").read_text().splitlines()
    assert lines[0] == "mode,mean,variance"
    assert len(lines) == 5


def test_predict_unit_point(pipeline, tmp_path):
    _, _, model = pipeline
    out = tmp_path / "predu"
    assert main(["predict", "--model", str(model), "--out", str(out),
                 "--unit", "0.5,0.5,0.9,0.9"]) == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["config"]["unit"] == [0.5, 0.5, 0.9, 0.9]


def test_predict_rejects_obstacle_point(pipeline, tmp_path):
    _, _, model = pipeline
    code = main(["predict", "--model", str(model), "--out", str(tmp_path / "p"),
                 "--mu", "6.0,1e-2,0.5,0.5"])
    assert code == 2


def test_predict_rejects_out_of_bounds(pipeline, tmp_path):
    _, _, model = pipeline
    code = main(["predict", "--model", str(model), "--out", str(tmp_path / "p2"),
                 "--mu", "15.0,1e-2,-1.0,0.8"])
    assert code == 2
    code = main(["predict", "--model", str(model), "--out", str(tmp_path / "p3"),
                 "--unit", "1.5,0.5,0.9,0.9"])
    assert code == 2
    code = main(["predict", "--model", str(model), "--out", str(tmp_path / "p4"),
                 "--mu", "5.0,1e-2,-1.0"])
    assert code == 2
    code = main(["predict", "--model", str(model), "--out", str(tmp_path / "p5"),
                 "--unit", "0.5,0.5,0.9,0.9,0.5"])
    assert code == 2


def test_evaluate_outputs_and_identity(pipeline, tmp_path):
    _, data, model = pipeline
    out = tmp_path / "eval"
    assert main(["evaluate", "--model", str(model), "--dataset", str(data),
                 "--split", "test", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    local, _, _ = read_smx(out / "q2_local.smx")
    weights, _, _ = read_smx(out / "weights.smx")
    meta = json.loads((model / "model.json").read_text())
    lines = (out / "q2_per_mode.csv").read_text().splitlines()
    assert len(lines) == len(meta["gps"]) + 1
    assert summary["dataset_tag"] == "test"
    # global equals the variance-weighted mean of the stored local values
    from plumerom.rom import q2_global
    assert summary["q2_global"] == pytest.approx(
        q2_global(local[:, 0], weights[:, 0]), abs=1e-10
    )


def test_evaluate_train_split_deterministic(pipeline, tmp_path):
    _, data, model = pipeline
    a, b = tmp_path / "eval_a", tmp_path / "eval_b"
    for out in (a, b):
        assert main(["evaluate", "--model", str(model), "--dataset", str(data),
                     "--split", "train", "--out", str(out)]) == 0
    assert (a / "summary.json").read_text() == (b / "summary.json").read_text()
    assert (a / "q2_local.smx").read_bytes() == (b / "q2_local.smx").read_bytes()


def test_robustness_outputs(pipeline, tmp_path):
    _, data, _ = pipeline
    out = tmp_path / "sweep"
    assert main(["robustness", "--dataset", str(data), "--out", str(out),
                 "--sizes", "12,20", "--method", "prior"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "size,L,q2_global,runtime"
    assert len(lines) == 3
    by_L = (out / "q2_by_L.csv").read_text().splitlines()[1:]
    for size, line in zip((12, 20), lines[1:]):
        _, L, q2, _ = line.split(",")
        # the largest admissible L, and its Q2 from the full curve
        assert int(L) == int(round(0.9 * size)) - 1
        assert f"{size},{L},{q2}" in by_L
        assert (out / f"q2_per_mode_{size}.csv").exists()
    assert (out / "q2_by_L.csv").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_train_non_finite_dataset_is_data_error(pipeline, tmp_path, bad):
    _, data, _ = pipeline
    copy = tmp_path / "data"
    copy.mkdir()
    for name in ("manifest.json", "half.smx"):
        (copy / name).write_bytes((data / name).read_bytes())
    full, nx, nz = read_smx(data / "full.smx")
    full = full.copy()
    full[100, 7] = bad
    write_smx(copy / "full.smx", full, nx, nz)
    assert main(["train", "--dataset", str(copy), "--out", str(tmp_path / "m"),
                 "--L", "3", "--method", "prior"]) == 3


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize("corrupt", ["three-coordinate-unit", "unit-above-one"])
def test_corrupt_sample_table_is_data_error(pipeline, tmp_path, capsys, command, corrupt):
    _, data, model = pipeline
    copy = tmp_path / "data"
    copy.mkdir()
    for name in ("full.smx", "half.smx"):
        (copy / name).write_bytes((data / name).read_bytes())
    manifest = json.loads((data / "manifest.json").read_text())
    record = manifest["samples"][-1]  # a test-split record
    if corrupt == "three-coordinate-unit":
        record["unit"] = record["unit"][:3]
    else:
        record["unit"][2] = 1.5
    (copy / "manifest.json").write_text(json.dumps(manifest))
    args = {"train": ["--L", "3", "--method", "prior"],
            "evaluate": ["--model", str(model)]}[command]
    assert main([command, "--dataset", str(copy), "--out", str(tmp_path / "o"),
                 *args]) == 3
    assert "sample table" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["grid", "samples", "channel", "space"])
def test_train_manifest_missing_key_is_data_error(pipeline, tmp_path, key, capsys):
    _, data, _ = pipeline
    copy = tmp_path / "data"
    copy.mkdir()
    for name in ("full.smx", "half.smx"):
        (copy / name).write_bytes((data / name).read_bytes())
    manifest = json.loads((data / "manifest.json").read_text())
    del manifest[key]
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert main(["train", "--dataset", str(copy), "--out", str(tmp_path / "m"),
                 "--L", "3", "--method", "prior"]) == 3
    assert f"lacks {key}" in capsys.readouterr().err


def test_missing_dataset_is_data_error(tmp_path):
    assert main(["train", "--dataset", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "m")]) == 3


def test_bad_grid_is_config_error(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "g"),
                 "--n", "10", "--grid", "banana"]) == 2


@pytest.mark.parametrize("key", ["sede", "jobs"])
def test_unknown_config_key_is_config_error(tmp_path, capsys, key):
    # a misspelled seed, and the thread-pool setting that no longer exists
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"n": 10, "grid": "21x11", key: 5}))
    out = tmp_path / "g"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 2
    assert f"unknown keys: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_config_must_be_an_object(tmp_path):
    config = tmp_path / "c.json"
    config.write_text("[1, 2]")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "g")]) == 2


def run_python(args, **env_vars):
    """Run a fresh interpreter on this package with no BLAS thread variable
    set, apart from ``env_vars``; returns its standard output."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = str(Path(plumerom.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_vars)
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                            text=True, check=True, timeout=120)
    return result.stdout


def test_library_import_loads_no_numpy_and_keeps_environment():
    out = run_python(["-c", (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "import plumerom\n"
        "print('numpy' in sys.modules, dict(os.environ) == before)\n"
        "from plumerom import ConfigError, train\n"
        "print(train.__module__, ConfigError.__module__)"
    )])
    assert out.split() == ["False", "True", "plumerom.rom", "plumerom.errors"]


@pytest.mark.parametrize("variable", [None, *THREAD_VARIABLES])
def test_cli_import_sets_one_blas_thread_unless_user_chose(variable):
    out = run_python(["-c", (
        "import os\n"
        "import plumerom.cli\n"
        "print(*(os.environ.get(v) for v in plumerom.cli.THREAD_VARIABLES))"
    )], **({} if variable is None else {variable: "3"}))
    if variable is None:
        assert out.split() == ["1", "1", "1"]
    else:
        assert out.split() == ["3" if v == variable else "None" for v in THREAD_VARIABLES]


@pytest.mark.parametrize("env_vars, expected", [
    ({}, {"count": 1, "source": "default"}),
    ({"OPENBLAS_NUM_THREADS": "2"}, {"count": 2, "source": "OPENBLAS_NUM_THREADS"}),
])
def test_run_config_records_blas_threads(tmp_path, env_vars, expected):
    out = tmp_path / "data"
    run_python(["-m", "plumerom.cli", "generate", "--out", str(out), "--n", "5",
                "--grid", "41x21"], **env_vars)
    run_config = json.loads((out / "run_config.json").read_text())
    assert run_config["blas_threads"] == expected
    assert "blas_threads" not in run_config["config"]


def test_cli_import_after_numpy_leaves_environment():
    out = run_python(["-c", (
        "import os\n"
        "import numpy\n"
        "import plumerom.cli\n"
        "print(plumerom.cli.BLAS_THREADS['count'], os.environ.get('OPENBLAS_NUM_THREADS'))"
    )])
    assert out.split() == ["None", "None"]
