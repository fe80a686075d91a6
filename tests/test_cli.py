import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chainsentry
from chainsentry.cli import main

CONFIG = {
    "seed": 3,
    "scenario": {"specs": [
        {"kind": "hack", "count": 2},
        {"kind": "exchange", "count": 10},
        {"kind": "merchant", "count": 6},
    ], "noise_level": 0.2},
    "selection": {"runs_per_round": 3, "max_rounds": 2},
    "catalogs": {"k_status": 5, "k_action": 5},
    "gbt": {"n_rounds": 20},
    "intention": {"epochs": 3, "batch_size": 8},
}


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "config.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_usage_error_exit_code():
    assert main([]) == 1
    assert main(["not-a-command"]) == 1


def test_bad_config_exit_code(tmp_path, config_file):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nope": 1}))
    assert main(["--config", str(bad), "--out-dir", str(tmp_path), "synth"]) == 1


def test_missing_artifact_exit_code(tmp_path, config_file):
    code = main(["--config", str(config_file), "--out-dir", str(tmp_path), "features"])
    assert code == 2


def test_full_run_and_explain(tmp_path, config_file, capsys):
    out = tmp_path / "run"
    code = main(["--config", str(config_file), "--out-dir", str(out), "run"])
    assert code == 0
    assert (out / "eval_report.json").exists()
    labels = (out / "labels.csv").read_text().splitlines()[1:]
    hack = next(l.split(",")[0] for l in labels if l.endswith(",1"))
    code = main(["--config", str(config_file), "--out-dir", str(out),
                 "explain", hack])
    assert code == 0
    assert "intention motif:" in capsys.readouterr().out


def test_single_stage_invocations(tmp_path, config_file):
    out = tmp_path / "stages"
    assert main(["--config", str(config_file), "--out-dir", str(out), "synth"]) == 0
    assert main(["--config", str(config_file), "--out-dir", str(out), "ingest"]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["rejected_lines"] == 0
    assert report["transactions"] > 0
    assert report["ambiguous_owners"] >= 0


def test_seed_override_changes_universe(tmp_path, config_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["--config", str(config_file), "--out-dir", str(out_a), "synth"])
    main(["--config", str(config_file), "--seed", "99", "--out-dir", str(out_b),
          "synth"])
    assert (out_a / "transactions.jsonl").read_bytes() != \
        (out_b / "transactions.jsonl").read_bytes()


def test_module_entrypoint_subprocess(tmp_path, config_file):
    out = tmp_path / "sub"
    # The child runs from tmp_path, where a relative PYTHONPATH no longer
    # resolves, so put the src directory of the imported package first.
    src_dir = str(Path(chainsentry.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run(
        [sys.executable, "-m", "chainsentry.cli", "--config", str(config_file),
         "--out-dir", str(out), "synth"],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "transactions.jsonl").exists()
