"""The package runs on numpy alone: scipy is a test-time oracle only."""
import json
import os
import subprocess
import sys
from pathlib import Path

import chainsentry
from chainsentry.pipeline import load_config, run_pipeline

from test_pipeline import SMALL

# Refuses every scipy import, then runs the given code.
BLOCK_SCIPY = """
import importlib.abc, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
"""

STAGES = ("synth", "ingest", "features", "select", "segment")


def run_without_scipy(code: str, *args: str) -> subprocess.CompletedProcess:
    src_dir = str(Path(chainsentry.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-c", BLOCK_SCIPY + code, *args],
                          capture_output=True, text=True, env=env)


def test_import_loads_no_scipy():
    proc = run_without_scipy(
        "import chainsentry, chainsentry.pipeline, chainsentry.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_stages_through_segment_run_without_scipy(tmp_path):
    proc = run_without_scipy(
        "import json\n"
        "from chainsentry.pipeline import load_config, run_pipeline\n"
        "run_pipeline(load_config(json.loads(sys.argv[1])), sys.argv[2],"
        " stages=sys.argv[3].split(','))\n",
        json.dumps(SMALL), str(tmp_path / "blocked"), ",".join(STAGES))
    assert proc.returncode == 0, proc.stderr
    run_pipeline(load_config(SMALL), tmp_path / "normal", stages=STAGES)
    for name in ("catalog_status.json", "catalog_action.json", "plan.json"):
        assert (tmp_path / "blocked" / name).read_bytes() == \
            (tmp_path / "normal" / name).read_bytes(), name
