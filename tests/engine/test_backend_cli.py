"""An unknown backend name is a usage error on every CLI that runs the
engine: exit status 2 and the registered names, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine.backends import BACKEND_ENV, backend_names

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

CLIS = {
    "experiments": ["repro.experiments", "--figures", "fig04",
                    "--workers", "2"],
    "explore": ["repro.explore", "run", "--preset", "smoke", "--n", "1",
                "--workers", "2"],
    "serve": ["repro.serve", "run", "--port", "0"],
}


@pytest.mark.parametrize("via", ["env", "flag"])
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_unknown_backend_is_a_usage_error(cli, via, tmp_path):
    argv = [sys.executable, "-m", *CLIS[cli]]
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR),
           "REPRO_CACHE_DIR": str(tmp_path / "cache"),
           "REPRO_RESULTS_DB": str(tmp_path / "explore.sqlite3")}
    env.pop(BACKEND_ENV, None)
    if via == "env":
        env[BACKEND_ENV] = "bogus"
    else:
        argv += ["--backend", "bogus"]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "bogus" in proc.stderr
    for name in backend_names():
        assert name in proc.stderr
