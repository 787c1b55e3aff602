"""Every script under ``examples/`` must run clean: the examples are
executable documentation, and an API change that breaks one should
fail CI, not a reader.  Each script runs once, in its own interpreter,
and must exit 0 and print something."""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")

SCRIPTS = sorted(
    name for name in os.listdir(EXAMPLES_DIR) if name.endswith(".py")
)


def test_examples_directory_is_populated():
    assert SCRIPTS, "examples/ holds no scripts — the smoke test is dead"


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs_clean(script):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, (
        f"examples/{script} exited {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout[-2000:]}\n"
        f"--- stderr ---\n{proc.stderr[-2000:]}"
    )
    assert proc.stdout.strip(), f"examples/{script} produced no output"
