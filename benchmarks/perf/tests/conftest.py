"""Self-tests of the benchmark harness (smoke scale).

    python -m pytest benchmarks/perf/tests

Not part of the tier-1 ``testpaths``: they time nothing, they check
that the instrument itself is wired correctly.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1]
REPO_ROOT = PERF_DIR.parents[1]
sys.path.insert(0, str(PERF_DIR))


def run_harness(*args, out=None):
    """``run.py`` as a user would start it -> (exit code, stdout)."""
    argv = [sys.executable, str(PERF_DIR / "run.py"), *args]
    if out is not None:
        argv += ["--out", str(out)]
    done = subprocess.run(argv, cwd=REPO_ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=300)
    return done.returncode, done.stdout


@pytest.fixture(scope="session")
def smoke_path(tmp_path_factory):
    """One traced smoke run of every workload, shared by the tests."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    code, stdout = run_harness("--smoke", "--trace", "1", out=out)
    assert code == 0, stdout
    return out


@pytest.fixture(scope="session")
def smoke_doc(smoke_path):
    return json.loads(smoke_path.read_text())
