import os
import subprocess
import sys
from pathlib import Path

import pytest

import iqhecke
from iqhecke.bundle import FixtureBundle
from iqhecke.classgroup import compute_class_group
from iqhecke.quadfield import make_field


@pytest.fixture(scope="session")
def K17():
    return make_field(17)


@pytest.fixture(scope="session")
def G17(K17):
    return compute_class_group(K17)


@pytest.fixture(scope="session")
def bundle():
    return FixtureBundle()


def _run(flags: list[str], code: str, *args: str, timeout=120) -> subprocess.CompletedProcess:
    """Run `python flags -c code args...` with this iqhecke importable."""
    src = str(Path(iqhecke.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.fixture(scope="session")
def run_optimized():
    """The runner for checks that must still hold under `python -O`."""
    return lambda code, *args: _run(["-O"], code, *args)


@pytest.fixture(scope="session")
def run_fresh():
    """The runner for checks that need a process with empty memos."""
    return lambda code, *args, **kw: _run([], code, *args, **kw)
