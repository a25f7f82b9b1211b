import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from obstructkit import matcore, winding, words
from obstructkit.seeding import derive_rng

# Dense-matrix examples are slow per case; trade example count for coverage
# of dimensions instead of raw volume, and let individual tests raise it.
settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("numerics")


@pytest.fixture
def rng():
    """Deterministic per-session generator, independent of the audit streams."""
    return derive_rng(20240817, 9000)


@pytest.fixture
def fresh_python():
    """Runs Python source in a new interpreter that imports this checkout's
    ``src/obstructkit``; returns the completed process, output as text."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))

    def run(source: str, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", source, *argv], env=env,
                              capture_output=True, text=True, timeout=120, check=False)

    return run


@pytest.fixture
def unitarity_checks(monkeypatch):
    """The shape of each member ``matcore.require_unitary``, the one
    unitarity gate, checks from here on.  Each module binds the gate by
    name, so each binding is patched."""
    calls = []
    original = matcore.require_unitary

    def counted(mats, *args, **kwargs):
        mats = tuple(mats)
        calls.extend(np.shape(a) for a in mats)
        return original(mats, *args, **kwargs)

    for module in (matcore, winding, words):
        monkeypatch.setattr(module, "require_unitary", counted)
    return calls


@pytest.fixture
def svd_matrices(monkeypatch):
    """The number of matrices each ``np.linalg.svd`` call receives from here
    on, a stack counting as its members, which every exact norm up to
    ``SVD_NORM_DIM_LIMIT`` and every polar factor goes through."""
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(math.prod(np.shape(a)[:-2]))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls
