"""Make the package importable from a checkout in subprocesses too.

pytest's ``pythonpath`` setting only reaches this process; tests that run
``python -m cohkit.cli`` in a child process find ``src`` through PYTHONPATH.
BLAS runs on one thread unless the environment says otherwise: set before
numpy loads, and inherited by those child processes.
"""

import os

# on a 2-core host a second BLAS thread per process oversubscribes the cores
# whenever anything else runs, and single d=64 tests went from 0.5 s to 21 s
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that grows by one on each eigendecomposition.

    Counted where LAPACK is called, in the kernels behind the public names: a
    linalg._eigh call appends "eig" and a values-only linalg._eigvalsh call
    appends "eigvals", so ``len`` counts every decomposition and
    ``count("eig")`` the full ones, whichever entry reached them.
    """
    from cohkit import linalg

    calls = []
    for name, tag in (("_eigh", "eig"), ("_eigvalsh", "eigvals")):
        monkeypatch.setattr(linalg, name, _counted(getattr(linalg, name), calls, tag))
    return calls


def _counted(fn, calls, tag):
    def counted(*args, **kwargs):
        calls.append(tag)
        return fn(*args, **kwargs)

    return counted
