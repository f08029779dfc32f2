"""Make the package importable from a checkout in subprocesses too.

pytest's ``pythonpath`` setting only reaches this process; tests that run
``python -m cohkit.cli`` in a child process find ``src`` through PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def eig_calls(monkeypatch):
    """A list that grows by one on each eigendecomposition.

    A linalg.hermitian_eig call appends "eig" and a values-only
    linalg.hermitian_eigvals call appends "eigvals", so ``len`` counts every
    decomposition and ``count("eig")`` the full ones.
    """
    from cohkit import linalg

    calls = []
    for name, tag in (("hermitian_eig", "eig"), ("hermitian_eigvals", "eigvals")):
        monkeypatch.setattr(linalg, name, _counted(getattr(linalg, name), calls, tag))
    return calls


def _counted(fn, calls, tag):
    def counted(*args, **kwargs):
        calls.append(tag)
        return fn(*args, **kwargs)

    return counted
