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
    """A list that grows by one on each linalg.hermitian_eig call."""
    from cohkit import linalg

    calls = []
    eig = linalg.hermitian_eig

    def counted(*args, **kwargs):
        calls.append(1)
        return eig(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eig", counted)
    return calls
