"""Make the package importable from a checkout in subprocesses too.

pytest's ``pythonpath`` setting only reaches this process; tests that run
``python -m cohkit.cli`` in a child process find ``src`` through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
