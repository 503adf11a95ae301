"""Run the suite on this checkout: its ``src`` goes first on ``sys.path``,
and on the ``PYTHONPATH`` that the tests' ``python -m topocell`` and demo
subprocesses inherit, so bare ``pytest`` needs no install."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
