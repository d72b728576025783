"""Puts the benchmark modules and the cstlab sources on the import path.

Run with ``python3 -m pytest cstbench/tests`` from the repository root.
"""
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ["CSTLAB_PURE"] = "1"
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
