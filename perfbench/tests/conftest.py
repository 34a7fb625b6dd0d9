"""Make the benchmark's modules importable as the worker sees them."""

import sys
from pathlib import Path

_BENCH = str(Path(__file__).resolve().parent.parent)
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)
