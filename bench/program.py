"""Puts the sasmot sources of the enclosing checkout on ``sys.path``.

The benchmark always measures the program that sits beside it, never an
installed copy, so a directory that holds only the benchmark fails to
import here instead of silently measuring something else.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

if not (SRC / "sasmot" / "__init__.py").is_file():
    raise ImportError(f"no sasmot sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import sasmot  # noqa: E402

if Path(sasmot.__file__).resolve().parent != SRC / "sasmot":
    raise ImportError(f"sasmot was imported from {sasmot.__file__}, not from {SRC}")
