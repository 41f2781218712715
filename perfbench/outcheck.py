"""Output check: a sweep CSV against the reference made at the seed commit.

A CSV passes when its bytes equal the reference.  Otherwise it still passes
when it has the same lines, every ``#`` header line and text cell matches
exactly, and every numeric cell is within ``FLOAT_TOL`` of the reference
(the repository's tolerance on phases and negativities; NaN matches NaN).
"""

from __future__ import annotations

import lzma
import math
from pathlib import Path

FLOAT_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_bytes(workload: str) -> bytes:
    return lzma.decompress((REFERENCE_DIR / f"{workload}.csv.xz").read_bytes())


def write_reference(workload: str, csv_path: Path) -> Path:
    path = REFERENCE_DIR / f"{workload}.csv.xz"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(lzma.compress(Path(csv_path).read_bytes(),
                                   preset=9 | lzma.PRESET_EXTREME))
    return path


def _float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells_match(got: str, want: str) -> bool:
    if got == want:
        return True
    a, b = _float(got), _float(want)
    if a is None or b is None:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= FLOAT_TOL


def compare(got: bytes, want: bytes) -> tuple[bool, bool, str]:
    """(passed, byte_identical, reason) for CSV bytes against the reference."""
    if got == want:
        return True, True, ""
    got_lines = got.decode("utf-8").splitlines()
    want_lines = want.decode("utf-8").splitlines()
    if len(got_lines) != len(want_lines):
        return False, False, f"{len(got_lines)} lines, reference has {len(want_lines)}"
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g == w:
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        if (w.startswith("#") or len(g_cells) != len(w_cells)
                or not all(map(_cells_match, g_cells, w_cells))):
            return False, False, f"line {lineno} differs: {g[:120]!r} vs {w[:120]!r}"
    return True, False, ""
