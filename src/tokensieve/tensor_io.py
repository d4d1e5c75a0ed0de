"""Reading and writing embedding matrices and selection results.

Matrix container format (EMB1):
    bytes 0..3   magic "EMB1"
    bytes 4..7   rows, unsigned 32-bit little-endian
    bytes 8..11  cols, unsigned 32-bit little-endian
    bytes 12..   rows*cols IEEE-754 binary32 little-endian, row-major

Storage is 32-bit; every computation downstream runs in 64-bit.  CSV is
accepted for small hand-written fixtures: decimal reals, one row per
line, written with 9 significant digits (lossless for binary32 values).
read_matrix and write_matrix pick the format from the path: CSV when it
ends in ".csv", EMB1 otherwise.

Selection results are JSON documents carrying the ordered index list,
the original token count, the budget, per-index stage tags, and the
parameter set that produced them.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

MAGIC = b"EMB1"

# provenance labels a selection stage may attach to a kept index
STAGE_TAGS = ("intersection", "qcsp-fill", "gsp-only", "qcsp-only", "baseline")


class MatrixFormatError(ValueError):
    """Raised when a matrix file violates the container contract."""


class SelectionFormatError(ValueError):
    """Raised when a selection document violates its contract."""


def validate_matrix(data: np.ndarray) -> np.ndarray:
    data = np.asarray(data)
    if data.ndim != 2:
        raise MatrixFormatError(f"matrix must be 2-dimensional, got shape {data.shape}")
    if data.shape[0] < 1 or data.shape[1] < 1:
        raise MatrixFormatError(f"matrix must have rows >= 1 and cols >= 1, got {data.shape}")
    if not np.all(np.isfinite(data)):
        r, c = np.argwhere(~np.isfinite(data))[0]
        raise MatrixFormatError(f"non-finite entry at row {r}, col {c}")
    return data


def read_matrix(path) -> np.ndarray:
    """Load a matrix as float32, as CSV if the path ends in ".csv" and as
    EMB1 otherwise; raises MatrixFormatError on any violation."""
    data = _read_csv(path) if _is_csv(path) else _read_emb1(path)
    return validate_matrix(data)


def write_matrix(m: np.ndarray, path) -> None:
    """Write a matrix as CSV if the path ends in ".csv" and as EMB1 otherwise."""
    m = validate_matrix(np.asarray(m, dtype=np.float32))
    if _is_csv(path):
        with open(path, "w") as f:
            for row in m:
                f.write(",".join("%.9g" % v for v in row))
                f.write("\n")
    else:
        with open(path, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", m.shape[0], m.shape[1]))
            f.write(np.ascontiguousarray(m, dtype="<f4").tobytes())


def _is_csv(path) -> bool:
    return str(path).endswith(".csv")


def _read_emb1(path) -> np.ndarray:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise MatrixFormatError(f"{path}: malformed EMB1 header")
    rows, cols = struct.unpack("<II", blob[4:12])
    expected = 12 + 4 * rows * cols
    if len(blob) != expected:
        raise MatrixFormatError(
            f"{path}: header declares {rows}x{cols} "
            f"({expected - 12} payload bytes) but file has {len(blob) - 12}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=12)
    return data.reshape(rows, cols).astype(np.float32)


def _read_csv(path) -> np.ndarray:
    try:
        with open(path) as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{path}: not a text file ({exc})") from None
    rows = []
    width = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values = [float(tok) for tok in line.split(",")]
        except ValueError as exc:
            raise MatrixFormatError(f"{path}:{lineno}: unparseable value ({exc})") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise MatrixFormatError(
                f"{path}:{lineno}: row has {len(values)} values, expected {width}"
            )
        rows.append(values)
    if not rows:
        raise MatrixFormatError(f"{path}: empty matrix")
    return np.asarray(rows, dtype=np.float32)


@dataclass
class Selection:
    """Ordered retained-token indices plus provenance.

    kept[i] came from the stage named by stage_tags[i]; every index is
    distinct and < n_original.  budget equals len(kept) for all pipeline
    outputs, but degenerate (budget 0) documents are representable.
    """

    kept: list[int]
    n_original: int
    stage_tags: list[str]
    params: dict[str, Any] = field(default_factory=dict)

    @property
    def budget(self) -> int:
        return len(self.kept)

    def validate(self) -> "Selection":
        if len(self.kept) != len(self.stage_tags):
            raise SelectionFormatError("kept and stage_tags must have equal length")
        if len(set(self.kept)) != len(self.kept):
            raise SelectionFormatError("duplicate indices in selection")
        for i in self.kept:
            if not (0 <= i < self.n_original):
                raise SelectionFormatError(f"index {i} outside [0, {self.n_original})")
        for t in self.stage_tags:
            if t not in STAGE_TAGS:
                raise SelectionFormatError(f"unknown stage tag {t!r}")
        return self


def write_selection(s: Selection, path) -> None:
    s.validate()
    doc = {
        "n_original": s.n_original,
        "budget": s.budget,
        "kept": [int(i) for i in s.kept],
        "stage_tags": list(s.stage_tags),
        "params": s.params,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def read_selection(path) -> Selection:
    with open(path) as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise SelectionFormatError(f"{path}: not a valid selection document ({exc})") from None
    try:
        s = Selection(
            kept=[int(i) for i in doc["kept"]],
            n_original=int(doc["n_original"]),
            stage_tags=list(doc["stage_tags"]),
            params=dict(doc.get("params", {})),
        )
    except (KeyError, TypeError) as exc:
        raise SelectionFormatError(f"{path}: missing or malformed field ({exc})") from None
    if s.budget != int(doc.get("budget", s.budget)):
        raise SelectionFormatError(f"{path}: budget field disagrees with kept length")
    return s.validate()
