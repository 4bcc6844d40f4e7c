"""CSV emission and parsing: result rows, matrices, and CSI blocks.

All floats are rendered with 17 significant digits (``%.17g``) so emitted
files reparse to bit-identical values; line endings are LF.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .array_model import CsiBlock

RESULT_HEADER = ("snr_db", "metric", "value", "stderr", "trials", "seed")


@dataclass(frozen=True)
class ResultRow:
    """One line of the campaign CSV contract."""

    snr_db: float            # None for rows that are not tied to an SNR point
    metric: str
    value: float
    stderr: float            # None for closed-form / deterministic rows
    trials: int
    seed: int


def fmt(x) -> str:
    """17-significant-digit decimal rendering; empty string for None."""
    return "" if x is None else format(float(x), ".17g")


def emit_csv(rows, path: str):
    """Write result rows; one header, LF endings; refuses empty input."""
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to write an empty result set")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULT_HEADER)
        for r in rows:
            writer.writerow([
                fmt(r.snr_db),
                r.metric,
                fmt(r.value),
                fmt(r.stderr),
                str(int(r.trials)),
                str(int(r.seed)),
            ])


def parse_results_csv(path: str):
    """Inverse of emit_csv; floats reparse exactly."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != RESULT_HEADER:
            raise ValueError(f"unexpected header {header}")
        for rec in reader:
            if len(rec) != len(RESULT_HEADER):
                raise ValueError(f"malformed row: {rec}")
            rows.append(ResultRow(
                snr_db=float(rec[0]) if rec[0] else None,
                metric=rec[1],
                value=float(rec[2]) if rec[2] else None,
                stderr=float(rec[3]) if rec[3] else None,
                trials=int(rec[4]),
                seed=int(rec[5]),
            ))
    return rows


def write_matrix_csv(matrix: np.ndarray, path: str):
    """Row-major real matrix dump at 17 significant digits, one bytes ``%`` per row."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or np.iscomplexobj(matrix):
        raise ValueError(f"expected a 2-D real matrix, got {matrix.ndim}-D {matrix.dtype}")
    line = (",".join(["%.17g"] * matrix.shape[1]) + "\n").encode()
    with open(path, "wb") as fh:
        for row in matrix.astype(float, copy=False):
            fh.write(line % tuple(row.tolist()))


def read_matrix_csv(path: str) -> np.ndarray:
    """Inverse of write_matrix_csv; empty files, blank lines, ragged rows, bad cells raise."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    if not lines or not all(lines):  # loadtxt would skip blank lines
        raise ValueError(f"matrix CSV {path} has no rows or a blank line")
    return np.loadtxt(lines, delimiter=",", ndmin=2, comments=None)


def write_csi_csv(csi: CsiBlock, path: str):
    """CSI block as M rows x 2T columns with interleaved real, imag parts."""
    write_matrix_csv(np.ascontiguousarray(csi.data).view(float), path)


def read_csi_csv(path: str) -> CsiBlock:
    """Inverse of write_csi_csv, bit for bit apart from NaN payloads (each is written as nan)."""
    inter = read_matrix_csv(path)
    if inter.shape[1] % 2 != 0:
        raise ValueError("CSI CSV must have an even column count (interleaved re, im)")
    return CsiBlock(np.ascontiguousarray(inter).view(complex))
