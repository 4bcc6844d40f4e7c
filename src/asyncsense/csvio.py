"""CSV emission and parsing: result rows, matrices, and CSI blocks.

All floats are rendered with 17 significant digits (``%.17g``) so emitted
files reparse to bit-identical values; line endings are LF.
"""

import csv
import mmap
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


_CELL = np.dtype((np.void, 25))   # widest %.17g text, -2.2250738585072014e-308, and a separator
_CELL_FMT = b"%-24.17g,"
_ZERO_CELL = np.frombuffer(b"0".ljust(_CELL.itemsize), _CELL)[0]
_BLOCK_ROWS = 8
_TILE = np.dtype((np.void, _BLOCK_ROWS * _CELL.itemsize))


def write_matrix_csv(matrix: np.ndarray, path: str):
    """Row-major real matrix dump at 17 significant digits, LF line endings.

    A square matrix equal to its transpose bit for bit, as the FIM and the CRB
    are, takes the symmetric path: it formats each upper-triangle cell once
    (+0.0 is written as ``0`` without formatting) into space-padded 25-byte
    cells, ``_BLOCK_ROWS`` rows at a time, and masks the padding out of each
    block of rows.  The mirror cells left of the diagonal come from a table
    that keeps each formatted tile until the rows that read it are written, at
    most about n^2/4 cells.  The table is an anonymous map: it does not grow
    the malloc heap that the process's later large arrays reuse, and its spent
    pages go back to the system as the write proceeds.  Any other matrix takes
    one bytes ``%`` per row.  Both paths write the same bytes.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or np.iscomplexobj(matrix):
        raise ValueError(f"expected a 2-D real matrix, got {matrix.ndim}-D {matrix.dtype}")
    matrix = matrix.astype(float, copy=False)
    with open(path, "wb") as fh:
        bits = matrix.view(np.uint64)
        if matrix.size and np.array_equal(bits, bits.T):
            _write_symmetric(fh, matrix, bits)
            return
        line = (",".join(["%.17g"] * matrix.shape[1]) + "\n").encode()
        for row in matrix:
            fh.write(line % tuple(row.tolist()))


def _write_symmetric(fh, matrix, bits):
    n, b = matrix.shape[0], _BLOCK_ROWS
    cols = np.arange(n)
    # Row i left of its diagonal mirrors column i above it.  Each block of rows
    # formats its cells on and right of the diagonal; a tile (the block's rows in
    # one later column j) that holds a nonzero cell is kept in the table until
    # the block of row j reads it back.  The table runs column by column, so the
    # pages of the columns a block has finished go back to the system.
    full = n // b
    kept = ((bits[:full * b] != 0).reshape(full, b, n).any(axis=1)
            & (np.arange(full)[:, None] < cols // b))
    starts = np.concatenate(([0], np.cumsum(kept.sum(axis=0))))
    fill = starts[:-1].copy()
    buf = mmap.mmap(-1, (int(starts[-1]) + 1) * _TILE.itemsize)   # a spare tile: never 0 bytes
    table = np.frombuffer(buf, _TILE)
    released = 0
    for r0 in range(0, n, b):
        r1 = min(r0 + b, n)
        nonzero = bits[r0:r1] != 0
        offset = cols - cols[r0:r1, None]          # j - i
        out = np.empty((r1 - r0, n), _CELL)
        if not nonzero.all():
            out[...] = _ZERO_CELL
        right = nonzero & (offset >= 0)
        vals = matrix[r0:r1][right].tolist()
        out[right] = np.frombuffer((_CELL_FMT * len(vals)) % tuple(vals), _CELL)
        square, lower = out[:, r0:r1], offset[:, r0:r1] < 0
        square[lower] = square.T[lower]
        tiles = out[:, :r0].view(_TILE)
        tiles[nonzero[:, :r0].reshape(r1 - r0, -1, b).any(axis=2)] = table[starts[r0]:starts[r1]]
        if r1 < n:
            keep = kept[r0 // b, r1:]
            table[fill[r1:][keep]] = out[:, r1:].T[keep].view(_TILE)[:, 0]
            fill[r1:] += keep
        text = out.view(np.uint8).reshape(r1 - r0, n, _CELL.itemsize)
        text[:, :, -1] = ord(",")
        text[:, -1, -1] = ord("\n")
        text = text.reshape(-1)
        fh.write(text[text != ord(" ")])
        dead = int(starts[r1]) * _TILE.itemsize // mmap.PAGESIZE * mmap.PAGESIZE
        if dead > released and hasattr(mmap, "MADV_DONTNEED"):
            buf.madvise(mmap.MADV_DONTNEED, released, dead - released)
            released = dead


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
