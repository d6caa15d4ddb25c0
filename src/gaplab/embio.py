"""Embedding matrix file IO.

Two interchange formats:

* MMEB: a small binary container. Header = magic ``MMEB`` (4 bytes),
  format version (u32), rows (u64), cols (u64), dtype tag (u32, 1 =
  32-bit float), all little-endian; then the payload, row-major
  little-endian float32. 28 header bytes total.
* CSV: one row per line, comma-separated decimal floats, optional header
  line; blank lines are skipped. Values are written with 17 significant
  digits so float64 survives a round trip exactly.

Matrices are stored in 32-bit floats in MMEB (the common export precision
for embedding dumps) and computed on in 64-bit; CSV carries full float64.
All writes go through a temp file and an atomic rename.

MMEB files are streamed one ``linalg._row_blocks`` block of rows at a time.
A write converts and writes one float32 block after the header; a read
checks the header against the file size before it allocates anything, then
reads each block into one reusable float32 buffer and converts it into the
float64 result. Neither holds a full-size copy of the payload, and the bytes
and values are those of a whole-matrix conversion. A CSV read parses one
line at a time into a float64 row and stacks the rows once. A read scans
the matrix for non-finite values once, in ``EmbeddingMatrix``; only if that
scan fails is the first bad value located for the message, by its row, or
in a CSV by its line in the file. A write makes the same checks first, so a
matrix with no rows or no columns, which no reader accepts, is rejected
before any file is made.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .linalg import EmbeddingMatrix, _first_nonfinite, _row_blocks, as_array

__all__ = [
    "EmbeddingFileError",
    "FormatError",
    "TruncatedPayloadError",
    "NonFiniteValueError",
    "RaggedCsvError",
    "MAGIC",
    "VERSION",
    "DTYPE_FLOAT32",
    "read_mmeb",
    "write_mmeb",
    "read_csv",
    "write_csv",
    "ingest",
    "export",
]

MAGIC = b"MMEB"
VERSION = 1
DTYPE_FLOAT32 = 1
_HEADER = struct.Struct("<4sIQQI")
_FLOAT32_OVERFLOW = 2.0**128 - 2.0**103  # float32's max plus half an ulp: rounds to inf


class EmbeddingFileError(ValueError):
    """Base class for malformed embedding files."""


class FormatError(EmbeddingFileError):
    """Bad magic, unsupported version, or unknown dtype tag."""


class TruncatedPayloadError(EmbeddingFileError):
    """Payload shorter than the header promises."""


class NonFiniteValueError(EmbeddingFileError):
    """A NaN or infinity in the payload, reported with row and column."""


class RaggedCsvError(EmbeddingFileError):
    """CSV rows with inconsistent column counts."""


def _atomic_write(path: str, data) -> None:
    """Write ``data`` to ``path`` through a temp file renamed into place.

    ``data`` is bytes or an iterable of byte-like chunks (bytes, or
    C-contiguous arrays), written in order; a chunked writer never holds the
    whole file. Shared by every file the package writes (matrices and CLI
    reports). If writing or producing a chunk fails, the temp file is
    removed and ``path`` is left as it was; an OSError names ``path``, not
    the temp file. The temp file is created with mode 0o666, so the process
    umask decides the final permissions as it would for a plain ``open``.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)),
                       f".tmp-{os.getpid()}-{os.urandom(4).hex()}")
    try:
        fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
        with os.fdopen(fd, "wb") as fh:
            for chunk in [data] if isinstance(data, bytes) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):  # name the path asked for, never the temp file
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def _embedding(values: np.ndarray, lines: list[int] | None = None) -> EmbeddingMatrix:
    """``EmbeddingMatrix(values)``; if it rejects a non-finite value, a
    NonFiniteValueError naming its row, or its file line ``lines[row]`` when
    ``lines`` is given, and its column instead."""
    try:
        return EmbeddingMatrix(values)
    except ValueError:
        at = _first_nonfinite(values)
        if at is not None:
            r, c = at
            where = f"at row {r}" if lines is None else f"on line {lines[r]}"
            raise NonFiniteValueError(f"non-finite value {where}, col {c}")
        raise


def write_mmeb(matrix, path: str) -> None:
    """Write a matrix as MMEB (float32 payload, atomic). An empty shape, a value
    that is not finite, or one that float32 rounds to infinity, is rejected
    before any write."""
    values = _embedding(as_array(matrix)).values
    for blk in _row_blocks(*values.shape):
        over = np.argwhere(np.abs(values[blk]) >= _FLOAT32_OVERFLOW)
        if len(over):
            r, c = over[0] + (blk.start, 0)
            raise ValueError(f"value {float(values[r, c])!r} at row {r}, col {c} "
                             "is beyond the float32 range MMEB stores")

    def chunks():
        yield _HEADER.pack(MAGIC, VERSION, values.shape[0], values.shape[1], DTYPE_FLOAT32)
        for blk in _row_blocks(*values.shape):
            yield np.ascontiguousarray(values[blk], dtype="<f4")

    _atomic_write(path, chunks())


def read_mmeb(path: str) -> EmbeddingMatrix:
    """Read an MMEB file back into a float64 EmbeddingMatrix."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size:
            raise TruncatedPayloadError(
                f"file holds {size} bytes, shorter than the {_HEADER.size}-byte header"
            )
        magic, version, rows, cols, dtype = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != VERSION:
            raise FormatError(f"unsupported version {version}, expected {VERSION}")
        if dtype != DTYPE_FLOAT32:
            raise FormatError(f"unknown dtype tag {dtype}, expected {DTYPE_FLOAT32}")
        expected = rows * cols * 4
        actual = size - _HEADER.size
        if actual != expected:
            raise TruncatedPayloadError(f"payload holds {actual} bytes, expected {expected}")
        values = np.empty((rows, cols))
        if values.size:  # else EmbeddingMatrix rejects the empty shape below
            buf = np.empty_like(values[next(_row_blocks(rows, cols))], dtype="<f4")
            for blk in _row_blocks(rows, cols):
                out = values[blk]
                part = buf[: out.shape[0]]
                if fh.readinto(part) != part.nbytes:
                    raise TruncatedPayloadError(f"payload shrank while read, at row {blk.start}")
                out[...] = part
    return _embedding(values)


def write_csv(matrix, path: str) -> None:
    """Write a matrix as CSV with 17-significant-digit decimal values, one
    ``_row_blocks`` block of lines at a time. An empty shape or a value that is
    not finite is rejected before any write."""
    values = _embedding(as_array(matrix)).values
    line = ",".join(["%.17g"] * values.shape[1]) + "\n"
    blocks = ("".join(line % tuple(row.tolist()) for row in values[blk]).encode("ascii")
              for blk in _row_blocks(*values.shape))
    _atomic_write(path, blocks)


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_csv(path: str) -> EmbeddingMatrix:
    """Read a CSV matrix one line at a time. Blank lines are skipped, a first
    non-blank line none of whose cells is a number is a header, and an error
    names the file's own line number."""
    rows, lines = [], []
    header = False
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.strip().split(",")
            if tokens == [""]:
                continue
            try:
                row = np.fromiter(map(float, tokens), np.float64, len(tokens))
            except ValueError:
                if rows or header or any(map(_is_number, tokens)):
                    raise RaggedCsvError(f"unparseable value on line {lineno}") from None
                header = True
                continue
            if rows and row.size != rows[0].size:
                raise RaggedCsvError(
                    f"line {lineno} has {row.size} columns, expected {rows[0].size}")
            rows.append(row)
            lines.append(lineno)
    if not rows:
        raise FormatError("CSV holds only a header line" if header else "empty CSV file")
    return _embedding(np.stack(rows), lines)


# embedding file format name -> (reader, writer)
_FORMATS = {"mmeb": (read_mmeb, write_mmeb), "csv": (read_csv, write_csv)}


def ingest(path: str, format: str) -> EmbeddingMatrix:
    """Load an embedding matrix from ``path`` in the named format."""
    if format not in _FORMATS:
        raise ValueError(f"unknown embedding file format {format!r}")
    return _FORMATS[format][0](path)


def export(matrix, path: str, format: str) -> None:
    """Write an embedding matrix to ``path`` in the named format."""
    if format not in _FORMATS:
        raise ValueError(f"unknown embedding file format {format!r}")
    _FORMATS[format][1](matrix, path)
