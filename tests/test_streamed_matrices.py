"""The large embedding matrices are built, checked, written and read one
``linalg._row_blocks`` block of rows at a time, with the bits of the
whole-matrix code they replaced.

The references below are that code, copied: ``make_gap_world``'s noise as
one (n, d) draw, ``write_mmeb``'s one ``tobytes`` payload, ``write_csv``'s
one join of every line, ``read_mmeb``'s whole-file read and ``astype``,
``embio._check_finite``'s ``argwhere`` over an n x d mask and the unit-norm
check's ``np.linalg.norm(a, axis=1)``, which ``linalg._row_norms`` must equal.
Each test compares with ``==`` at the module's block size, at one row and at
93 rows (which divides none of the row counts, so the last block is
partial). ``TestTracedPeaks`` bounds the memory each path allocates, as
numpy reports its buffers to ``tracemalloc``.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from gaplab import embio, linalg
from gaplab.embio import (DTYPE_FLOAT32, MAGIC, VERSION, NonFiniteValueError,
                          TruncatedPayloadError, read_mmeb, write_csv, write_mmeb)
from gaplab.linalg import EmbeddingMatrix, _orthonormal_columns
from gaplab.worlds import make_gap_world

BLOCKS = [None, 1, 93]
MIB = 1024 * 1024


def set_block_rows(monkeypatch, rows, d):
    if rows is not None:
        monkeypatch.setattr(linalg, "_BLOCK_BYTES", 8 * d * rows)
        assert next(linalg._row_blocks(10_000, d)) == slice(0, rows)


def block_rows(d):
    return next(linalg._row_blocks(10_000, d)).stop


def ref_gap_world_xy(n, d, span_dim, gap_norm, sigma, seed, noise_mode):
    rng = np.random.default_rng(seed)
    want = span_dim + (1 if span_dim < d else 0)
    frame = _orthonormal_columns(rng, d, want)
    basis = frame[:, :span_dim]
    gap = gap_norm * frame[:, span_dim] if span_dim < d else np.zeros(d)
    coeffs = rng.standard_normal((n, span_dim))
    coeffs /= np.linalg.norm(coeffs, axis=1)[:, None]
    y = coeffs @ basis.T
    eps = sigma * rng.standard_normal((n, d))
    if noise_mode == "span":
        eps = (eps @ basis) @ basis.T
    return y + gap + eps, y


def ref_mmeb_bytes(values):
    payload = np.ascontiguousarray(values, dtype="<f4").tobytes()
    return ref_header(values.shape) + payload


def ref_csv_bytes(values):
    lines = [",".join(f"{v:.17g}" for v in row) for row in values]
    return ("\n".join(lines) + "\n").encode("ascii")


def ref_header(shape):
    return struct.pack("<4sIQQI", MAGIC, VERSION, shape[0], shape[1], DTYPE_FLOAT32)


def ref_read_mmeb_values(blob):
    rows, cols = struct.unpack_from("<4sIQQI", blob)[2:4]
    return np.frombuffer(blob, dtype="<f4", offset=28).reshape(rows, cols).astype(np.float64)


def ref_nonfinite_message(values):
    bad = np.argwhere(~np.isfinite(values))
    r, c = bad[0]
    return f"non-finite value at row {r}, col {c}"


def ref_unit_norm_message(a):
    norms = np.linalg.norm(a, axis=1)
    bad = np.flatnonzero(np.abs(norms - 1.0) > 1e-9)[0]
    return f"unit_norm contract violated at row {bad}: norm={norms[bad]!r}"


def float32_matrix(n, d, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)).astype(np.float32).astype(np.float64)


class TestStreamedMatchesWholeMatrix:
    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("noise_mode", ["full", "span"])
    @pytest.mark.parametrize("n,d,span_dim,seed", [(700, 512, 64, 0), (300, 40, 7, 201)])
    def test_make_gap_world(self, monkeypatch, rows, noise_mode, n, d, span_dim, seed):
        set_block_rows(monkeypatch, rows, d)
        w = make_gap_world(n, d, span_dim, 0.83, 0.05, seed, noise_mode)
        x, y = ref_gap_world_xy(n, d, span_dim, 0.83, 0.05, seed, noise_mode)
        assert (w.pairs.x.values == x).all()
        assert (w.pairs.y.values == y).all()

    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("n,d", [(300, 512), (200, 3), (1, 1)])
    def test_write_mmeb_bytes(self, tmp_path, monkeypatch, rows, layout, n, d):
        m = np.random.default_rng(n + d).standard_normal((n, d))
        m = np.asfortranarray(m) if layout == "F" else m
        set_block_rows(monkeypatch, rows, d)
        path = tmp_path / "m.mmeb"
        write_mmeb(m, str(path))
        assert path.read_bytes() == ref_mmeb_bytes(m)

    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("n,d", [(300, 512), (200, 3), (1, 1)])
    def test_write_csv_bytes(self, tmp_path, monkeypatch, rows, layout, n, d):
        # column scales from 1e-20 to 1e20 exercise fixed and exponent notation
        m = np.random.default_rng(n + d).standard_normal((n, d)) * np.logspace(-20, 20, d)
        m = np.asfortranarray(m) if layout == "F" else m
        set_block_rows(monkeypatch, rows, d)
        path = tmp_path / "m.csv"
        write_csv(m, str(path))
        assert path.read_bytes() == ref_csv_bytes(m)

    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("n,d", [(300, 512), (200, 3), (1, 1), (129, 512)])
    def test_row_norms(self, monkeypatch, rows, layout, n, d):
        m = np.random.default_rng(n + d).standard_normal((n, d)) * np.logspace(-5, 5, d)
        m = np.asfortranarray(m) if layout == "F" else m
        set_block_rows(monkeypatch, rows, d)
        got = linalg._row_norms(m)
        assert got.shape == (n,) and (got == np.linalg.norm(m, axis=1)).all()

    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("n,d", [(300, 512), (200, 3), (1, 1)])
    def test_read_mmeb_values(self, tmp_path, monkeypatch, rows, n, d):
        m = np.random.default_rng(n * d).standard_normal((n, d))
        path = tmp_path / "m.mmeb"
        path.write_bytes(ref_mmeb_bytes(m))
        set_block_rows(monkeypatch, rows, d)
        got = read_mmeb(str(path)).values
        want = ref_read_mmeb_values(path.read_bytes())
        assert got.shape == want.shape and (got == want).all()

    @pytest.mark.parametrize("rows", BLOCKS)
    @pytest.mark.parametrize("both", [True, False])
    def test_non_finite_located(self, tmp_path, monkeypatch, rows, both):
        n, d = 400, 512
        set_block_rows(monkeypatch, rows, d)
        b = block_rows(d)
        m = float32_matrix(n, d, 1)
        m[3 * b - 1, d - 1] = np.inf  # last column of the third block's last row
        if both:
            m[b, 5] = np.nan  # first row of the second block
        want = ref_nonfinite_message(m)
        assert want.startswith(f"non-finite value at row {b}, col 5" if both
                               else f"non-finite value at row {3 * b - 1}, col {d - 1}")
        with pytest.raises(NonFiniteValueError) as err:
            write_mmeb(m, str(tmp_path / "w.mmeb"))
        assert str(err.value) == want
        path = tmp_path / "m.mmeb"
        path.write_bytes(ref_header(m.shape) + m.astype("<f4").tobytes())
        with pytest.raises(NonFiniteValueError) as err:
            read_mmeb(str(path))
        assert str(err.value) == want
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingMatrix(m)

    @pytest.mark.parametrize("rows", BLOCKS)
    def test_unit_norm_violation_row(self, monkeypatch, rows):
        n, d = 400, 512
        set_block_rows(monkeypatch, rows, d)
        b = block_rows(d)
        a = linalg.l2_normalize_rows(float32_matrix(n, d, 2)).values.copy()
        EmbeddingMatrix(a, unit_norm=True)
        for row in (b, 2 * b - 1, n - 1):
            bad = a.copy()
            bad[row] *= 1.0 + 1e-7
            bad[n - 1] *= 1.0 + 1e-7
            with pytest.raises(ValueError) as err:
                EmbeddingMatrix(bad, unit_norm=True)
            assert str(err.value) == ref_unit_norm_message(bad)
            assert f"violated at row {row}:" in str(err.value)


class TestOneFinitenessScan:
    """A read scans each matrix for non-finite values once, however many
    blocks it spans."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        scan = linalg._first_nonfinite

        def counted(a):
            seen.append(a.shape)
            return scan(a)

        monkeypatch.setattr(linalg, "_first_nonfinite", counted)
        monkeypatch.setattr(embio, "_first_nonfinite", counted)
        return seen

    def test_read_mmeb(self, tmp_path, monkeypatch, calls):
        n, d = 300, 64
        set_block_rows(monkeypatch, 93, d)
        path = tmp_path / "m.mmeb"
        path.write_bytes(ref_mmeb_bytes(float32_matrix(n, d, 8)))
        calls.clear()
        read_mmeb(str(path))
        assert calls == [(n, d)]

    def test_read_csv(self, tmp_path, calls):
        path = tmp_path / "m.csv"
        write_csv(float32_matrix(20, 7, 9), str(path))
        calls.clear()
        embio.read_csv(str(path))
        assert calls == [(20, 7)]


class TestStreamedIoRobust:
    def test_huge_header_over_empty_payload_is_truncated(self, tmp_path):
        path = tmp_path / "huge.mmeb"
        path.write_bytes(struct.pack("<4sIQQI", MAGIC, VERSION, 2**40, 512, DTYPE_FLOAT32))
        with pytest.raises(TruncatedPayloadError,
                           match=f"payload holds 0 bytes, expected {2**40 * 512 * 4}"):
            read_mmeb(str(path))

    @pytest.mark.parametrize("existing", [False, True])
    def test_failing_chunks_leave_no_file(self, tmp_path, existing):
        dest = tmp_path / "out.bin"
        if existing:
            dest.write_bytes(b"old")

        def chunks():
            yield b"header"
            yield np.zeros(4, dtype="<f4")
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError, match="producer failed"):
            embio._atomic_write(str(dest), chunks())
        assert [p.name for p in tmp_path.iterdir()] == (["out.bin"] if existing else [])
        if existing:
            assert dest.read_bytes() == b"old"

    @pytest.mark.parametrize("write", [write_mmeb, write_csv])
    @pytest.mark.parametrize("shape", [(0, 4), (3, 0)])
    def test_empty_shapes_rejected_before_any_write(self, tmp_path, write, shape):
        # the readers reject such a file with the same message
        with pytest.raises(ValueError) as err:
            write(np.empty(shape), str(tmp_path / "e"))
        assert str(err.value) == f"embedding matrix must be n x d with n,d >= 1, got shape {shape}"
        assert list(tmp_path.iterdir()) == []


def traced_peak(fn):
    """``fn()`` and the most memory it had allocated at once beyond what was
    allocated when it was called, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


class TestTracedPeaks:
    N, D, SPAN = 4000, 512, 64
    NDB = N * D * 8  # one n x d float64 matrix, 15.6 MiB

    def test_make_gap_world(self):
        w, peak = traced_peak(lambda: make_gap_world(self.N, self.D, self.SPAN, 0.83, 0.05, 3))
        assert w.pairs.n == self.N
        assert peak <= 2 * self.NDB + self.N * self.SPAN * 8 + 2 * MIB

    def test_write_mmeb(self, tmp_path):
        m = float32_matrix(self.N, self.D, 4)
        _, peak = traced_peak(lambda: write_mmeb(m, str(tmp_path / "m.mmeb")))
        assert peak <= 2 * MIB

    def test_write_csv(self, tmp_path, monkeypatch):
        # 300 rows of CSV text are about 9 MiB; a 32-row block about 1 MiB
        set_block_rows(monkeypatch, 32, self.D)
        m = float32_matrix(300, self.D, 7)
        _, peak = traced_peak(lambda: write_csv(m, str(tmp_path / "m.csv")))
        assert peak <= 2 * MIB

    def test_read_mmeb(self, tmp_path):
        path = tmp_path / "m.mmeb"
        write_mmeb(float32_matrix(self.N, self.D, 5), str(path))
        got, peak = traced_peak(lambda: read_mmeb(str(path)))
        assert got.n == self.N
        assert peak <= self.NDB + 2 * MIB

    def test_read_csv(self, tmp_path):
        n = 1000  # a 4 MB matrix; its text is about 10 MB
        path = tmp_path / "m.csv"
        write_csv(float32_matrix(n, self.D, 10), str(path))
        got, peak = traced_peak(lambda: embio.read_csv(str(path)))
        assert got.n == n
        assert peak <= 2 * n * self.D * 8 + 2 * MIB  # the rows, then one stacked copy

    def test_unit_norm_check(self):
        y = linalg.l2_normalize_rows(float32_matrix(self.N, self.D, 6)).values
        _, peak = traced_peak(lambda: EmbeddingMatrix(y, unit_norm=True))
        assert peak <= 2 * MIB
