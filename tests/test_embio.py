"""Embedding file format tests: MMEB binary container and CSV."""

import re
import struct

import numpy as np
import pytest

from gaplab.embio import (
    DTYPE_FLOAT32,
    FormatError,
    MAGIC,
    NonFiniteValueError,
    RaggedCsvError,
    TruncatedPayloadError,
    VERSION,
    export,
    ingest,
    read_csv,
    read_mmeb,
    write_csv,
    write_mmeb,
)


class TestMmeb:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        # float32-representable values survive the container bit for bit
        m = rng.standard_normal((100, 17)).astype(np.float32).astype(np.float64)
        path = tmp_path / "m.mmeb"
        write_mmeb(m, str(path))
        back = read_mmeb(str(path))
        np.testing.assert_array_equal(back.values, m)

    def test_header_layout(self, tmp_path):
        m = np.arange(6, dtype=np.float64).reshape(2, 3)
        path = tmp_path / "m.mmeb"
        write_mmeb(m, str(path))
        blob = path.read_bytes()
        magic, version, rows, cols, dtype = struct.unpack_from("<4sIQQI", blob)
        assert magic == MAGIC == b"MMEB"
        assert version == VERSION
        assert (rows, cols) == (2, 3)
        assert dtype == DTYPE_FLOAT32
        assert len(blob) == 28 + 2 * 3 * 4
        payload = np.frombuffer(blob, dtype="<f4", offset=28)
        np.testing.assert_array_equal(payload, np.arange(6, dtype=np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mmeb"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            read_mmeb(str(path))

    def test_bad_version(self, tmp_path):
        path = tmp_path / "bad.mmeb"
        path.write_bytes(struct.pack("<4sIQQI", MAGIC, 99, 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(FormatError, match="version"):
            read_mmeb(str(path))

    def test_bad_dtype_tag(self, tmp_path):
        path = tmp_path / "bad.mmeb"
        path.write_bytes(struct.pack("<4sIQQI", MAGIC, VERSION, 1, 1, 7) + b"\x00" * 4)
        with pytest.raises(FormatError, match="dtype"):
            read_mmeb(str(path))

    def test_truncated_payload_names_byte_counts(self, tmp_path):
        m = np.ones((4, 5))
        path = tmp_path / "m.mmeb"
        write_mmeb(m, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(TruncatedPayloadError, match="72 bytes, expected 80"):
            read_mmeb(str(path))

    def test_non_finite_payload_located(self, tmp_path):
        path = tmp_path / "m.mmeb"
        payload = np.array([[1.0, 2.0], [np.inf, 4.0]], dtype="<f4").tobytes()
        path.write_bytes(struct.pack("<4sIQQI", MAGIC, VERSION, 2, 2, DTYPE_FLOAT32) + payload)
        with pytest.raises(NonFiniteValueError, match="row 1, col 0"):
            read_mmeb(str(path))

    def test_write_rejects_non_finite(self, tmp_path):
        with pytest.raises(NonFiniteValueError):
            write_mmeb(np.array([[np.nan]]), str(tmp_path / "x.mmeb"))

    @pytest.mark.parametrize("big,shown", [
        (1e300, "1e+300"),
        (-1e39, "-1e+39"),
        (2.0**128 - 2.0**103, "3.4028235677973366e+38"),  # the least that rounds to inf
    ])
    def test_write_rejects_a_value_beyond_float32_before_writing(self, tmp_path, big, shown):
        path = tmp_path / "x.mmeb"
        m = np.ones((3, 2))
        m[2, 1] = big
        with pytest.raises(ValueError, match=re.escape(f"value {shown} at row 2, col 1")):
            write_mmeb(m, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_float32_extremes_survive_mmeb_csv_mmeb(self, tmp_path):
        f32 = np.finfo(np.float32)
        rng = np.random.default_rng(4)
        m = rng.standard_normal((50, 6)).astype(np.float32).astype(np.float64)
        m[0] = [f32.max, -f32.max, f32.smallest_subnormal, f32.tiny, -0.0, 0.0]
        first, back = tmp_path / "a.mmeb", tmp_path / "b.mmeb"
        write_mmeb(m, str(first))
        write_csv(read_mmeb(str(first)), str(tmp_path / "m.csv"))
        write_mmeb(read_csv(str(tmp_path / "m.csv")), str(back))
        assert back.read_bytes() == first.read_bytes()


class TestCsv:
    def test_two_by_two_identity(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,0\n0,1\n")
        got = read_csv(str(path))
        np.testing.assert_array_equal(got.values, np.eye(2))

    def test_round_trip_exact_float64(self, tmp_path):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((20, 7)) * np.exp(rng.uniform(-20, 20, size=7))
        path = tmp_path / "m.csv"
        write_csv(m, str(path))
        back = read_csv(str(path))
        np.testing.assert_array_equal(back.values, m)

    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "m.csv"
        write_csv(np.array([[1.0 / 3.0]]), str(path))
        assert path.read_text().strip() == "0.33333333333333331"

    def test_bytes_are_each_values_17_digit_format(self, tmp_path):
        rng = np.random.default_rng(3)
        edge = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
                np.finfo(np.float64).max, 1.0 / 3.0, 1e16, 1e17]
        for m in (rng.standard_normal((1000, 128)), np.array([edge, edge[::-1]])):
            path = tmp_path / "m.csv"
            write_csv(m, str(path))
            expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in m)
            assert path.read_bytes() == expected.encode("ascii")

    def test_optional_header_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.5,2.5\n3.5,4.5\n")
        got = read_csv(str(path))
        np.testing.assert_array_equal(got.values, [[1.5, 2.5], [3.5, 4.5]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(RaggedCsvError, match="line 2"):
            read_csv(str(path))

    @pytest.mark.parametrize("text,message", [
        ("1,2\n\n\n3,4\nx,5\n", "unparseable value on line 5"),
        ("1,2\n\n3,4\n5\n", "line 4 has 1 columns, expected 2"),
        ("1,2\n3\nx,y\n", "line 2 has 1 columns, expected 2"),  # the first defect
        ("1,2,\n3,4\n", "unparseable value on line 1"),  # a numeric cell: not a header
        ("1,,2\n3,4,5\n", "unparseable value on line 1"),
    ])
    def test_errors_name_the_file_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(RaggedCsvError, match=f"^{message}$"):
            read_csv(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("\n  \na,b\n\n1.5,2.5\n\n3.5,4.5\n\n")
        np.testing.assert_array_equal(read_csv(str(path)).values, [[1.5, 2.5], [3.5, 4.5]])

    @pytest.mark.parametrize("text,message", [("\n\n", "empty CSV file"),
                                              ("\na,b\n\n", "CSV holds only a header line")])
    def test_no_rows_rejected(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=message):
            read_csv(str(path))

    def test_unparseable_value_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(RaggedCsvError):
            read_csv(str(path))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(FormatError):
            read_csv(str(path))

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,inf\n")
        with pytest.raises(NonFiniteValueError):
            read_csv(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e999"])
    def test_non_finite_named_by_file_line(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n\n1,2\n3,{cell}\n")  # matrix row 1 is line 4
        with pytest.raises(NonFiniteValueError, match="^non-finite value on line 4, col 1$"):
            read_csv(str(path))


class TestDispatch:
    def test_ingest_export_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((10, 4)).astype(np.float32).astype(np.float64)
        for fmt in ("mmeb", "csv"):
            path = str(tmp_path / f"m.{fmt}")
            export(m, path, fmt)
            np.testing.assert_array_equal(ingest(path, fmt).values, m)

    @pytest.mark.parametrize("fmt", ["mmeb", "csv"])
    def test_write_error_names_the_path_asked_for(self, tmp_path, fmt):
        path = str(tmp_path / "absent" / f"x.{fmt}")
        with pytest.raises(FileNotFoundError) as err:
            export(np.ones((2, 2)), path, fmt)
        assert err.value.filename == path
        assert ".tmp-" not in str(err.value)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            ingest(str(tmp_path / "x"), "npz")
        with pytest.raises(ValueError, match="format"):
            export(np.ones((1, 1)), str(tmp_path / "x"), "npz")
