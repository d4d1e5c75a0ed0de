import struct

import numpy as np
import pytest

from tokensieve.rng import gaussian_matrix
from tokensieve.tensor_io import (MatrixFormatError, Selection,
                                  SelectionFormatError, read_matrix,
                                  read_selection, validate_matrix,
                                  write_matrix, write_selection)


def emb1_bytes(rows, cols, values):
    return b"EMB1" + struct.pack("<II", rows, cols) + np.asarray(
        values, dtype="<f4").tobytes()


def test_identity_payload(tmp_path):
    p = tmp_path / "m.emb1"
    p.write_bytes(emb1_bytes(2, 2, [1, 0, 0, 1]))
    np.testing.assert_array_equal(read_matrix(p), np.eye(2, dtype=np.float32))


def test_round_trip_bit_identical(tmp_path):
    p = tmp_path / "m.emb1"
    for i in range(100):
        m = gaussian_matrix(i, 1 + i % 7, 1 + (i * 3) % 11).astype(np.float32)
        write_matrix(m, p)
        back = read_matrix(p)
        assert back.dtype == np.float32
        assert back.tobytes() == m.tobytes()


def test_header_payload_size_mismatch(tmp_path):
    p = tmp_path / "bad.emb1"
    p.write_bytes(emb1_bytes(3, 3, list(range(8))))
    with pytest.raises(MatrixFormatError):
        read_matrix(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.emb1"
    p.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
    with pytest.raises(MatrixFormatError):
        read_matrix(p)


def test_single_cell_file_layout(tmp_path):
    p = tmp_path / "one.emb1"
    write_matrix(np.array([[0.5]], dtype=np.float32), p)
    blob = p.read_bytes()
    # 4 magic + 4 + 4 dims + 4 payload
    assert len(blob) == 16
    assert blob[:4] == b"EMB1"
    assert struct.unpack("<II", blob[4:12]) == (1, 1)
    assert struct.unpack("<f", blob[12:]) == (0.5,)


def test_csv_identity(tmp_path):
    p = tmp_path / "m.csv"
    write_matrix(np.eye(3, dtype=np.float32), p)
    lines = p.read_text().strip().splitlines()
    assert lines == ["1,0,0", "0,1,0", "0,0,1"]


def test_csv_round_trip(tmp_path):
    p = tmp_path / "m.csv"
    for i in range(20):
        m = gaussian_matrix(100 + i, 4, 5).astype(np.float32)
        write_matrix(m, p)
        # 9 significant digits round-trip float32 exactly
        np.testing.assert_array_equal(read_matrix(p), m)


def test_csv_ragged_rows(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2,3\n4,5\n")
    with pytest.raises(MatrixFormatError):
        read_matrix(p)


def test_write_matrix_picks_csv_from_the_path(tmp_path):
    p = tmp_path / "x.csv"
    m = gaussian_matrix(7, 3, 4).astype(np.float32)
    write_matrix(m, p)
    assert p.read_text().splitlines() == [",".join("%.9g" % v for v in row) for row in m]
    back = read_matrix(p)
    assert back.dtype == np.float32 and back.tobytes() == m.tobytes()


def test_csv_undecodable_bytes_name_the_file(tmp_path):
    p = tmp_path / "bin.csv"
    p.write_bytes(b"\xff\xfe\x00garbage")
    with pytest.raises(MatrixFormatError, match=r"bin\.csv: not a text file"):
        read_matrix(p)


def test_validate_matrix_rejects_bad_shapes():
    for bad in (np.ones(3), np.ones((0, 3))):
        with pytest.raises(MatrixFormatError):
            validate_matrix(bad)


def test_non_finite_rejected(tmp_path):
    p = tmp_path / "m.emb1"
    m = np.ones((2, 2), dtype=np.float32)
    m[1, 0] = np.nan
    with pytest.raises(MatrixFormatError):
        write_matrix(m, p)


def test_selection_document_order(tmp_path):
    p = tmp_path / "s.json"
    write_selection(Selection([2, 0], 4, ["gsp-only", "gsp-only"], {}), p)
    s = read_selection(p)
    assert s.kept == [2, 0]
    assert s.n_original == 4
    assert s.budget == 2


def test_selection_empty(tmp_path):
    p = tmp_path / "s.json"
    write_selection(Selection([], 4, [], {}), p)
    s = read_selection(p)
    assert s.kept == [] and s.budget == 0


def test_selection_round_trip(tmp_path):
    p = tmp_path / "s.json"
    orig = Selection([5, 1, 3], 8, ["intersection", "intersection", "qcsp-fill"],
                     {"mode": "script", "m": 3})
    write_selection(orig, p)
    back = read_selection(p)
    assert back.kept == orig.kept
    assert back.stage_tags == orig.stage_tags
    assert back.params == orig.params


def test_selection_rejects_duplicates():
    with pytest.raises(SelectionFormatError):
        Selection([1, 1], 4, ["gsp-only", "gsp-only"], {}).validate()


def test_selection_rejects_out_of_range():
    with pytest.raises(SelectionFormatError):
        Selection([4], 4, ["gsp-only"], {}).validate()


def test_selection_rejects_unknown_tag():
    with pytest.raises(SelectionFormatError):
        Selection([0], 4, ["mystery"], {}).validate()


def test_selection_rejects_tag_count_mismatch():
    with pytest.raises(SelectionFormatError, match="equal length"):
        Selection([0, 1], 4, ["gsp-only"], {}).validate()


@pytest.mark.parametrize("text, match", [
    ("{not json", "not a valid selection document"),
    ('{"n_original": 4, "stage_tags": []}', "missing or malformed field"),
    ('{"n_original": 4, "budget": 2, "kept": [1], "stage_tags": ["gsp-only"]}',
     "budget field disagrees"),
])
def test_read_selection_rejects_bad_documents(tmp_path, text, match):
    p = tmp_path / "s.json"
    p.write_text(text)
    with pytest.raises(SelectionFormatError, match=match):
        read_selection(p)
