"""Matrix Market round trips and block directory loading."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from dsaddle import load_block_system, read_matrix, save_block_system, write_matrix

from _families import fixture_three_block, max_deficient


def test_matrix_roundtrip(tmp_path):
    M = np.array([[1.5, -2.0], [0.0, 3.25]])
    write_matrix(tmp_path / "m.mtx", M)
    np.testing.assert_array_equal(read_matrix(tmp_path / "m.mtx"), M)


def test_reads_coordinate_and_symmetric_formats(tmp_path):
    dense = np.array([[2.0, 1.0], [1.0, 0.0]])
    scipy.io.mmwrite(str(tmp_path / "coo.mtx"), scipy.sparse.coo_matrix(dense),
                     symmetry="symmetric")
    np.testing.assert_array_equal(read_matrix(tmp_path / "coo.mtx"), dense)


def test_block_system_roundtrip(tmp_path):
    sys, _ = max_deficient(seed=3, null_d=1)
    save_block_system(tmp_path, sys)
    loaded = load_block_system(tmp_path)
    for name in "ABCDE":
        np.testing.assert_array_equal(getattr(loaded, name), getattr(sys, name))


def test_missing_d_and_e_default_to_zero(tmp_path):
    sys = fixture_three_block()
    save_block_system(tmp_path, sys)
    (tmp_path / "D.mtx").unlink()
    (tmp_path / "E.mtx").unlink()
    loaded = load_block_system(tmp_path)
    assert not loaded.D.any() and not loaded.E.any()
    assert loaded.dims == sys.dims


def test_missing_required_block_raises(tmp_path):
    sys = fixture_three_block()
    save_block_system(tmp_path, sys)
    (tmp_path / "B.mtx").unlink()
    with pytest.raises(FileNotFoundError, match="B.mtx"):
        load_block_system(tmp_path)


def test_inconsistent_dims_raise(tmp_path):
    sys = fixture_three_block()
    save_block_system(tmp_path, sys)
    write_matrix(tmp_path / "E.mtx", np.eye(3))
    with pytest.raises(ValueError, match="E"):
        load_block_system(tmp_path)


def test_complex_file_is_rejected(tmp_path):
    # scipy reads it as complex; dropping the imaginary part would silently
    # analyse a different matrix
    path = tmp_path / "C.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n1 1\n1.0 2.0\n")
    with pytest.raises(ValueError, match="complex"):
        read_matrix(path)
