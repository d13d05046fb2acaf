"""Matrix Market round trips and block directory loading.

scipy (from the ``test`` extra) is the independent reader and writer the
numpy implementation is checked against, bitwise.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from dsaddle import GeneratorSpec, gen_instance, load_block_system, read_matrix, \
    save_block_system, write_matrix

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


def test_e_without_d_loads_a_zero_d(tmp_path):
    sys, _ = max_deficient(seed=3, null_e=1)
    save_block_system(tmp_path, sys)
    (tmp_path / "D.mtx").unlink()
    loaded = load_block_system(tmp_path)
    np.testing.assert_array_equal(loaded.D, np.zeros((sys.m, sys.m)))
    np.testing.assert_array_equal(loaded.E, sys.E)


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


@pytest.mark.parametrize("header", [
    "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 2.0\n",
    "%%MatrixMarket matrix coordinate complex hermitian\n1 1 1\n1 1 1.0 0.0\n",
    "%%MatrixMarket matrix array real hermitian\n1 1\n1.0\n",
])
def test_complex_and_hermitian_headers_are_rejected(tmp_path, header):
    path = tmp_path / "C.mtx"
    path.write_text(header)
    with pytest.raises(ValueError, match="complex"):
        read_matrix(path)


def _bits(M):
    return np.asarray(M).dtype, np.asarray(M).shape, np.asarray(M).tobytes()


def _mmread(path):
    data = scipy.io.mmread(str(path))
    return np.asarray(data.toarray() if scipy.sparse.issparse(data) else data, dtype=float)


def _scipy_cases(rng):
    """(label, matrix, mmwrite keywords) for each format scipy writes."""
    shape = tuple(rng.integers(1, 9, size=2))
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    M[rng.random(shape) < 0.3] = 0.0
    S = M[:min(shape), :min(shape)]
    yield "dense_general", M, {}
    yield "dense_auto_symmetric", S + S.T, {}
    yield "coordinate_general", scipy.sparse.coo_matrix(M), {}
    yield "coordinate_symmetric", scipy.sparse.coo_matrix(S + S.T), {"symmetry": "symmetric"}
    yield "coordinate_skew", scipy.sparse.coo_matrix(S - S.T), {"symmetry": "skew-symmetric"}
    yield "dense_skew", S - S.T, {"symmetry": "skew-symmetric"}
    yield "dense_integer", rng.integers(-99, 99, size=shape), {}
    yield "coordinate_integer", scipy.sparse.coo_matrix(rng.integers(-2, 3, size=shape)), {}
    yield "coordinate_pattern", scipy.sparse.coo_matrix((M != 0) * 1.0), {"field": "pattern"}


@pytest.mark.parametrize("seed", range(20))
def test_scipy_written_files_read_identically(tmp_path, seed):
    for label, M, kwargs in _scipy_cases(np.random.default_rng(seed)):
        path = tmp_path / f"{label}.mtx"
        scipy.io.mmwrite(str(path), M, **kwargs)
        assert _bits(read_matrix(path)) == _bits(_mmread(path)), label


@pytest.mark.parametrize("seed", range(20))
def test_written_files_mmread_identically(tmp_path, seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 9, size=2))
    # no -0.0 here: scipy's reader returns +0.0 for it (the round trip below has it)
    M = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    M[rng.random(shape) < 0.2] = 0.0
    write_matrix(tmp_path / "m.mtx", M)
    assert _bits(_mmread(tmp_path / "m.mtx")) == _bits(M)


def test_round_trip_is_bitwise_exact(tmp_path):
    rng = np.random.default_rng(7)
    M = rng.standard_normal((13, 11)) * 10.0 ** rng.integers(-300, 301, size=(13, 11))
    M.flat[:8] = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e300,
                  np.nextafter(1.0, 2.0)]
    write_matrix(tmp_path / "m.mtx", M)
    first = (tmp_path / "m.mtx").read_bytes()
    assert _bits(read_matrix(tmp_path / "m.mtx")) == _bits(M)
    write_matrix(tmp_path / "m.mtx", read_matrix(tmp_path / "m.mtx"))
    assert (tmp_path / "m.mtx").read_bytes() == first


def test_generated_blocks_read_back_through_both_readers(tmp_path):
    for seed in range(5):
        system, _ = gen_instance(GeneratorSpec(6, 4, 3, null_a=2, seed=seed))
        save_block_system(tmp_path, system)
        for name in "ABCDE":
            block = getattr(system, name)
            assert _bits(read_matrix(tmp_path / f"{name}.mtx")) == _bits(block), name
            assert _bits(_mmread(tmp_path / f"{name}.mtx")) == _bits(block), name


def test_reads_comments_duplicates_and_pattern_symmetry(tmp_path):
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket MATRIX Coordinate double general\n% note\n\n"
                    "2 3 3\n1 3 0.5\n1 3 0.25\n2 1 -1\n")
    np.testing.assert_array_equal(read_matrix(path), [[0, 0, 0.75], [-1, 0, 0]])
    path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n2 1\n2 2\n")
    np.testing.assert_array_equal(read_matrix(path), [[0, 1], [1, 1]])
    path.write_text("%%MatrixMarket matrix array integer skew-symmetric\n3 3\n1\n2\n3\n")
    np.testing.assert_array_equal(read_matrix(path), [[0, -1, -2], [1, 0, -3], [2, 3, 0]])


BANNER = "%%MatrixMarket matrix array real general\n"
COORDINATE = "%%MatrixMarket matrix coordinate real general\n"
MALFORMED = (
    ("no_banner", "2 2\n1\n2\n3\n4\n"),
    ("unknown_format", "%%MatrixMarket matrix dense real general\n1 1\n1\n"),
    ("pattern_array", "%%MatrixMarket matrix array pattern general\n1 1\n1\n"),
    ("no_size_line", BANNER + "% only a comment\n"),
    ("size_line_not_integer", BANNER + "2 2.0\n1\n2\n3\n4\n"),
    ("size_line_too_short", COORDINATE + "2 2\n1 1 1.0\n"),
    ("zero_dimension", BANNER + "0 3\n"),
    ("negative_dimension", BANNER + "-1 3\n"),
    ("symmetric_non_square", "%%MatrixMarket matrix array real symmetric\n5 6\n"
     + "1\n" * 21),
    ("skew_non_square", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 3 0\n"),
    ("array_too_short", BANNER + "2 2\n1\n2\n3\n"),
    ("array_too_long", BANNER + "1 1\n1\n2\n"),
    ("array_two_per_line", BANNER + "2 1\n1 2\n"),
    ("coordinate_too_short", COORDINATE + "2 2 2\n1 1 1.0\n"),
    ("coordinate_missing_value", COORDINATE + "2 2 1\n1 1\n"),
    ("non_numeric", BANNER + "1 2\n1.0\nabc\n"),
    ("row_out_of_range", COORDINATE + "2 2 1\n3 1 1.0\n"),
    ("column_zero", COORDINATE + "2 2 1\n1 0 1.0\n"),
    ("fractional_index", COORDINATE + "2 2 1\n1 1.5 1.0\n"),
    # refused with no warning first: the suite makes a warning an error
    ("infinite_index", COORDINATE + "2 2 1\n1 inf 2.0\n"),
    ("negative_infinite_index", COORDINATE + "2 2 1\n-inf 1 2.0\n"),
    ("nan_index", COORDINATE + "2 2 1\n1 nan 2.0\n"),
    ("fractional_integer_array", "%%MatrixMarket matrix array integer general\n1 2\n1\n1.5\n"),
    ("fractional_integer_coordinate",
     "%%MatrixMarket matrix coordinate integer symmetric\n2 2 1\n2 1 -0.5\n"),
)


@pytest.mark.parametrize("content", [c[1] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_file_raises_value_error_naming_it(tmp_path, content):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(ValueError, match="bad.mtx") as info:
        read_matrix(path)
    assert "\n" not in str(info.value)


def test_size_past_the_bound_is_refused_before_allocating(tmp_path):
    """A 100000 x 100000 size line would ask for 74.5 GiB of dense entries."""
    path = tmp_path / "A.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n100000 100000 1\n1 1 1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="A.mtx: .* exceeds the bound of 16777216 dense"):
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_undecodable_bytes_raise_value_error_naming_the_file(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_bytes(b"%%MatrixMarket matrix array real general\n% \xff\xfe\n1 1\n1\n")
    with pytest.raises(ValueError, match="bad.mtx"):
        read_matrix(path)
