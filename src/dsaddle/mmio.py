"""Matrix Market file exchange for block systems and inverse blocks.

One file per block: A.mtx, B.mtx, C.mtx, D.mtx, E.mtx in a directory.
D.mtx and E.mtx may be absent, meaning zero blocks.  Files follow the NIST
format (math.nist.gov/MatrixMarket/formats.html), read and written with numpy
alone.  Reads take array or coordinate files with real, double, integer or
(coordinate) pattern fields and general, symmetric or skew-symmetric storage,
summing duplicate coordinate entries; complex files and malformed ones (a
fraction in an integer field among them) raise a ValueError naming the file.
Writes use the array format, general storage and shortest round-trip digits
(``repr``), so a read gives back the same bits and repeated runs are
byte-identical, as are the canonical JSON sidecars.
"""

import json
import warnings
from pathlib import Path

import numpy as np

from .core import BlockSystem, _within_bound

__all__ = ["load_block_system", "read_matrix", "save_block_system", "save_inverse_blocks",
           "write_matrix"]

_MIRROR = {"general": 0, "symmetric": 1, "skew-symmetric": -1}  # sign of a_ji / a_ij


def read_matrix(path) -> np.ndarray:
    """Dense float array from a Matrix Market file; ValueError if malformed or complex."""
    try:
        with open(path, encoding="utf-8") as f:
            return _parse(f)
    except ValueError as exc:  # UnicodeDecodeError included
        raise ValueError(f"{path}: {exc}") from exc


def _parse(f) -> np.ndarray:
    banner = f.readline().lower().split()
    if len(banner) != 5 or banner[:2] != ["%%matrixmarket", "matrix"]:
        raise ValueError("not a Matrix Market matrix file (bad banner line)")
    fmt, field, symmetry = banner[2:]
    if field == "complex" or symmetry == "hermitian":
        raise ValueError("complex Matrix Market data is not supported")
    if fmt not in ("array", "coordinate") or symmetry not in _MIRROR or field not in \
            ("real", "double", "integer", "pattern") or (fmt, field) == ("array", "pattern"):
        raise ValueError(f"unsupported Matrix Market type: {fmt} {field} {symmetry}")
    line = f.readline()
    while line.startswith("%") or line.isspace():
        line = f.readline()
    size = line.split()
    if len(size) != (2 if fmt == "array" else 3) or not all(t.isdigit() for t in size):
        raise ValueError(f"bad size line {line.strip()!r} for the {fmt} format")
    rows, cols, *nnz = map(int, size)
    sign = _MIRROR[symmetry]
    if min(rows, cols) < 1:
        raise ValueError(f"matrix dimensions {rows}x{cols} are not positive")
    _within_bound(rows, cols, "a matrix")
    if sign and rows != cols:
        raise ValueError(f"{symmetry} storage needs a square matrix, got {rows}x{cols}")
    width = 1 if fmt == "array" else 2 if field == "pattern" else 3
    count = nnz[0] if nnz else rows * (rows + sign) // 2 if sign else rows * cols
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a body with no entries
        body = np.loadtxt(f, dtype=float, comments="%", ndmin=2)
    if len(body) != count or body.size != count * width:
        raise ValueError(f"the size line announces {count} entries of {width} value(s), "
                         f"the file holds {body.size} value(s) on {len(body)} lines")
    body = body.reshape(count, width)
    if field == "integer":
        fractional = body[:, -1] != np.round(body[:, -1])  # NaN too; BlockSystem rejects inf
        if fractional.any():
            k = int(np.argmax(fractional))
            raise ValueError(f"entry {k + 1}: {float(body[k, -1])!r} in an integer file is no integer")
    if fmt == "array" and not sign:
        return np.ascontiguousarray(body[:, 0].reshape((cols, rows)).T)
    if fmt == "array":  # the lower triangle column by column, the diagonal unless skew
        j, i = np.triu_indices(rows, 1 if sign < 0 else 0)
        M = np.zeros((rows, cols))
        M[i, j] = body[:, 0]
        M[j, i] = sign * body[:, 0] + 0.0  # a mirrored zero is +0.0, as in scipy
        return M
    i, j = body[:, 0], body[:, 1]
    # a NaN index is not its own round; no test here warns on NaN or inf
    bad = (i != np.round(i)) | (j != np.round(j)) | (i < 1) | (j < 1) | (i > rows) | (j > cols)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"entry {k + 1}: ({i[k]:g}, {j[k]:g}) is no index of "
                         f"a {rows}x{cols} matrix")
    i, j = i.astype(np.intp) - 1, j.astype(np.intp) - 1
    values = body[:, 2] if width == 3 else np.ones(count)
    if sign:
        off = i != j
        i, j = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
        values = np.concatenate([values, sign * values[off]])
    M = np.bincount(i * cols + j, weights=values, minlength=rows * cols)
    return M.astype(float, copy=False).reshape(rows, cols)  # int when empty


def write_matrix(path, M) -> None:
    """Array format, general storage, shortest round-trip digits."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    values = "\n".join(map(repr, M.ravel(order="F").tolist()))
    Path(path).write_text("%%MatrixMarket matrix array real general\n"
                          f"{M.shape[0]} {M.shape[1]}\n{values}\n", encoding="utf-8")


def load_block_system(directory) -> BlockSystem:
    """Read a block system from a directory of .mtx files.

    A.mtx, B.mtx and C.mtx are required; D.mtx and E.mtx default to zero
    blocks of the size implied by B and C.  Dimension inconsistencies
    surface as ValueError from the system constructor.
    """
    found = {}
    for name in "ABCDE":
        path = Path(directory) / f"{name}.mtx"
        if path.is_file():
            found[name] = read_matrix(path)
        elif name in "ABC":
            raise FileNotFoundError(f"missing required block file {path}")
    return BlockSystem(**found)


def save_block_system(directory, sys: BlockSystem) -> None:
    """Write all five blocks of a system (zero D/E included, explicitly)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("A", "B", "C", "D", "E"):
        write_matrix(directory / f"{name}.mtx", getattr(sys, name))


def save_inverse_blocks(directory, inv, manifest: dict) -> None:
    """Write the six upper blocks of an ``InverseBlocks`` plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for label, block in inv.blocks().items():
        write_matrix(directory / f"{label}.mtx", block)
    manifest = dict(manifest)
    manifest.setdefault("blocks", {label: f"{label}.mtx" for label in inv.blocks()})
    write_json(directory / "manifest.json", manifest)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")
