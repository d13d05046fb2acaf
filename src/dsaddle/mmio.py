"""Matrix Market file exchange for block systems and inverse blocks.

One file per block: A.mtx, B.mtx, C.mtx, D.mtx, E.mtx in a directory.
D.mtx and E.mtx may be absent, meaning zero blocks.  Both the array and the
coordinate flavor are accepted on read (symmetric storage included); writes
use the dense array format.  JSON sidecars are written canonically (sorted
keys, fixed separators) so repeated runs are byte-identical.
"""

import json
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse

from .core import BlockSystem
from .inverses import InverseBlocks
from .tolerances import ToleranceConfig

BLOCK_FILES = ("A.mtx", "B.mtx", "C.mtx", "D.mtx", "E.mtx")
INVERSE_FILES = ("Z11.mtx", "Z12.mtx", "Z13.mtx", "Z22.mtx", "Z23.mtx", "Z33.mtx")


def read_matrix(path) -> np.ndarray:
    """Dense real array from a Matrix Market file (array or coordinate).

    Complex files are rejected rather than cut down to their real part.
    """
    data = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(data):
        data = data.toarray()
    if np.iscomplexobj(data):
        raise ValueError(f"{path}: complex Matrix Market data is not supported")
    return np.asarray(data, dtype=float)


def write_matrix(path, M) -> None:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    scipy.io.mmwrite(str(path), M)


def load_block_system(directory, tol: ToleranceConfig | None = None) -> BlockSystem:
    """Read a block system from a directory of .mtx files.

    A.mtx, B.mtx and C.mtx are required; D.mtx and E.mtx default to zero
    blocks of the size implied by B and C.  Dimension inconsistencies
    surface as ValueError from the system constructor.
    """
    directory = Path(directory)
    blocks = {}
    for name in ("A", "B", "C"):
        path = directory / f"{name}.mtx"
        if not path.is_file():
            raise FileNotFoundError(f"missing required block file {path}")
        blocks[name] = read_matrix(path)
    for name in ("D", "E"):
        path = directory / f"{name}.mtx"
        blocks[name] = read_matrix(path) if path.is_file() else None
    return BlockSystem(blocks["A"], blocks["B"], blocks["C"],
                       blocks["D"], blocks["E"], tol=tol)


def save_block_system(directory, sys: BlockSystem) -> None:
    """Write all five blocks of a system (zero D/E included, explicitly)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("A", "B", "C", "D", "E"):
        write_matrix(directory / f"{name}.mtx", getattr(sys, name))


def save_inverse_blocks(directory, inv: InverseBlocks, manifest: dict) -> None:
    """Write the six upper blocks of an inverse plus a JSON manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for label, block in inv.blocks().items():
        write_matrix(directory / f"{label}.mtx", block)
    manifest = dict(manifest)
    manifest.setdefault("blocks", {label: f"{label}.mtx" for label in inv.blocks()})
    write_json(directory / "manifest.json", manifest)


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, fixed separators)."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj), encoding="utf-8")
