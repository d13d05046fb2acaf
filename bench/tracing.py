"""Span tracing for the benchmark's traced runs.

The tracer wraps, from outside the package, every public function that a
dsaddle module exposes in a module namespace, so that calls which look the
name up at call time (``kernel_basis(...)`` inside ``invertibility``, or
``dsaddle.diagnose`` from the benchmark) pass through a recording wrapper.
References captured earlier, such as the rule tuple inside ``diagnose``, are
left alone.  ``BlockSystem.__init__`` is wrapped as ``core.BlockSystem``.

The ``kernel`` layer is the dense linear algebra the package calls:
``numpy.linalg`` svd / eigvalsh / eigh / solve / lstsq / inv / qr, ``norm``
with ``ord=2`` (an SVD in disguise) and ``scipy.linalg`` solve / cho_factor /
cho_solve.  Each kernel span carries the flops and bytes of the call,
computed from the argument shapes with textbook operation counts.

A span is the list ``[name, start_ns, end_ns, parent, op, note]``; ``parent``
indexes the enclosing span (-1 at top level) and ``op`` is the operation id
set by the caller, shared by every span of one operation.  Spans stay in
memory until the run writes them out.
"""

import functools
import inspect
import os
import sys
import time

LAYERS = ("core", "subspaces", "invertibility", "inverses", "generators", "mmio", "cli")

# kernel span name -> counter class
KERNEL_CLASS = {
    "svd": "svd", "norm2": "svd",
    "eigvalsh": "eig", "eigh": "eig",
    "solve": "solve", "lstsq": "solve", "inv": "solve",
    "scipy_solve": "solve", "cho_solve": "solve",
    "qr": "factor", "cho_factor": "factor",
}
KERNEL_COUNTERS = ("svd", "eig", "solve", "factor")

# mmio functions whose first argument is the file they read or write
MMIO_FILES = {"read_matrix": "read", "write_matrix": "write", "write_json": "write"}


def _shape2(a):
    shape = getattr(a, "shape", ())
    if len(shape) >= 2:
        return int(shape[-2]), int(shape[-1])
    if len(shape) == 1:
        return int(shape[0]), 1
    return 1, 1


def _nbytes(obj):
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(o) for o in obj)
    return int(getattr(obj, "nbytes", 0))


def _flops(kind, args, kwargs):
    """Operation count of one kernel call (Golub & Van Loan, table 5.5 / 8.6)."""
    rows, cols = _shape2(args[0] if args else None)
    k, big = min(rows, cols), max(rows, cols)
    if kind == "norm2" or (kind == "svd" and not kwargs.get("compute_uv", True)):
        return 4 * big * k * k - 4 * k ** 3 / 3
    if kind == "svd":
        if kwargs.get("full_matrices", True):
            return 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
        return 14 * big * k * k + 8 * k ** 3
    if kind == "eigvalsh":
        return 4 * rows ** 3 / 3
    if kind == "eigh":
        return 9 * rows ** 3
    if kind == "inv":
        return 2 * rows ** 3
    if kind == "qr":
        return 4 * k * k * (big - k / 3)
    if kind == "cho_factor":
        return rows ** 3 / 3
    rhs = _shape2(args[1])[1] if len(args) > 1 else 1
    if kind == "cho_solve":
        n = _shape2(args[0][0])[0]
        return 2 * n * n * rhs
    if kind == "lstsq":
        return 4 * big * k * k + 2 * rows * cols * rhs
    if kind == "scipy_solve" and kwargs.get("assume_a", "gen") in ("sym", "pos"):
        return rows ** 3 / 3 + 2 * rows * rows * rhs
    return 2 * rows ** 3 / 3 + 2 * rows * rows * rhs


class Tracer:
    """Records spans while installed; ``op`` labels the spans of one operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        layer = name.partition(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[2] = clock()
                # Note an exception once per layer: in the first span of that
                # layer it leaves.
                seen = exc.__dict__.setdefault("_bench_layers", set())
                if layer not in seen:
                    seen.add(layer)
                    rec[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            rec[2] = clock()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        traced._bench_wrapped = True
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap package functions and kernels; undone by :meth:`uninstall`."""
        import numpy
        import scipy.linalg

        import dsaddle
        import dsaddle.core

        modules = {f"dsaddle.{layer}": layer for layer in LAYERS}
        wrapped = {}
        namespaces = [dsaddle] + [sys.modules[m] for m in modules if m in sys.modules]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if getattr(obj, "_bench_wrapped", False):
                    continue
                layer = modules.get(obj.__module__)
                if layer is None:
                    continue
                if obj not in wrapped:
                    note = None
                    if layer == "mmio" and obj.__name__ in MMIO_FILES:
                        note = _file_note
                    wrapped[obj] = self._wrap(f"{layer}.{obj.__name__}", obj, note)
                self._patch(ns, attr, wrapped[obj])

        block_system = dsaddle.core.BlockSystem
        self._patch(block_system, "__init__",
                    self._wrap("core.BlockSystem", block_system.__init__))

        kernels = [(numpy.linalg, attr, attr) for attr in
                   ("svd", "eigvalsh", "eigh", "solve", "lstsq", "inv", "qr")]
        kernels += [(scipy.linalg, "solve", "scipy_solve"),
                    (scipy.linalg, "cho_factor", "cho_factor"),
                    (scipy.linalg, "cho_solve", "cho_solve")]
        for owner, attr, kind in kernels:
            self._patch(owner, attr, self._wrap(f"kernel.{kind}", getattr(owner, attr),
                                                _kernel_note(kind)))
        self._patch(numpy.linalg, "norm", self._norm_wrapper(numpy.linalg.norm))

    def _norm_wrapper(self, norm):
        traced = self._wrap("kernel.norm2", norm, _kernel_note("norm2"))

        @functools.wraps(norm)
        def dispatch(x, ord=None, *args, **kwargs):
            if ord == 2 and getattr(x, "ndim", 0) == 2:
                return traced(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        dispatch._bench_wrapped = True
        return dispatch

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _kernel_note(kind):
    def note(args, kwargs, result):
        return [_flops(kind, args, kwargs),
                _nbytes(args) + _nbytes(list(kwargs.values())) + _nbytes(result)]
    return note


def _file_note(args, kwargs, result):
    try:
        return os.path.getsize(args[0])
    except OSError:
        return 0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per-span duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def _has_ancestor(spans, idx, name):
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


ORACLE_SPANS = ("invertibility.oracle_invertible", "inverses.dense_inverse_blocks")


def op_counters(spans):
    """Counters per operation id, summed over the spans of each operation."""
    selfs = self_times(spans)
    per_op = {}
    for idx, (rec, self_ns) in enumerate(zip(spans, selfs)):
        name, start, end, _, op, note = rec
        if op is None or op == "setup":
            continue
        c = per_op.setdefault(op, {})
        dur_ms = (end - start) / 1e6
        layer, _, func = name.partition(".")
        c[f"{layer}.self_ms"] = c.get(f"{layer}.self_ms", 0.0) + self_ns / 1e6
        if layer == "kernel":
            kind = KERNEL_CLASS[func]
            c[f"kernel.{kind}_calls"] = c.get(f"kernel.{kind}_calls", 0) + 1
            c["kernel.busy_ms"] = c.get("kernel.busy_ms", 0.0) + dur_ms
            if isinstance(note, list):
                c["kernel.mflop_computed"] = c.get("kernel.mflop_computed", 0.0) + note[0] / 1e6
                c["kernel.mbyte_computed"] = c.get("kernel.mbyte_computed", 0.0) + note[1] / 1e6
        elif layer == "subspaces":
            c["subspaces.calls"] = c.get("subspaces.calls", 0) + 1
        elif layer == "mmio" and func in MMIO_FILES:
            key = f"mmio.{MMIO_FILES[func]}_ms"
            c[key] = c.get(key, 0.0) + dur_ms
            c["mmio.files"] = c.get("mmio.files", 0) + 1
            c["mmio.bytes"] = c.get("mmio.bytes", 0) + (note if isinstance(note, int) else 0)
        if name == "invertibility.condition_report":
            c["invertibility.condition_report_calls"] = \
                c.get("invertibility.condition_report_calls", 0) + 1
            c["invertibility.condition_report_ms"] = \
                c.get("invertibility.condition_report_ms", 0.0) + dur_ms
        elif name == "invertibility.diagnose":
            c["invertibility.diagnose_ms"] = c.get("invertibility.diagnose_ms", 0.0) + dur_ms
        elif name == "core.BlockSystem":
            c["core.blocksystem_ms"] = c.get("core.blocksystem_ms", 0.0) + dur_ms
        elif name == "inverses.three_block_inverse":
            c["inverses.three_block_ms"] = c.get("inverses.three_block_ms", 0.0) + dur_ms
        elif name == "inverses.inverse_via_factorization":
            c["inverses.factorization_ms"] = c.get("inverses.factorization_ms", 0.0) + dur_ms
        elif name == "inverses.verify_identities":
            c["inverses.verify_ms"] = c.get("inverses.verify_ms", 0.0) + dur_ms
        if name in ORACLE_SPANS and _has_ancestor(spans, idx, "inverses.verify_identities"):
            c["inverses.oracle_ms"] = c.get("inverses.oracle_ms", 0.0) + dur_ms
        if note == "PreconditionError" and layer == "inverses":
            c["inverses.precondition_errors"] = c.get("inverses.precondition_errors", 0) + 1
    return per_op
