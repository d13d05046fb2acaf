"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop with one caller: operation i+1 starts when
operation i has returned.  Inputs come from ``dsaddle.gen_instance`` with
seeds derived from the workload seed.  The program under test receives only
blocks; the verdicts, inverses and exit codes it returns are checked against
a dense oracle the benchmark owns (``assemble_k`` and one ``numpy`` SVD per
generated system), never against dsaddle's own assembly or oracle.

Library workloads give each operation a system no earlier operation has
seen: a generated base system conjugated by a fresh random signed
permutation of each block space, K' = S K S^T with S = diag(S_n, S_m, S_p).
That keeps every rank, kernel relation and singular value of the base
exactly, so the base's oracle holds for the variant, while the bytes differ
and no cache keyed on content or identity can hit.  The number of distinct
systems is then independent of how fast the program runs, and so is set-up.

Package functions are always looked up as ``dsaddle.<name>`` at call time so
that a traced run sees them.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.io

import dsaddle

TOL = dsaddle.DEFAULT_TOL

# A system whose sigma_min / sigma_max lies within this factor of the rank
# threshold is refused.  Rounding moves the computed ratio by about ell * eps
# (4e-14 at ell = 175), far less than a decade around a threshold of
# rank_rtol * ell = 1.75e-8; a wider band refuses well-determined systems of
# the class whose construction leaves the answer open.
NEAR_THRESHOLD_FACTOR = 10.0

PROBE_COLUMNS = 4


class SetupError(RuntimeError):
    """The generated inputs cannot give a trustworthy run."""


def assemble_k(blocks):
    """K = [[A, B^T, 0], [B, -D, C^T], [0, C, E]], built with numpy only."""
    A, B, C, D, E = blocks
    n, m, p = A.shape[0], B.shape[0], C.shape[0]
    K = np.zeros((n + m + p, n + m + p))
    K[:n, :n] = A
    K[:n, n:n + m] = B.T
    K[n:n + m, :n] = B
    K[n:n + m, n:n + m] = -D
    K[n:n + m, n + m:] = C.T
    K[n + m:, n:n + m] = C
    K[n + m:, n + m:] = E
    return K


class Oracle:
    """Dense SVD of K: its norm and invertibility under the package policy."""

    def __init__(self, blocks, label):
        K = assemble_k(blocks)
        s = np.linalg.svd(K, compute_uv=False)
        self.sigma_max = float(s[0])
        ratio = float(s[-1] / s[0])
        self.cond = 1.0 / ratio
        threshold = TOL.rank_rtol * K.shape[0]
        if threshold / NEAR_THRESHOLD_FACTOR < ratio < threshold * NEAR_THRESHOLD_FACTOR:
            raise SetupError(f"{label}: sigma_min/sigma_max = {ratio:.3e} is within "
                             f"{NEAR_THRESHOLD_FACTOR:g}x of the rank threshold {threshold:.3e}")
        self.invertible = ratio > threshold


def blocks_of(system):
    return tuple(np.array(getattr(system, name)) for name in "ABCDE")


def signed_permuted(blocks, rng):
    """Blocks of S K S^T for random signed permutations of each block space."""
    A, B, C, D, E = blocks
    perms = [(rng.permutation(d), rng.choice((-1.0, 1.0), size=d))
             for d in (A.shape[0], B.shape[0], C.shape[0])]

    def conj(M, rows, cols):
        (ri, rs), (ci, cs) = perms[rows], perms[cols]
        return M[np.ix_(ri, ci)] * rs[:, None] * cs[None, :]

    return conj(A, 0, 0), conj(B, 1, 0), conj(C, 2, 1), conj(D, 1, 1), conj(E, 2, 2)


def digest(arrays, extra=b""):
    h = hashlib.sha256(extra)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def inverse_residual(K, X, V, oracle):
    """Normwise relative residual of a claimed inverse X, probed on columns V.

    ||K X V - V||_F / (||K||_2 ||K^-1||_2 ||V||_F), with both norms from the
    oracle's singular values, so that it measures error relative to what the
    conditioning of K allows.
    """
    return float(np.linalg.norm(K @ (X @ V) - V) / (oracle.cond * np.linalg.norm(V)))


class LibraryWorkload:
    """Shared set-up for the in-process workloads: bases, oracles, variants."""

    dims = None
    classes = ()            # (label, generator targets, verdict the construction fixes)
    bases_per_class = 1

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.bases = []     # per class: list of (blocks, oracle)
        self.attempts = []
        self.inputs_sha256 = None
        self.pool_bytes = 0

    @property
    def rotation(self):
        return len(self.classes)

    def build(self):
        n, m, p = self.dims
        arrays = []
        for k, (label, targets, fixed) in enumerate(self.classes):
            bases = []
            for j in range(self.bases_per_class):
                spec = dsaddle.GeneratorSpec(
                    n, m, p, seed=self.seed * 1000 + k * 100 + j, **targets)
                system, cert = dsaddle.gen_instance(spec)
                self.attempts.append(cert.attempt + 1)
                blocks = blocks_of(system)
                oracle = Oracle(blocks, f"{label} base {j}")
                if fixed is not None and oracle.invertible != (fixed == "invertible"):
                    raise SetupError(f"{label} base {j}: the oracle says "
                                     f"invertible={oracle.invertible}, the construction "
                                     f"fixes {fixed}")
                bases.append((blocks, oracle))
                arrays.extend(blocks)
            self.bases.append(bases)
        self.inputs_sha256 = digest(arrays, repr(self.dims).encode())
        self.pool_bytes = sum(a.nbytes for a in arrays)

    def op_class(self, i):
        return self.classes[i % self.rotation][0]

    def prepare(self, i, stream=0):
        """Input of operation i: a signed-permutation variant of a base."""
        k = i % self.rotation
        blocks, oracle = self.bases[k][(i // self.rotation) % self.bases_per_class]
        rng = np.random.default_rng([self.seed, stream, i])
        return k, signed_permuted(blocks, rng), oracle

    def warm_up(self, count):
        for i in range(count):
            prepared = self.prepare(i, stream=1)
            problem = self.check(prepared, self.run(prepared))
            if problem:
                raise SetupError(f"warm-up operation failed: {problem}")


class Ladder(LibraryWorkload):
    """``ladder-175``: one fresh BlockSystem + ``diagnose`` per operation."""

    name = "ladder-175"
    dims = (100, 50, 25)
    bases_per_class = 4
    classes = (
        ("e_iff", dict(null_a=50, require_ds1=True), "invertible"),
        ("e_iff_singular", dict(null_a=50, require_ds1=True, null_e=3), "singular"),
        ("schur_sufficient", {}, "invertible"),
        ("undetermined", dict(null_a=5, def_a="indefinite"), None),
        ("direct_sum_iff", dict(null_a=40, rank_b=40, require_ds1=True, rank_c=20,
                                null_e=20, require_ds2=True, force_overlap_r=True),
         "singular"),
        ("necessary_N1", dict(null_a=50, rank_b=45), "singular"),
    )

    def __init__(self, seed, workdir, root):
        super().__init__(seed, workdir, root)
        self.exits = {}

    def run(self, prepared):
        _, blocks, _ = prepared
        return dsaddle.diagnose(dsaddle.BlockSystem(*blocks))

    def check(self, prepared, result):
        k, blocks, oracle = prepared
        label, _, fixed = self.classes[k]
        exit_name = result.rule or "undetermined"
        per_class = self.exits.setdefault(label, {})
        per_class[exit_name] = per_class.get(exit_name, 0) + 1
        verdict = result.verdict.value
        if verdict == "undetermined":
            return f"{label}: undetermined, but the construction fixes {fixed}" if fixed else None
        if (verdict == "invertible") != oracle.invertible:
            return f"{label}: verdict {verdict} contradicts the dense oracle"
        if verdict == "singular":
            u = np.asarray(result.witness, dtype=float)
            if abs(np.linalg.norm(u) - 1.0) > 1e-6:
                return f"{label}: witness is not a unit vector"
            residual = np.linalg.norm(assemble_k(blocks) @ u)
            if residual > TOL.residual_rtol * oracle.sigma_max:
                return f"{label}: witness residual {residual:.3e} above tolerance"
        return None

    def warm_up(self):
        super().warm_up(self.rotation)


class Session(LibraryWorkload):
    """``session-525``: diagnose, two inverses and verify on one system."""

    name = "session-525"
    dims = (300, 150, 75)
    classes = tuple((f"null_d_{d}", dict(null_a=150, require_ds1=True, null_d=d),
                     "invertible") for d in (0, 1, 2))

    def build(self):
        super().build()
        rng = np.random.default_rng([self.seed, 2])
        self.probe = rng.standard_normal((sum(self.dims), PROBE_COLUMNS))

    def run(self, prepared):
        _, blocks, _ = prepared
        system = dsaddle.BlockSystem(*blocks)
        return (dsaddle.diagnose(system),
                dsaddle.three_block_inverse(system),
                dsaddle.inverse_via_factorization(system),
                dsaddle.verify_identities(system))

    def check(self, prepared, result):
        _, blocks, oracle = prepared
        diagnosis, three_block, factorization, identities = result
        if diagnosis.verdict.value != "invertible":
            return f"diagnose returned {diagnosis.verdict.value} for an invertible system"
        if np.any(three_block.z22) or np.any(three_block.z23):
            return "three_block_inverse returned a nonzero Z22 or Z23"
        K = assemble_k(blocks)
        for name, inverse in (("three_block", three_block), ("factorization", factorization)):
            residual = inverse_residual(K, inverse.full, self.probe, oracle)
            if residual > TOL.residual_rtol:
                return f"{name} inverse residual {residual:.3e} above tolerance"
        bad = [e["id"] for e in identities if e["status"] != "ok"]
        if bad or len(identities) != 6:
            return f"verify_identities: not ok: {bad}"
        return None

    def warm_up(self):
        super().warm_up(1)


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("generate", "diagnose", "invert", "verify")


def parse_importtime(text):
    """Total scipy import time (ms) from ``-X importtime`` output.

    Lines arrive in post-order (children before parents) and nesting shows as
    indentation, so the cumulative time of every scipy module without a scipy
    ancestor is added once.
    """
    stack = []          # (level, scipy ms inside the subtree)
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip())) // 2
        inner = 0.0
        while stack and stack[-1][0] > level:
            inner += stack.pop()[1]
        if name.strip().split(".")[0] == "scipy":
            inner = int(cumulative) / 1e3
        stack.append((level, inner))
    return sum(ms for _, ms in stack)


class Cli:
    """``cli-35``: one fresh ``python -m dsaddle.cli`` process per operation."""

    name = "cli-35"
    dims = (20, 10, 5)
    targets = dict(null_a=10, require_ds1=True)
    instances = 4
    rotation = len(CLI_COMMANDS)

    def __init__(self, seed, workdir, root):
        self.seed = seed
        self.workdir = Path(workdir)
        self.root = Path(root)
        self.traced = False
        self.spans = []
        self.processes = []     # per traced op: interpreter / import timings
        self.attempts = []
        self.peak_rss_kb = 0
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def spec(self, seed):
        n, m, p = self.dims
        return dsaddle.GeneratorSpec(n, m, p, seed=seed, **self.targets)

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec_path = self.workdir / "spec.json"
        spec = self.spec(0).to_dict()
        self.spec_path.write_text(json.dumps(spec), encoding="utf-8")
        arrays = []
        self.inputs = []
        for j in range(self.instances):
            system, cert = dsaddle.gen_instance(self.spec(self.seed * 1000 + j))
            self.attempts.append(cert.attempt + 1)
            blocks = blocks_of(system)
            oracle = Oracle(blocks, f"cli instance {j}")
            if not oracle.invertible:
                raise SetupError(f"cli instance {j} is singular")
            directory = self.workdir / f"instance-{j}"
            dsaddle.save_block_system(directory, system)
            self.inputs.append((directory, blocks, oracle))
            arrays.extend(blocks)
        self.inputs_sha256 = digest(arrays, json.dumps(spec).encode())
        self.pool_bytes = sum(a.nbytes for a in arrays)

    def op_class(self, i):
        return CLI_COMMANDS[i % self.rotation]

    def prepare(self, i):
        command = CLI_COMMANDS[i % self.rotation]
        directory, blocks, oracle = self.inputs[(i // self.rotation) % self.instances]
        out = self.workdir / f"out-{i}"
        gen_seed = self.seed * 100000 + i
        argv = {
            "generate": ["generate", "--spec", str(self.spec_path), "--out", str(out),
                         "--seed", str(gen_seed)],
            "diagnose": ["diagnose", str(directory)],
            "invert": ["invert", str(directory), "--out", str(out)],
            "verify": ["verify", str(directory)],
        }[command] + ["--format", "json"]
        return i, command, argv, out, (blocks, oracle), gen_seed

    def run(self, prepared):
        i, _, argv, _, _, _ = prepared
        stdout, stderr = self.workdir / "stdout", self.workdir / "stderr"
        if self.traced:
            spans = self.workdir / "spans.json"
            cmd = [sys.executable, "-X", "importtime",
                   str(self.root / "bench" / "cli_driver.py"), "--spans", str(spans), "--"]
        else:
            cmd = [sys.executable, "-m", "dsaddle.cli"]
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            spawned = time.time()
            proc = subprocess.Popen(cmd + argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced:
            self._collect(i, spans, stderr, spawned)
        return proc.returncode, stdout.read_text(encoding="utf-8")

    def _collect(self, i, spans_path, stderr_path, spawned):
        dump = json.loads(spans_path.read_text(encoding="utf-8"))
        offset = len(self.spans)
        for name, start, end, parent, _, note in dump["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                               i, note])
        self.processes.append({
            "interpreter_ms": (dump["started"] - spawned) * 1e3,
            "dsaddle_cli_ms": dump["import_ms"],
            "scipy_ms": parse_importtime(stderr_path.read_text(encoding="utf-8")),
        })

    def check(self, prepared, result):
        _, command, _, out, system, gen_seed = prepared
        code, stdout = result
        try:
            return self._check(command, code, stdout, out, system, gen_seed)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, command, code, stdout, out, system, gen_seed):
        if code != 0:
            return f"{command}: exit code {code}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return f"{command}: stdout is not JSON"
        if command == "generate":
            if payload.get("schema") != "dsaddle.certificate/1" or payload.get("seed") != gen_seed \
                    or payload.get("dims") != list(self.dims) or not payload.get("ds1"):
                return "generate: unexpected certificate"
            self.attempts.append(payload["attempt"] + 1)
            expected = blocks_of(dsaddle.gen_instance(self.spec(gen_seed))[0])
            for name, block in zip("ABCDE", expected):
                written = np.asarray(scipy.io.mmread(str(out / f"{name}.mtx")), dtype=float)
                if written.shape != block.shape or not np.allclose(written, block,
                                                                   rtol=1e-12, atol=1e-14):
                    return f"generate: {name}.mtx differs from the generator's block"
            return None
        if command == "diagnose":
            if payload.get("schema") != "dsaddle.diagnosis/1" \
                    or payload.get("verdict") != "invertible" or payload.get("rule") != "e_iff":
                return f"diagnose: verdict {payload.get('verdict')} rule {payload.get('rule')}"
            return None
        if command == "invert":
            if payload.get("schema") != "dsaddle.inverse-manifest/1" \
                    or payload.get("constructor") != "three_block":
                return f"invert: constructor {payload.get('constructor')}"
            z = {name: np.atleast_2d(np.asarray(scipy.io.mmread(str(out / f"{name}.mtx")),
                                                dtype=float))
                 for name in ("Z11", "Z12", "Z13", "Z22", "Z23", "Z33")}
            if np.any(z["Z22"]) or np.any(z["Z23"]):
                return "invert: nonzero Z22 or Z23"
            X = np.block([[z["Z11"], z["Z12"], z["Z13"]],
                          [z["Z12"].T, z["Z22"], z["Z23"]],
                          [z["Z13"].T, z["Z23"].T, z["Z33"]]])
            blocks, oracle = system
            residual = inverse_residual(assemble_k(blocks), X, np.eye(X.shape[0]), oracle)
            if residual > TOL.residual_rtol:
                return f"invert: inverse residual {residual:.3e} above tolerance"
            return None
        if payload.get("schema") != "dsaddle.verify/1" or payload.get("all_passed") is not True \
                or any(e["status"] != "ok" for e in payload.get("identities", [])):
            return "verify: an identity is not ok"
        return None

    def warm_up(self):
        prepared = self.prepare(1)
        problem = self.check(prepared, self.run(prepared))
        if problem:
            raise SetupError(f"warm-up operation failed: {problem}")


WORKLOADS = {w.name: w for w in (Ladder, Session, Cli)}
