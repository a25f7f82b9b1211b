"""The four benchmark workloads: seeded inputs, one op each, answer checks.

A workload turns a seed into one *round*: a fixed list of ops in a seeded
order.  The runner repeats whole rounds, so every run of a seed executes the
same ops in the same proportions, and the first round's outputs fix the
digest.  ``ROUND_S`` is a workload's nominal round time (seconds of op time
on a 2-core x86-64 VM); the runner derives its fixed round count from it.
Every op carries the answer its input was constructed to have; ``check``
compares the program's answer with it.

Library ops look functions up on the ``obstructkit`` modules at call time
(``ok.winding_of_unitary``), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import obstructkit as ok
from obstructkit import audit
from obstructkit.projops import pairing_input_to_json

HERE = Path(__file__).resolve().parent


class Refused(Exception):
    """A CLI command exited nonzero: the program refused the input."""

    def __init__(self, code: int, stderr: bytes):
        super().__init__(f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}")
        self.code = code


@dataclasses.dataclass
class Op:
    """One unit of work.  ``run(tracer)`` returns the program's answer."""

    label: str
    group: str
    run: object
    check: object
    render: object


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _dump(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode()


def _render_dataclass(result) -> bytes:
    return _dump(dataclasses.asdict(result))


def _spread_draw(lo: int, hi: int, count: int, rng) -> list:
    """``count`` integers evenly spaced over [lo, hi] from one random offset.

    Each is uniform on [lo, hi], and together they cover the range evenly,
    so no seed draws mostly large or mostly small values.
    """
    size = hi - lo + 1
    offset = rng.random()
    return [lo + int((i + offset) * size / count) for i in range(count)]


def _shuffled(units: list, rng) -> list:
    order = rng.permutation(len(units))
    return [op for i in order for op in units[i]]


# ---------------------------------------------------------------------------
# winding-sweep
# ---------------------------------------------------------------------------

# (dim, ops per round).  Dims straddle the dense-LU / eigenvalue split at 160
# (winding.DENSE_DET_DIM_LIMIT).  The counts put homogeneous clusters of ops
# (dim 40, dim 160) at the median and the 90th percentile of op latency, so
# those percentiles do not jump between clusters from run to run.
WINDING_DIMS = (
    (8, 32), (24, 28), (40, 24), (80, 8), (120, 6),
    (160, 16), (161, 6), (240, 4), (400, 4), (800, 2),
)
VOICULESCU_DELTAS = (0.5, 0.25, 0.1)
VOICULESCU_KS = range(-5, 6)


def _winding_op(label, run, expected):
    def check(report):
        return report.agreement and report.winding == expected

    return Op(label, "winding", run, check, _render_dataclass)


def _unitary_op(dim, w_matrix, expected):
    return _winding_op(
        f"winding_of_unitary[{dim}]",
        lambda tracer: ok.winding_of_unitary(w_matrix),
        expected,
    )


def _pair_op(delta, k, u, v):
    return _winding_op(
        f"winding_pair[{delta},{k}]", lambda tracer: ok.winding_pair(u, v), k
    )


class WindingSweep:
    name = "winding-sweep"
    ROUND_S = 10.0

    def generate(self, seed: int):
        rng = _rng(seed, 1)
        units = []
        for dim, count in WINDING_DIMS:
            cap = ok.max_winding_for_dim(dim)
            for wind in _spread_draw(-cap, cap, count, rng):
                w_matrix, expected = ok.random_admissible_unitary(dim, rng, winding=wind)
                units.append([_unitary_op(dim, w_matrix, expected)])
        for delta in VOICULESCU_DELTAS:
            for k in VOICULESCU_KS:
                units.append([_pair_op(delta, k, *ok.voiculescu_pair(delta, k))])
        return _shuffled(units, rng)

    def warmup(self, seed: int):
        rng = _rng(seed, 2)
        for dim in (8, 80, 161):
            w_matrix, _ = ok.random_admissible_unitary(dim, rng, winding=1)
            ok.winding_of_unitary(w_matrix)
        ok.winding_pair(*ok.voiculescu_pair(0.5, 2))


# ---------------------------------------------------------------------------
# audit-mix
# ---------------------------------------------------------------------------

AUDIT_TRIALS_PER_SUITE = 160


def _audit_check(ratios) -> bool:
    return bool(ratios) and all(r <= 1.0 for r in ratios.values())


def _audit_op(suite, seed, trial):
    return Op(
        f"run_trial[{suite},{trial}]",
        suite,
        lambda tracer: audit.run_trial(suite, seed, trial),
        _audit_check,
        _dump,
    )


class AuditMix:
    name = "audit-mix"
    ROUND_S = 9.0

    def generate(self, seed: int):
        units = [
            [_audit_op(suite, seed, trial)]
            for suite in audit.SUITES
            for trial in range(AUDIT_TRIALS_PER_SUITE)
        ]
        return _shuffled(units, _rng(seed, 1))

    def warmup(self, seed: int):
        for suite in audit.SUITES:
            audit.run_trial(suite, seed, AUDIT_TRIALS_PER_SUITE)


# ---------------------------------------------------------------------------
# exact integer inputs shared by homology-eta and cli-roundtrip
# ---------------------------------------------------------------------------


def _int_identity(n: int) -> np.ndarray:
    eye = np.zeros((n, n), dtype=object)
    np.fill_diagonal(eye, 1)
    return eye


def unimodular_pair(n: int, steps: int, rng):
    """Random unimodular ``M`` and its exact inverse, as lists of int rows.

    ``M`` is a product of ``steps`` elementary row additions with multipliers
    +-1 or +-2; the inverse applies the opposite column operations.  The
    entries are Python ints (numpy object arrays), so nothing can overflow.
    """
    m = _int_identity(n)
    inv = _int_identity(n)
    for _ in range(steps):
        i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
        c = int(rng.integers(1, 3)) * (1 if rng.integers(0, 2) else -1)
        m[i] += c * m[j]
        inv[:, j] -= c * inv[:, i]
    return m.tolist(), inv.tolist()


def int_matmul(a, b):
    """Exact product of two int matrices given as lists of rows."""
    return (np.array(a, dtype=object) @ np.array(b, dtype=object)).tolist()


def rational_corank(rows) -> int:
    """Corank over Q by exact Gaussian elimination in ``Fraction``."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, n) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        for i in range(rank + 1, n):
            if a[i][col]:
                f = a[i][col] / top[col]
                row = a[i]
                for t in range(col, cols):
                    row[t] -= f * top[t]
        rank += 1
    return cols - rank


def automorphism_matrix(n: int, steps: int, rng):
    """``S T S^-1`` with ``T`` upper triangular, diagonal +-1: unimodular,
    with eigenvalue 1 of seeded multiplicity.  Returns (matrix, corank(I - M)),
    the corank taken from ``I - T``, which is similar to ``I - M`` and has
    small entries."""
    s, s_inv = unimodular_pair(n, steps, rng)
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = 1 if rng.integers(0, 3) else -1
        for j in range(i + 1, n):
            if rng.integers(0, 4) == 0:
                t[i][j] = int(rng.integers(-1, 2))
    m = int_matmul(int_matmul(s, t), s_inv)
    one_minus = [[int(i == j) - t[i][j] for j in range(n)] for i in range(n)]
    return m, rational_corank(one_minus)


def det_chain(rng) -> list:
    """Seeded invariant-factor tail d1 | d2 | d3 | d4 with product near 1e6."""
    a = int(rng.choice([2, 3]))
    b = a * int(rng.choice([2, 3, 5]))
    c = b * int(rng.choice([2, 3, 5]))
    d = c * int(rng.choice([2, 3, 5, 7]))
    while a * b * c * d < 5 * 10**5:
        d *= int(rng.choice([2, 3]))
    return [a, b, c, d]


def snf_input(n: int, steps: int, rng, tail=()):
    """``A = P diag(1, ..., 1, tail) Q`` with unimodular P, Q.

    Its Smith diagonal is ``(1, ..., 1, *tail)`` whenever ``tail`` is a
    divisibility chain.
    """
    diag = [1] * (n - len(tail)) + list(tail)
    p, _ = unimodular_pair(n, steps, rng)
    q, _ = unimodular_pair(n, steps, rng)
    scaled = [[x * diag[j] for j, x in enumerate(row)] for row in p]
    return int_matmul(scaled, q), diag


def snf_answer_ok(a, u, d, v, diagonal) -> bool:
    """``U A V = D`` in Python ints, D diagonal, chain, and the built diagonal."""
    if int_matmul(int_matmul(u, a), v) != d:
        return False
    n = len(d)
    if any(d[i][j] for i in range(n) for j in range(len(d[0])) if i != j):
        return False
    diag = [d[i][i] for i in range(min(n, len(d[0])))]
    if any(y % x for x, y in zip(diag, diag[1:]) if x):
        return False
    return diag == list(diagonal)


def eta_ok(eta: float, q: float) -> bool:
    return abs(eta - (1.0 - 2.0 * q)) <= 1e-6


def eta_grid_points(rng, count: int) -> list:
    """``count`` evenly spaced points of the 199-point grid q = j/200."""
    return [j / 200.0 for j in _spread_draw(1, 199, count, rng)]


# ---------------------------------------------------------------------------
# homology-eta
# ---------------------------------------------------------------------------

# (size, elementary steps, ops per round); steps set the coefficient size.
# Many instances per round keep the seed's draw from moving the averages.
# The 40-wide ops (a sixth of a round's ops) form the cluster the 90th
# latency percentile falls in; eta ops are over half, so the median is one.
SNF_UNIMODULAR = ((20, 120, 25), (40, 160, 25))
SNF_DET = (30, 120, 25)
AUTOMORPHISMS = ((20, 120),) * 15 + ((40, 120),) * 15
ETA_POINTS = 199


def _snf_op(rows, diagonal):
    matrix = ok.int_matrix(rows)

    def check(result):
        u, d, v = (list(map(list, m.entries)) for m in result)
        return snf_answer_ok(rows, u, d, v, diagonal)

    return Op(
        f"smith_normal_form[{len(rows)}]",
        "snf",
        lambda tracer: ok.smith_normal_form(matrix),
        check,
        lambda result: _dump([m.entries for m in result]),
    )


def _h2_op(kind, rows, expected, sign=None):
    matrix = ok.int_matrix(rows)
    if kind == "fbc":
        run = lambda tracer: ok.free_by_cyclic_h2(matrix)  # noqa: E731
        want = ok.AbelianGroup(free_rank=expected)
    else:
        run = lambda tracer: ok.mapping_torus_surface_h2(sign, matrix)  # noqa: E731
        want = (ok.AbelianGroup(free_rank=expected + 1) if sign == 1
                else ok.AbelianGroup(free_rank=expected, torsion=(2,)))
    return Op(f"{kind}_h2[{len(rows)}]", kind, run,
              lambda group: group == want, _render_dataclass)


def _eta_op(q):
    twist = ok.CharacterTwist(q)
    return Op(
        f"eta_character_abel[{q}]",
        "eta",
        lambda tracer: ok.eta_character_abel(twist),
        lambda result: eta_ok(result.eta, q),
        _render_dataclass,
    )


class HomologyEta:
    name = "homology-eta"
    ROUND_S = 10.0

    def generate(self, seed: int):
        rng = _rng(seed, 1)
        units = []
        for n, steps, count in SNF_UNIMODULAR:
            for _ in range(count):
                units.append([_snf_op(*snf_input(n, steps, rng))])
        n, steps, count = SNF_DET
        for _ in range(count):
            units.append([_snf_op(*snf_input(n, steps, rng, det_chain(rng)))])
        for i, (n, steps) in enumerate(AUTOMORPHISMS):
            m, corank = automorphism_matrix(n, steps, rng)
            units.append([_h2_op("fbc", m, corank)])
            m, corank = automorphism_matrix(n, steps, rng)
            units.append([_h2_op("mapping_torus", m, corank, sign=(1, -1)[i % 2])])
        units += [[_eta_op(q)] for q in eta_grid_points(rng, ETA_POINTS)]
        return _shuffled(units, rng)

    def warmup(self, seed: int):
        rng = _rng(seed, 2)
        rows, _ = snf_input(8, 20, rng)
        ok.smith_normal_form(ok.int_matrix(rows))
        ok.eta_character_abel(ok.CharacterTwist(0.25))


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 120
# (delta, |k|) of the voiculescu witnesses; the seed picks each sign.  The two
# large ones (189 and 182 wide) make up the slowest fifth of a round's
# commands, so the 90th latency percentile falls inside that group.
CLI_VOICULESCU = ((0.1, 3), (0.25, 7), (0.5, 2))
CLI_ABELIAN = dict(rank=2, dim=24)
CLI_SURFACE = dict(genus=2, dim=12)
# (N, k) of the pairing instances: operands are 2 N k wide.
CLI_PAIRINGS = ((7, 10), (4, 6))


def cli_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@dataclasses.dataclass
class CliResult:
    stdout: bytes
    out_file: bytes
    bytes_in: int

    @property
    def bytes_out(self) -> int:
        return len(self.stdout) + len(self.out_file)

    def json(self):
        return json.loads(self.out_file or self.stdout)


class CliRunner:
    """Runs one CLI subprocess per op, in ``work`` as working directory."""

    def __init__(self, src: Path, work: Path):
        self.env = cli_env(src)
        self.work = work

    def __call__(self, args, out_name=None, in_name=None, tracer=None):
        argv = list(args) + (["--out", out_name] if out_name else [])
        spans = None
        if tracer is None:
            cmd = [sys.executable, "-m", "obstructkit.cli", *argv]
        else:
            spans = self.work / f"spans-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans), *argv]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S, check=False)
        if spans is not None and spans.exists():
            tracer.merge(json.loads(spans.read_text()))
            spans.unlink()
        if proc.returncode != 0:
            raise Refused(proc.returncode, proc.stderr)
        out_file = (self.work / out_name).read_bytes() if out_name else b""
        bytes_in = (self.work / in_name).stat().st_size if in_name else 0
        return CliResult(proc.stdout, out_file, bytes_in)


def _render_cli(result: CliResult) -> bytes:
    return result.stdout + b"\0" + result.out_file


def _cli_op(runner, label, group, args, check, out_name=None, in_name=None):
    def run(tracer):
        return runner(args, out_name, in_name, tracer)

    return Op(label, group, run, lambda r: check(r.json()), _render_cli)


def pairing_instance(n_dim: int, k_dim: int, rng):
    """Pairing input of index ``s r`` (construction of audit.random_pairing_instance,
    at a chosen size): q a small twist of ``1_N (x) q0``, rank q0 = r, and
    ``e + b`` a Haar-random projection of rank ``N + s``."""
    r = int(rng.integers(1, k_dim))
    s = int(rng.integers(-n_dim, n_dim + 1))
    q0 = ok.random_projection(k_dim, r, rng)
    q = np.kron(np.eye(n_dim), q0)
    h = ok.random_hermitian(n_dim * k_dim, rng, 1.0)
    lam, vecs = np.linalg.eigh(h)
    twist = (vecs * np.exp(1j * float(rng.uniform(0.0, 0.01)) * lam)) @ vecs.conj().T
    q = twist @ q @ twist.conj().T
    e = np.zeros((2 * n_dim, 2 * n_dim))
    e[:n_dim, :n_dim] = np.eye(n_dim)
    b = ok.random_projection(2 * n_dim, n_dim + s, rng) - e
    return pairing_input_to_json(ok.pairing_input(b, q, n_dim, k_dim)), s * r


class CliRoundtrip:
    name = "cli-roundtrip"
    ROUND_S = 6.0

    def __init__(self, src: Path, work: Path):
        self.src = src
        self.work = work
        self.runner = CliRunner(src, work)

    def generate(self, seed: int):
        rng = _rng(seed, 1)
        run = self.runner
        units = []
        for i, (delta, k_abs) in enumerate(CLI_VOICULESCU):
            k = k_abs * (1 if rng.integers(0, 2) else -1)
            dim = ok.voiculescu_pair(delta, k)[0].shape[0]
            name = f"voiculescu-{i}.json"
            units.append([
                _cli_op(run, f"gen voiculescu[{delta},{k}]", "gen",
                        ["gen", "voiculescu", "--delta", repr(delta), "--k", str(k)],
                        lambda o, dim=dim: o["images"][0]["dim"] == dim and len(o["images"]) == 2,
                        out_name=name),
                _cli_op(run, f"invariants voiculescu[{delta},{k}]", "invariants",
                        ["invariants", name],
                        lambda o, k=k, delta=delta: o["winding"]["winding"] == k
                        and o["defect"]["max_defect"] < delta,
                        in_name=name),
            ])
        for family, params in (("abelian", CLI_ABELIAN), ("surface", CLI_SURFACE)):
            eps = float(rng.choice([0.01, 0.1]))
            gen_seed = int(rng.integers(0, 2**31))
            extra = (["--rank", str(params["rank"])] if family == "abelian"
                     else ["--genus", str(params["genus"])])
            images = params["rank"] if family == "abelian" else 2 * params["genus"]
            name = f"{family}.json"
            units.append([
                _cli_op(run, f"gen {family}[{eps}]", "gen",
                        ["gen", family, *extra, "--eps", repr(eps), "--dim",
                         str(params["dim"]), "--seed", str(gen_seed)],
                        lambda o, images=images, dim=params["dim"]: len(o["images"]) == images
                        and o["images"][0]["dim"] == dim,
                        out_name=name),
                _cli_op(run, f"invariants {family}[{eps}]", "invariants", ["invariants", name],
                        lambda o, eps=eps: o["defect"]["max_defect"] < eps
                        and "skipped" in o["winding"],
                        in_name=name),
            ])
        for i, (n_dim, k_dim) in enumerate(CLI_PAIRINGS):
            inp, index = pairing_instance(n_dim, k_dim, rng)
            name = f"pairing-{i}.json"
            (self.work / name).write_text(json.dumps(inp, sort_keys=True))
            units.append([_cli_op(run, f"pairing[{n_dim},{k_dim}]", "pairing",
                                  ["pairing", name],
                                  lambda o, index=index: o["index"] == index,
                                  in_name=name)])
        rows, diagonal = snf_input(30, 120, rng, det_chain(rng))
        units.append([_cli_op(
            run, "homology snf[30]", "homology",
            ["homology", "snf", "--matrix", json.dumps(rows)],
            lambda o, rows=rows, diagonal=diagonal: snf_answer_ok(
                rows, o["U"]["entries"], o["D"]["entries"], o["V"]["entries"], diagonal),
        )])
        m, corank = automorphism_matrix(20, 120, rng)
        units.append([_cli_op(
            run, "homology fbc[20]", "homology",
            ["homology", "fbc", "--matrix", json.dumps(m)],
            lambda o, corank=corank: o["h2"]["free_rank"] == corank
            and o["obstruction_count"] == corank,
        )])
        (q,) = eta_grid_points(rng, 1)
        units.append([_cli_op(run, f"eta abel[{q}]", "eta",
                              ["eta", "--q", repr(q), "--method", "abel"],
                              lambda o, q=q: eta_ok(o["eta"], q))])
        return _shuffled(units, rng)

    def warmup(self, seed: int):
        startup_ms(self.src, self.work, repeats=1)


def startup_ms(src: Path, work: Path, repeats: int) -> list:
    """Wall time of subprocesses that only import ``obstructkit.cli``."""
    env = cli_env(src)
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import obstructkit.cli"], cwd=work,
                       env=env, check=True, timeout=CLI_TIMEOUT_S)
        out.append((time.perf_counter() - t0) * 1e3)
    return out
