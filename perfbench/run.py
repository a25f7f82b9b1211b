"""obstructkit benchmark: four seeded workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload winding-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each workload is a closed loop: one caller in one process issues the next op
when the previous one has returned (cli-roundtrip runs one subprocess at a
time).  The loop repeats whole rounds of the seed's ops; the number of
rounds is fixed by ``--seconds`` and the workload's nominal round time, so
every run of a seed executes exactly the same ops.  ``--trace 0`` prints the
end-to-end metrics, with times scaled to a fixed machine speed (see
REFERENCE_S); ``--trace 1`` spends half the rounds untraced and half with
span wrappers installed, and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any op returned a wrong answer.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("winding-sweep", "audit-mix", "cli-roundtrip", "homology-eta")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5
# Stop starting rounds after this much wall time, whatever the round count.
WALL_LIMIT_S = 150.0
BLAS_ENV = ("OBSTRUCTKIT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The host is shared: its speed drifts by up to 1.7x, over seconds and over
# minutes, in CPU time as well as wall time, and moves every op alike.  So
# each untraced op is followed, outside its timing, by a fixed reference job,
# and each op's time is scaled to the speed at which that job takes
# REFERENCE_S (its time on an uncontended 2-core x86-64 VM), using the jobs
# run after the ops within REFERENCE_NEIGHBOURS of it.  The raw wall-clock
# figures stay in the report and in the wall.* layer metrics.
REFERENCE_S = 0.5e-3
REFERENCE_NEIGHBOURS = 5
REFERENCE_WARMUP = 50


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class ReferenceJob:
    """Fixed interpreter, big-int and small dense-matrix work, 0.5-0.8 ms;
    calling it returns its wall time in seconds."""

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).standard_normal((48, 48)) / 48.0

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(6000):
            acc += i * i % 7
        big = 3**900
        for _ in range(60):
            big = big * 12345 % 7**700
        m = self.matrix
        for _ in range(8):
            m = m @ self.matrix
        return time.perf_counter() - t0


class Window:
    """Outcome of one measured window (whole rounds)."""

    def __init__(self):
        self.samples = []  # (op index in the round, op group, seconds) per attempted op
        self.reference = []  # seconds of the reference job after each untraced op
        self.busy = 0.0
        self.failed = 0
        self.wrong = []
        self.done: dict = {}  # op group -> completed ops
        self.bytes_out = 0
        self.bytes_in = 0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed - len(self.wrong)

    def ops_per_s(self) -> float:
        return self.completed / self.busy

    def group_time(self, group: str) -> float:
        return sum(t for _, g, t in self.samples if g == group)

    def latencies_ms(self, group=None) -> list:
        return [t * 1e3 for _, g, t in self.samples if group in (None, g)]

    def slowdowns(self) -> list:
        """Per attempted op, how much slower than REFERENCE_S the reference
        job ran after the ops within REFERENCE_NEIGHBOURS of it."""
        ref, k = self.reference, REFERENCE_NEIGHBOURS
        return [statistics.mean(ref[max(0, i - k):i + k + 1]) / REFERENCE_S
                for i in range(len(ref))]


class Runner:
    """Runs whole rounds of ops, checks answers and keeps the digest."""

    def __init__(self, ops, refusals, reference_job=None):
        self.ops = ops
        self.refusals = refusals
        self.reference_job = reference_job
        self.reference = {}  # op index -> sha256 of its first canonical output
        self.digest = hashlib.sha256()
        self.op_counter = 0

    def window(self, rounds: int, tracer=None) -> Window:
        """``rounds`` whole rounds, or fewer (at least one) once the wall
        time passes WALL_LIMIT_S."""
        win = Window()
        wall0 = time.perf_counter()
        for _ in range(rounds):
            for i, op in enumerate(self.ops):
                self._one(i, op, win, tracer)
            if time.perf_counter() - wall0 >= WALL_LIMIT_S:
                break
        return win

    def _one(self, i, op, win, tracer):
        if tracer is not None:
            tracer.current_op = self.op_counter
        self.op_counter += 1
        error = None
        t0 = time.perf_counter()
        try:
            result = op.run(tracer)
        except self.refusals as exc:
            error = exc
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        win.samples.append((i, op.group, dt))
        win.busy += dt
        if tracer is None and self.reference_job is not None:
            win.reference.append(self.reference_job())
        if isinstance(error, str):
            win.wrong.append(f"{op.label}: crashed\n{error}")
            return
        if error is not None:
            win.failed += 1
            canonical = json.dumps({"refused": type(error).__name__,
                                    "code": getattr(error, "code", None)}).encode()
        else:
            canonical = op.render(result)
            win.done[op.group] = win.done.get(op.group, 0) + 1
            win.bytes_out += getattr(result, "bytes_out", 0)
            win.bytes_in += getattr(result, "bytes_in", 0)
        fingerprint = hashlib.sha256(canonical).hexdigest()
        seen = self.reference.get(i)
        if seen is None:
            self.reference[i] = fingerprint
            self.digest.update(f"{i}:{op.label}\n".encode() + canonical + b"\n")
            if error is None and not op.check(result):
                win.wrong.append(f"{op.label}: wrong answer {canonical[:300]!r}")
        elif seen != fingerprint:
            win.wrong.append(f"{op.label}: output differs from the first round")


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "cpu_pinning": "none",
        "cache_dropping": "none",
    }
    env.update({k: os.environ.get(k, "unset") for k in BLAS_ENV})
    return env


def import_program():
    """Import obstructkit from this checkout's src/, never from elsewhere."""
    init = SRC / "obstructkit" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"perfbench: no program sources at {init.relative_to(ROOT)}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import obstructkit

    if Path(obstructkit.__file__).resolve() != init.resolve():
        sys.stderr.write(f"perfbench: imported obstructkit from {obstructkit.__file__}\n")
        raise SystemExit(2)


def make_workload(name: str, work: Path):
    import workloads

    if name == "cli-roundtrip":
        return workloads.CliRoundtrip(SRC, work)
    return {
        "winding-sweep": workloads.WindingSweep,
        "audit-mix": workloads.AuditMix,
        "homology-eta": workloads.HomologyEta,
    }[name]()


def rounds_for(workload, seconds: float) -> int:
    """Rounds that take about ``seconds`` of op time at the workload's
    nominal round time; a fixed count, so attempted and failed ops are the
    same on every run of a seed."""
    return max(1, round(seconds / workload.ROUND_S))


def setup(workload, seed: int):
    """Generate the inputs and warm up, SETUP_REPEATS times; returns the ops
    of the last repeat and the median repeat time."""
    times, ops = [], None
    for _ in range(SETUP_REPEATS):
        ops = None  # free the previous inputs, so set-up does not set the peak RSS
        t0 = time.perf_counter()
        ops = workload.generate(seed)
        workload.warmup(seed)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(win: Window, setup_s: float, slowdowns=None) -> dict:
    """Set-up time, rate and latency percentiles.  With ``slowdowns`` (one
    per attempted op), each op's time is divided by its own, and the set-up
    time by their mean."""
    slowdowns = slowdowns or [1.0] * win.attempted
    lat_ms = [t / f for t, f in zip(win.latencies_ms(), slowdowns)]
    return {
        "setup_s": metric(setup_s / statistics.mean(slowdowns), "s"),
        "ops_per_s": metric(win.completed / (sum(lat_ms) / 1e3), "1/s"),
        "op_p50_ms": metric(percentile(lat_ms, 50), "ms"),
        "op_p90_ms": metric(percentile(lat_ms, 90), "ms"),
    }


def wall_clock(win: Window, setup_s: float) -> dict:
    """The unscaled timings, and the reference job's mean time."""
    out = {f"wall.{name}": m for name, m in timings(win, setup_s).items()}
    out["machine.reference_job_ms"] = metric(statistics.mean(win.reference) * 1e3, "ms")
    return out


def end_to_end(win: Window, setup_s: float, cli: bool) -> dict:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    out = timings(win, setup_s, win.slowdowns())
    out["peak_rss_mb"] = metric(resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    return out


def per_layer(base: Window, traced: Window, recorder, startup: list, cli: bool,
              setup_s: float) -> dict:
    """Layer metrics.  Rates, refusals, CLI latencies and wall-clock timings
    come from the untraced half ``base``; calls and self time from the traced
    half, per op."""
    import tracer as tracing
    from obstructkit.audit import SUITES

    out = {"failed_frac": metric(base.failed / base.attempted, "fraction")}
    out.update(wall_clock(base, setup_s))
    for suite in SUITES:
        t = base.group_time(suite)
        out[f"{suite}_trials_per_s"] = metric(base.done.get(suite, 0) / t if t else 0.0, "1/s")
    ops = traced.attempted
    summary = recorder.summary()
    for name in tracing.span_names():
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = metric(calls / ops, "calls/op")
        out[f"{name}.self_s"] = metric(self_s / ops, "s/op")
    c = recorder.counters
    reports = c["winding.reports"]
    out.update({
        "lapack.det.matrices": metric(c["lapack.det.matrices"] / ops, "matrices/op"),
        "winding.samples_per_call": metric(c["winding.samples"] / reports if reports else 0.0,
                                           "samples"),
        "winding.refused": metric(c["winding.refused"] / ops, "refusals/op"),
        "eta.abel_terms": metric(c["eta.abel_terms"] / ops, "terms/op"),
        "homology.snf.max_bits": metric(c["homology.snf.max_bits"], "bits"),
        "cli.startup_ms": metric(statistics.median(startup), "ms"),
    })
    for group in ("gen", "invariants", "pairing", "homology", "eta"):
        lats = base.latencies_ms(group) if cli else []
        out[f"cli.{group}.p50_ms"] = metric(percentile(lats, 50) if lats else 0.0, "ms")
    done = max(base.completed, 1)
    out["cli.json_bytes_out"] = metric(base.bytes_out / done, "bytes/op")
    out["cli.json_bytes_in"] = metric(base.bytes_in / done, "bytes/op")
    out["trace.overhead_frac"] = metric(base.ops_per_s() / traced.ops_per_s() - 1.0,
                                        "fraction")
    return out


def run_one(args) -> int:
    import_program()
    import tracer as tracing
    import workloads
    from obstructkit.errors import ObstructkitError

    import_s = time.perf_counter() - T0
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(exist_ok=True)
    try:
        cli = args.workload == "cli-roundtrip"
        workload = make_workload(args.workload, work)
        ops, gen_s = setup(workload, args.seed)
        setup_s = import_s + gen_s
        reference = ReferenceJob()
        for _ in range(REFERENCE_WARMUP):
            reference()
        runner = Runner(ops, (ObstructkitError, workloads.Refused), reference)
        rounds = rounds_for(workload, args.seconds)
        if args.trace:
            half = max(1, rounds // 2)
            base = runner.window(half)
            recorder = tracing.Tracer()
            uninstall = tracing.install(recorder)
            try:
                traced = runner.window(half, recorder)
            finally:
                uninstall()
            startup = workloads.startup_ms(SRC, work, STARTUP_REPEATS)
            metrics = per_layer(base, traced, recorder, startup, cli, setup_s)
            wall = {}  # already among the per-layer metrics
            windows = (base, traced)
            recorder.write_npz(OUT / f"spans-{args.workload}-seed{args.seed}.npz", len(ops))
        else:
            win = runner.window(rounds)
            metrics = end_to_end(win, setup_s, cli)
            wall = wall_clock(win, setup_s)
            windows = (win,)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wrong = [w for win in windows for w in win.wrong]
    digest = runner.digest.hexdigest()
    env = environment(args.seed)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "digest": digest,
        "round_ops": len(ops),
        "wrong": wrong,
        "metrics": metrics,
        "wall_clock": wall,
        "samples": [w.samples for w in windows],
        "reference_s": [w.reference for w in windows],
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True))
    for line in wrong:
        sys.stderr.write(f"perfbench: {line}\n")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  digest sha256:{digest}  ({len(ops)} ops per round)")
    for name, m in {**metrics, **wall}.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not wrong,
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def run_all(args) -> int:
    """Every workload in its own process, so set-up and memory stay separate."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            sys.stderr.write(f"perfbench: {name} printed no result (exit {proc.returncode})\n")
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric_name, m in result["metrics"].items():
            merged["metrics"][f"{name}.{metric_name}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
