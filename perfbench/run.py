"""pfrsim benchmark: one closed-loop client driving the CLI in-process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

The process imports ``pfrsim.cli`` from ``src/`` once, then repeats the
workload's cycle of CLI commands (see ``workloads.py``), calling
``pfrsim.cli.main(args, standalone_mode=False)`` with outputs in a scratch
directory, until the time budget is spent.  Each command's output is gated
on its first run and must then repeat byte for byte.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
command twice in a row, untraced and then with the wrappers of
``tracing.py`` installed, and prints the per-layer metrics.  The last line of standard output is one JSON
object; the exit code is nonzero when a correctness gate fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import nullcontext, redirect_stdout
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_BASE = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60
IMPORT_GROUPS = ("numpy", "scipy", "click")
# About the wall time of ``speed_probe`` on the 2-vCPU Xeon host the
# benchmark was built on, in a calm period; scaled times are at that speed.
PROBE_S = 0.010


def _import_child(extra: list[str]) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports pfrsim.cli from ``src/``."""
    return subprocess.run(
        [sys.executable, *extra, "-c", "import pfrsim.cli"],
        env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing pfrsim.cli (bytecode warm)."""
    _import_child([])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _import_child([])
        times.append(time.perf_counter() - t0)
    return times


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per import group from ``python -X importtime`` output.

    numpy, scipy and click count the cumulative time of each outermost
    module of the package; pfrsim counts its own modules' self time only,
    since its cumulative time contains the other three.
    """
    entries = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((int(m[1]), int(m[2]), len(m[3]), m[4]))
    out = {g: 0.0 for g in IMPORT_GROUPS + ("pfrsim",)}
    stack: list[tuple[int, str]] = []
    # importtime prints children before parents; reversed, parents come first
    for self_us, cum_us, level, name in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        group = name.split(".")[0]
        if group == "pfrsim":
            out["pfrsim"] += self_us * 1e-6
        elif group in out and all(g != group for _, g in stack):
            out[group] += cum_us * 1e-6
        stack.append((level, group))
    return out


def measure_importtime() -> dict[str, float]:
    _import_child([])
    runs = [parse_importtime(_import_child(["-X", "importtime"]).stderr) for _ in range(IMPORTTIME_REPEATS)]
    return {f"import.{g}_s": statistics.median(r[g] for r in runs) for g in runs[0]}


def environment(blas_cap: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or "unknown"
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    commit = None
    try:
        if not (ROOT / ".git").exists():
            raise FileNotFoundError(ROOT / ".git")
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "blas_threads": blas_cap,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def tail_percentile(xs: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank).

    None below the median: with fewer than 20 samples there is no tail.
    """
    n = len(xs)
    if n < 20:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(xs)[math.ceil(p * n / 100) - 1]


def _probe_integrand(x: float) -> float:
    return math.exp(-x * x) * math.cos(3.0 * x) + 1.0 / (1.0 + x * x)


def speed_probe() -> float:
    """Wall time of a fixed computation shaped like pfrsim's own work.

    Adaptive bisection with a 15/7-point Gauss rule over a scalar Python
    integrand (heapq, ``np.vectorize``), then a grid-and-golden-section
    search over a Python objective: the interpreter, ufunc and allocation
    mix of pfrsim's quadrature and bound sweeps.  The work is fixed, so the
    time tracks only the host's speed.
    """
    import heapq

    import numpy as np

    x15, w15 = np.polynomial.legendre.leggauss(15)
    x7, w7 = np.polynomial.legendre.leggauss(7)
    f = np.vectorize(_probe_integrand, otypes=[float])
    t0 = time.perf_counter()

    def panel(a, b):
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        fine = h * float(np.dot(w15, f(c + h * x15)))
        return fine, abs(fine - h * float(np.dot(w7, f(c + h * x7))))

    edges = np.linspace(-8.0, 8.0, 9)
    heap = []
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = panel(a, b)
        heapq.heappush(heap, (-e, a, b, v))
    for _ in range(160):
        _, a, b, _ = heapq.heappop(heap)
        for lo, hi in ((a, 0.5 * (a + b)), (0.5 * (a + b), b)):
            v, e = panel(lo, hi)
            heapq.heappush(heap, (-e, lo, hi, v))
    objective = lambda e: math.log1p(e) / e + math.lgamma(1.0 + e) * e * e
    for e in np.linspace(0.01, 2.0, 1200):
        objective(float(e))
    lo, hi = 0.01, 2.0
    for _ in range(60):
        m1, m2 = lo + 0.382 * (hi - lo), lo + 0.618 * (hi - lo)
        if objective(m1) < objective(m2):
            hi = m2
        else:
            lo = m1
    return time.perf_counter() - t0


class Runner:
    """Runs commands, times them, and keeps the operation accounting.

    ``speed_probe`` runs between commands, and each command's time is also
    recorded scaled to the probe's reference speed: ``dt * PROBE_S / r``,
    where ``r`` is the mean probe time just before and just after it.
    """

    def __init__(self, main, workload, work: Path):
        self.main = main
        self.workload = workload
        self.work = work
        self.tracer = None
        # prologue first, then the cycle; ``run_command`` indexes this list
        self.commands = list(workload.prologue) + workload.commands
        self.times: list[list[float]] = [[] for _ in self.commands]
        self.scaled: list[list[float]] = [[] for _ in self.commands]
        self.probe_times: list[float] = []
        self.cycle_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.warnings: dict[str, int] = {}
        self.bytes_out = 0
        self._verdicts: dict[int, tuple[str, list[str], int]] = {}

    def _digest(self, cmd, stdout: str) -> str:
        h = hashlib.sha256(stdout.encode())
        for name in cmd.outputs:
            path = self.work / name
            h.update(path.read_bytes() if path.is_file() else b"<missing>")
        return h.hexdigest()

    def run_command(self, i: int, cmd) -> float:
        for name in cmd.outputs:
            (self.work / name).unlink(missing_ok=True)
        if not self.probe_times:
            self.probe_times.append(speed_probe())
        buf = io.StringIO()
        error = None
        span = self.tracer.span(f"cli.{cmd.args[0]}") if self.tracer else nullcontext()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                with redirect_stdout(buf), span:
                    self.main(cmd.args, standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    error = f"exit code {exc.code}"
            except Exception as exc:  # any failure of the program is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
        for w in caught:
            key = w.category.__name__
            self.warnings[key] = self.warnings.get(key, 0) + 1
        stdout = buf.getvalue()
        self.times[i].append(dt)
        self.probe_times.append(speed_probe())
        self.scaled[i].append(dt * PROBE_S / (0.5 * (self.probe_times[-2] + self.probe_times[-1])))
        self.attempted += 1 + cmd.draws
        self.bytes_out += len(stdout.encode()) + sum(
            (self.work / n).stat().st_size for n in cmd.outputs if (self.work / n).is_file()
        )
        if error is not None:
            self._fail(cmd, [error], 1 + cmd.draws)
            return dt
        digest = self._digest(cmd, stdout)
        first = self._verdicts.get(i)
        if first is not None and first[0] == digest:
            errors, failed_draws = first[1], first[2]
        else:
            errors, failed_draws = cmd.check(stdout, self.work)
            if first is not None:
                errors = errors + ["output differs from the first run with the same arguments"]
            self._verdicts[i] = (digest, errors, failed_draws)
        self._fail(cmd, errors, (1 if errors else 0) + failed_draws)
        return dt

    def _fail(self, cmd, errors: list[str], count: int) -> None:
        self.failed += count
        for e in errors:
            msg = f"{' '.join(cmd.args[:3])}: {e}"
            if msg not in self.errors:
                self.errors.append(msg)

    def run_cycles(self, budget_s: float, step=None, prologue_each_cycle: bool = False) -> int:
        """Repeat the cycle until ``budget_s`` is spent; returns the cycle count.

        The prologue runs before the first cycle, or before every cycle
        with ``prologue_each_cycle``.  ``step(i, cmd)`` runs one command
        and returns its time; it defaults to ``run_command``.  A new cycle
        starts only if half of the last one still fits, so a run ends
        within half a cycle of the budget.
        """
        step = step or self.run_command
        first = len(self.workload.prologue)
        start = time.perf_counter()
        n = 0
        while True:
            c0 = time.perf_counter()
            if n == 0 or prologue_each_cycle:
                for i in range(first):
                    step(i, self.commands[i])
            self.cycle_times.append(
                sum(step(i, self.commands[i]) for i in range(first, len(self.commands)))
            )
            n += 1
            now = time.perf_counter()
            if now - start + 0.5 * (now - c0) >= budget_s:
                return n


def end_to_end(runner: Runner, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Gated metrics plus the printed per-kind figures.

    The gated times are medians of command times scaled to the probe's
    reference speed (see ``Runner``); the prologue is not gated.  On a
    shared 2-vCPU host the machine's speed drifts by 20-40% over minutes,
    and the raw times drift with it.  Raw medians, tails and best runs are
    printed for every kind.
    """
    commands = runner.commands
    samples = {k.name: [t for c, ts in zip(commands, runner.times) if c.kind == k.name for t in ts]
               for k in runner.workload.kinds}

    def per_kind(values):
        # mean over a kind's commands: the six sweeps differ in cost
        return {k: statistics.fmean(v for c, v in zip(commands, values) if c.kind == k) for k in samples}

    best = per_kind([min(ts) for ts in runner.times])
    scaled = [statistics.median(ts) for ts in runner.scaled]
    kind_scaled = per_kind(scaled)
    first = len(runner.workload.prologue)
    gated = {c.kind for c in runner.workload.commands}
    metrics = {
        "scaled_cycle_s": (sum(scaled[first:]), "s"),
        "scaled_cmd_geomean_s": (
            math.exp(statistics.fmean(math.log(kind_scaled[k]) for k in kind_scaled if k in gated)), "s"
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }

    def figure(kind, seconds: float) -> str:
        if kind.per_command is None:
            return f"{seconds:.6g} s"
        unit = "rows/s" if kind.name == "exact" else "draws/s"
        return f"{kind.per_command / seconds:.6g} {unit}"

    lines = []
    for kind in runner.workload.kinds:
        xs = samples[kind.name]
        text = f"{kind.metric:<32} {figure(kind, statistics.median(xs))}"
        tail = tail_percentile(xs)
        if tail:
            text += f"  p{tail[0]} {figure(kind, tail[1])}"
        lines.append(
            f"{text}  best {figure(kind, best[kind.name])}  scaled {figure(kind, kind_scaled[kind.name])}"
            f"  (n={len(xs)})"
        )
    lines.append(f"{'setup_s':<32} {metrics['setup_s'][0]:.6g} s  (n={len(setup_times)})")
    lines.append(
        f"{'error_rate':<32} {runner.failed / runner.attempted:.6g}  "
        f"({runner.failed} failed of {runner.attempted} operations)"
    )
    lines.append(f"{'peak_rss_mb':<32} {metrics['peak_rss_mb'][0]:.6g} MB")
    lines.append(
        f"{'scaled_cycle_s':<32} {metrics['scaled_cycle_s'][0]:.6g} s  "
        f"raw median cycle {statistics.median(runner.cycle_times):.6g} s  (n={len(runner.cycle_times)})"
    )
    lines.append(f"{'scaled_cmd_geomean_s':<32} {metrics['scaled_cmd_geomean_s'][0]:.6g} s")
    lines.append(
        f"{'speed_probe':<32} {statistics.median(runner.probe_times):.6g} s median, "
        f"{PROBE_S:g} s reference  (n={len(runner.probe_times)})"
    )
    return metrics, lines


def per_layer(tracer, cycles: int, spent: dict[str, float], bytes_out: float,
              imports: dict[str, float]) -> dict:
    """Per-layer metrics, per pass unless named per draw or point.

    A pass is the prologue plus one cycle; traced runs repeat both.
    """
    totals = tracer.totals()
    notes = tracer.notes

    def get(name, key="total_s"):
        return totals.get(name, {}).get(key, 0.0) / cycles

    def per_unit(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    draws = get("pfr.run_pfr", "calls")
    sampled = notes.get("pfr.sample_indices", 0) / cycles
    points = notes.get("pfr.log_beta", 0) / cycles
    m = {name: (value, "s") for name, value in imports.items()}
    m.update({
        "cli.self_s": (sum(v["self_s"] for k, v in totals.items() if k.startswith("cli.")) / cycles, "s"),
        "cli.bytes_out": (bytes_out / cycles, "bytes"),
        "pfr.run_pfr.us_per_draw": (per_unit(get("pfr.run_pfr"), draws, 1e6), "us"),
        "pfr.run_pfr.candidates_per_draw": (per_unit(notes.get("pfr.run_pfr", 0) / cycles, draws), "count"),
        "pfr.sample_indices.us_per_draw": (per_unit(get("pfr.sample_indices"), sampled, 1e6), "us"),
        "pfr.index_pmf.s": (get("pfr.index_pmf"), "s"),
        "pfr.log_beta.points": (points, "count"),
        "pfr.log_beta.us_per_point": (per_unit(get("pfr.log_beta"), points, 1e6), "us"),
        "numerics.integrate.calls": (get("numerics.integrate", "calls"), "count"),
        "numerics.integrate.self_s": (get("numerics.integrate", "self_s"), "s"),
        "numerics.quadrature_grid.s": (get("numerics.quadrature_grid"), "s"),
        "numerics.quadrature_grid.nodes": (notes.get("numerics.quadrature_grid", 0) / cycles, "count"),
        "numerics.minimize_scalar.calls": (get("numerics.minimize_scalar", "calls"), "count"),
        "numerics.minimize_scalar.probes": (notes.get("numerics.minimize_scalar.probes", 0) / cycles, "count"),
        "numerics.minimize_scalar.self_s": (get("numerics.minimize_scalar", "self_s"), "s"),
        "distributions.renyi_divergence.calls": (get("distributions.renyi_divergence", "calls"), "count"),
        "distributions.renyi_divergence.self_s": (get("distributions.renyi_divergence", "self_s"), "s"),
        "distributions.log_ratio.points": (notes.get("distributions.log_ratio.points", 0) / cycles, "count"),
        "bounds.optimize_ub.calls": (get("bounds.optimize_ub", "calls"), "count"),
        "bounds.optimize_ub.self_s": (get("bounds.optimize_ub", "self_s"), "s"),
        "bounds.sweep.rows": (notes.get("bounds.sweep", 0) / cycles, "count"),
        "bounds.sweep.s": (get("bounds.sweep"), "s"),
        "codes.renyi_entropy.calls": (get("codes.renyi_entropy", "calls"), "count"),
        "codes.renyi_entropy.s": (get("codes.renyi_entropy"), "s"),
        "codes.campbell_cost.s": (get("codes.campbell_cost"), "s"),
        "oracle.verify_moment_bounds.s": (get("oracle.verify_moment_bounds"), "s"),
        "oracle.verify_log_moment.s": (get("oracle.verify_log_moment"), "s"),
        "oracle.verify_geometric_moment.s": (get("oracle.verify_geometric_moment"), "s"),
        "oracle.verify_lb_via_optimal_code.s": (get("oracle.verify_lb_via_optimal_code"), "s"),
        "oracle.checks_failed": (notes.get("oracle.run_suite", 0) / cycles, "count"),
        "svg.write_line_chart.s": (get("svg.write_line_chart"), "s"),
        "svg.write_line_chart.bytes": (notes.get("svg.write_line_chart", 0) / cycles, "bytes"),
        "trace.overhead_s": ((spent["traced"] - spent["untraced"]) / cycles, "s"),
        "trace.unattributed_s": ((spent["traced_wall"] - tracer.top_level_s()) / cycles, "s"),
    })
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("reproduce", "sampling", "nonmonotone"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pfrsim" / "cli.py").is_file():
        print(f"pfrsim sources not found under {SRC}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    blas_cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_cap)
    sys.path.insert(0, str(SRC))

    setup_times = measure_setup() if args.trace == 0 else []
    imports = measure_importtime() if args.trace == 1 else {}

    t0 = time.perf_counter()
    from pfrsim.cli import main as cli_main

    import_s = time.perf_counter() - t0
    import tracing
    import workloads

    WORK_BASE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_BASE))
    try:
        runner = Runner(cli_main, workloads.build(args.workload, args.seed, work, ROOT), work)
        if args.trace == 0:
            cycles = runner.run_cycles(args.seconds)
            metrics, lines = end_to_end(runner, setup_times)
        else:
            tracer = tracing.Tracer()
            spent = {"untraced": 0.0, "traced": 0.0, "traced_wall": 0.0}

            def untraced_then_traced(i, cmd):
                # adjacent in time, so that drift in machine speed cancels
                dt = runner.run_command(i, cmd)
                spent["untraced"] += dt
                w0 = time.perf_counter()
                tracer.install()
                runner.tracer = tracer
                try:
                    spent["traced"] += runner.run_command(i, cmd)
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                spent["traced_wall"] += time.perf_counter() - w0
                return dt

            cycles = runner.run_cycles(args.seconds, untraced_then_traced, prologue_each_cycle=True)
            metrics = per_layer(tracer, cycles, spent, runner.bytes_out / 2, imports)
            lines = [f"{name:<40} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_BASE.rmdir()
        except OSError:
            pass

    correct = runner.failed == 0
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} cycles={cycles} in-process import {import_s:.4g} s"
    )
    for line in lines:
        print("  " + line)
    if runner.warnings:
        print("  warnings " + ", ".join(f"{k} x{v}" for k, v in sorted(runner.warnings.items())))
    for err in runner.errors[:20]:
        print("  FAILED " + err)
    print("env " + json.dumps(environment(blas_cap), sort_keys=True))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
