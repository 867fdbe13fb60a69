#!/usr/bin/env python3
"""Write the outputs of a fixed set of pfrsim CLI commands into one directory.

    python tools/snapshot_outputs.py OUTDIR [--root REPO] [--record | --check]

Each command runs as ``python -m pfrsim.cli`` with ``PYTHONPATH=REPO/src``
(REPO defaults to the checkout holding this script) and its working
directory at OUTDIR, so every output lands there under a relative name:

* the six golden sweeps, ``--format both`` (a .csv and a .svg each),
  and the sweep of Laplace(0,1)|Laplace(0.5,2), whose scales differ;
* the sweep of Laplace(0,1)|Laplace(0.5,3) with ``--out`` set to its
  stem, which has a dot and no suffix;
* ``entropy-figure --n-max 1000 --format both`` on N(0,1)|N(1,1) and on
  N(0,1)|N(0.5,1.6), whose ratio is not monotone;
* the writer paths the commands above leave out: the sweep of
  N(0,1)|N(1,1) and ``entropy-figure --format csv`` on it to stdout, with
  no ``--out``, and ``entropy-figure --format svg`` on
  Laplace(0,1)|Laplace(1,1), which writes the SVG alone;
* the sweep of N(0,1)|N(0,1) to stdout, where ub1 is c1 alone and its
  minimum over epsilon sits on c1's case boundary (2a - 1)/(1 - a) at
  a = 0.7, the kink where a changed comparison in the search shows first;
* the sweeps of N(0,10)|N(0,1) and of finite (0.9,0.1)|(0.5,0.5) to
  stdout: the first has rows whose ub1 is +inf at every epsilon and rows
  where it is +inf at only some, the second the finite kind's divergence
  inside the epsilon search;
* ``divergence`` on Laplace(0,1)|Laplace(0.5,2) at orders 2000 to 3e20,
  on N(0,1)|N(0.5,1.6) at orders 1 +- 1e-9 and 1 +- 1e-12, and on
  Laplace(0,1)|Laplace(1,1) and finite (0.9,0.1)|(0.5,0.5) at those four
  orders and 1e300;
* ``divergence --numeric`` on N(0,1)|N(0.5,1.6) and on
  Laplace(0,2)|Laplace(0.5,1), whose divergence is infinite from order 2;
* ``verify --seed 0`` and ``verify --seed 1``, and ``verify --seed 2
  --samples 100003``, a count that is a multiple of neither the exact
  sampler's block nor the relabel chunk of the permuted moment check;
* the three ``sample`` commands of the benchmark's ``sampling`` workload
  (selection rule with delta 1e-8, selection rule on a bounded ratio, and
  200,000 exact rows), plus 2,000 selection-rule rows on each other kind
  (non-monotone Gaussian and Laplace ratios, a finite pair with a point P
  never hits) and 2,000 exact rows on the last two, at seeds 0, 1 and 2;
* 500 selection-rule rows at seed 0 on N(0,1.2)|N(0,1), whose ratio has a
  trough at 0, so its level sets are the "outside" of an interval;
* 100,003 exact rows at seed 0 on Laplace(0,1)|Laplace(1,1), on the two
  non-monotone pairs, on the finite pair, on N(0,1)|N(5,1), on
  N(0,1)|N(3,1), on Laplace(0,1)|Laplace(10,1) and on the trough pair
  N(0,1.2)|N(0,1), and 40,003 on
  N(0,1)|N(1,1): several blocks of the exact sampler each.  The
  continuous pairs of equal scales are read through their squeeze
  tables, N(0,1)|N(5,1) among them; its indices pass 2**40, where one ulp
  of beta can move an index by a unit, so its rows pin the table's
  margins where they are tightest;
* the first of those (selection rule, delta 1e-8) at the multi-word seeds
  2**64 + 1 and 2**130 + 7, whose streams take longer seed hashes;
* 2,000 exact rows at seed 0 on N(1e10,1)|N(1e10+1,1), the pair
  N(0,1)|N(1,1) moved far from the origin, where a log ratio written in
  absolute coordinates loses every bit to the cancelling squares;
* 20,003 exact rows at seed 0 on N(0,1e-10)|N(1e-10,1e-10) to stdout,
  with no ``--out``: every u is below 1e-4, so every row prints in
  scientific notation, and the rows span two of ``sample``'s blocks.

The stdout of each command is kept as ``<name>.stdout``.  Where the
platform can pin a process to CPUs, the multi-block exact commands run a
second time pinned to one CPU, in a temporary directory, where the exact
sampler has no thread pool; their output files and stdout must keep the
bytes of the unpinned run, which shows that the output does not depend on
the CPU count.  The script exits 1 if any command fails or a pinned run
differs.

``tools/snapshot_digests.json`` records the SHA-256 and size of every
output, with the Python, numpy and scipy versions they were made with:

    python tools/snapshot_outputs.py OUTDIR --record   # rewrite the manifest
    python tools/snapshot_outputs.py OUTDIR --check    # compare with it

``--check`` first says so if the library versions differ from the
recorded ones (numpy's transcendentals may change bits between
versions), then lists each output that differs, is missing or is new,
and exits 1 if there is any.  Use an empty OUTDIR: a file left there by
an earlier run counts as new.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

MANIFEST = Path(__file__).with_name("snapshot_digests.json")

GOLDEN_PAIRS = (
    ("normal:0,1", "normal:1,1"),
    ("normal:0,1", "normal:5,1"),
    ("normal:0,1", "normal:10,1"),
    ("laplace:0,1", "laplace:1,1"),
    ("laplace:0,1", "laplace:5,1"),
    ("laplace:0,1", "laplace:10,1"),
)

NONMONOTONE_NORMAL = ("normal:0,1", "normal:0.5,1.6")
NONMONOTONE_LAPLACE = ("laplace:0,1", "laplace:0.5,2")
FINITE = ("finite:0.5,0,0.3,0.2", "finite:0.2,0.3,0.1,0.4")
#: A ratio with a trough: p/q is least at 0 and grows both ways.
TROUGH = ("normal:0,1.2", "normal:0,1")

#: (name, pair, extra arguments) of the sampling commands.
SAMPLES = (
    ("pfr", ("normal:0,1", "normal:1,1"), ("-n", "2000", "--method", "pfr", "--delta", "1e-8")),
    ("pfr_bounded", ("laplace:0,1", "laplace:1,1"), ("-n", "4000", "--method", "pfr")),
    ("exact", ("normal:0,1", "normal:1,1"), ("-n", "200000", "--method", "exact")),
    ("pfr_nonmonotone_normal", NONMONOTONE_NORMAL, ("-n", "2000", "--method", "pfr")),
    ("pfr_nonmonotone_laplace", NONMONOTONE_LAPLACE, ("-n", "2000", "--method", "pfr")),
    ("pfr_finite", FINITE, ("-n", "2000", "--method", "pfr")),
    ("exact_nonmonotone_laplace", NONMONOTONE_LAPLACE, ("-n", "2000", "--method", "exact")),
    ("exact_finite", FINITE, ("-n", "2000", "--method", "exact")),
)

#: (name, pair, rows) of the exact sampler over several blocks, at seed 0.
EXACT_BLOCKS = (
    ("exact_blocks_laplace", ("laplace:0,1", "laplace:1,1"), "100003"),
    ("exact_blocks_nonmonotone_normal", NONMONOTONE_NORMAL, "100003"),
    ("exact_blocks_nonmonotone_laplace", NONMONOTONE_LAPLACE, "100003"),
    ("exact_blocks_finite", FINITE, "100003"),
    ("exact_blocks_heavy", ("normal:0,1", "normal:5,1"), "100003"),
    ("exact_blocks_normal_gap_3", ("normal:0,1", "normal:3,1"), "100003"),
    ("exact_blocks_laplace_gap_10", ("laplace:0,1", "laplace:10,1"), "100003"),
    ("exact_blocks_trough", TROUGH, "100003"),
    ("exact_two_blocks", ("normal:0,1", "normal:1,1"), "40003"),
)

#: Pairs whose sweeps reach the edges of ub1's epsilon search: +inf at
#: every epsilon or at some, and a finite pair's divergence.
EDGE_SWEEPS = (("normal:0,10", "normal:0,1"), ("finite:0.9,0.1", "finite:0.5,0.5"))

#: Seeds of three and five 32-bit words, for the selection rule.
WIDE_SEEDS = (2**64 + 1, 2**130 + 7)

#: Orders 1 +- 1e-12 and 1 +- 1e-9.
NEAR_ONE = ("0.999999999999", "0.999999999", "1.000000001", "1.000000000001")

#: (name, pair, orders) of the divergence tables.
DIVERGENCES = (
    ("large_orders", NONMONOTONE_LAPLACE, ("2000", "1e4", "1e6", "3e20")),
    ("near_one", NONMONOTONE_NORMAL, NEAR_ONE),
    ("near_one_laplace_shift", ("laplace:0,1", "laplace:1,1"), (*NEAR_ONE, "1e300")),
    ("near_one_finite", ("finite:0.9,0.1", "finite:0.5,0.5"), (*NEAR_ONE, "1e300")),
)

#: (name, pair, orders) of the divergence tables with the quadrature column.
NUMERIC_DIVERGENCES = (
    ("numeric_normal", NONMONOTONE_NORMAL, ("0.5", "1", "1.5", "2")),
    ("numeric_laplace_wide", ("laplace:0,2", "laplace:0.5,1"), ("0.5", "1", "1.5", "3")),
)


def stem(p: str, q: str) -> str:
    """File-name stem of a pair, as in ``tests/golden``."""
    return f"{p}_{q}".replace(":", "_").replace(",", "_")


def commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of every command, in run order."""
    out = []
    for p, q in (*GOLDEN_PAIRS, NONMONOTONE_LAPLACE):
        name = f"sweep_{stem(p, q)}"
        out.append((name, ["sweep", p, q, "--format", "both", "--out", f"{name}.csv"]))
    name = f"sweep_{stem('laplace:0,1', 'laplace:0.5,3')}"
    out.append((name, ["sweep", "laplace:0,1", "laplace:0.5,3", "--format", "both", "--out", name]))
    for p, q in (("normal:0,1", "normal:1,1"), NONMONOTONE_NORMAL):
        name = f"entropy_figure_{stem(p, q)}"
        out.append((name, ["entropy-figure", p, q, "--n-max", "1000",
                           "--format", "both", "--out", f"{name}.csv"]))
    p, q = GOLDEN_PAIRS[0]
    out.append((f"sweep_stdout_{stem(p, q)}", ["sweep", p, q]))
    out.append((f"sweep_stdout_{stem(p, p)}", ["sweep", p, p]))
    for edge in EDGE_SWEEPS:
        out.append((f"sweep_stdout_{stem(*edge)}", ["sweep", *edge]))
    out.append((f"entropy_figure_stdout_{stem(p, q)}",
                ["entropy-figure", p, q, "--n-max", "1000", "--format", "csv"]))
    p, q = GOLDEN_PAIRS[3]
    name = f"entropy_figure_svg_{stem(p, q)}"
    out.append((name, ["entropy-figure", p, q, "--n-max", "1000", "--format", "svg", "--out", name]))
    for kind, pair, orders in DIVERGENCES:
        name = f"divergence_{kind}"
        out.append((name, ["divergence", *pair, *(f"--order={o}" for o in orders),
                           "--out", f"{name}.csv"]))
    for kind, pair, orders in NUMERIC_DIVERGENCES:
        name = f"divergence_{kind}"
        out.append((name, ["divergence", *pair, *(f"--order={o}" for o in orders), "--numeric",
                           "--out", f"{name}.csv"]))
    for seed in range(2):
        out.append((f"verify_seed_{seed}", ["verify", "--seed", str(seed)]))
    out.append(("verify_seed_2_samples_100003", ["verify", "--seed", "2", "--samples", "100003"]))
    for seed in range(3):
        for kind, pair, extra in SAMPLES:
            name = f"sample_{kind}_seed_{seed}"
            out.append((name, ["sample", *pair, *extra, "--seed", str(seed),
                               "--out", f"{name}.csv"]))
    kind, pair, extra = SAMPLES[0]
    for seed in WIDE_SEEDS:
        name = f"sample_{kind}_seed_{seed}"
        out.append((name, ["sample", *pair, *extra, "--seed", str(seed), "--out", f"{name}.csv"]))
    name = "sample_pfr_trough_seed_0"
    out.append((name, ["sample", *TROUGH, "-n", "500", "--method", "pfr", "--seed", "0",
                       "--out", f"{name}.csv"]))
    name = "sample_exact_far_seed_0"
    out.append((name, ["sample", "normal:1e10,1", "normal:10000000001,1", "-n", "2000",
                       "--method", "exact", "--seed", "0", "--out", f"{name}.csv"]))
    out.append(("sample_exact_scientific_stdout_seed_0",
                ["sample", "normal:0,1e-10", "normal:1e-10,1e-10", "-n", "20003",
                 "--method", "exact", "--seed", "0"]))
    return out + exact_block_commands()


def exact_block_commands() -> list[tuple[str, list[str]]]:
    """(name, CLI arguments) of the exact sampler over several blocks."""
    out = []
    for kind, pair, rows in EXACT_BLOCKS:
        name = f"sample_{kind}_seed_0"
        out.append((name, ["sample", *pair, "-n", rows, "--method", "exact", "--seed", "0",
                           "--out", f"{name}.csv"]))
    return out


def output_files(name: str, cli_args: list[str]) -> list[str]:
    """Names of the files a command leaves in OUTDIR: its stdout, then what ``--out`` names."""
    files = [f"{name}.stdout"]
    if "--out" in cli_args:
        out = cli_args[cli_args.index("--out") + 1]
        fmt = cli_args[cli_args.index("--format") + 1] if "--format" in cli_args else None
        if fmt is None:  # a command without formats writes --out as given
            files.append(out)
        else:
            base = out[:-4] if out.endswith((".csv", ".svg")) else out
            files += [base + ext for ext in ((".csv", ".svg") if fmt == "both" else (f".{fmt}",))]
    return files


def expected_files() -> set[str]:
    """Every file a snapshot holds."""
    return {f for name, cli_args in commands() for f in output_files(name, cli_args)}


def versions() -> dict[str, str]:
    """Versions of Python and of the libraries whose arithmetic the outputs depend on."""
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def digests(outdir: Path) -> dict[str, dict]:
    """SHA-256 and size of every file in OUTDIR, by name."""
    return {p.name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(), "size": p.stat().st_size}
            for p in sorted(outdir.iterdir()) if p.is_file()}


def check(outdir: Path) -> int:
    """Compare OUTDIR with the manifest; 1 if any file differs, is missing or is new."""
    manifest = json.loads(MANIFEST.read_text())
    if manifest["versions"] != versions():
        print(f"snapshot_outputs: recorded with {manifest['versions']}, running {versions()}; "
              "outputs may differ for that reason alone", file=sys.stderr)
    want, have = manifest["files"], digests(outdir)
    problems = ([f"differs: {n}" for n in sorted(want.keys() & have.keys()) if want[n] != have[n]]
                + [f"missing: {n}" for n in sorted(want.keys() - have.keys())]
                + [f"new: {n}" for n in sorted(have.keys() - want.keys())])
    for line in problems:
        print(line)
    if problems:
        print(f"snapshot_outputs: {len(problems)} file(s) differ from the manifest", file=sys.stderr)
        return 1
    print(f"snapshot_outputs: all {len(want)} files match the manifest")
    return 0


def run(cli_args: list[str], cwd: Path, env: dict, preexec_fn=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pfrsim.cli", *cli_args], cwd=cwd, env=env,
                          capture_output=True, text=True, preexec_fn=preexec_fn)


def pinned_differences(outdir: Path, env: dict) -> list[str]:
    """Names of the exact-block commands whose output changes on one CPU."""
    cpu = min(os.sched_getaffinity(0))
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cli_args in exact_block_commands():
            res = run(cli_args, Path(tmp), env, lambda: os.sched_setaffinity(0, {cpu}))
            csv = Path(tmp) / f"{name}.csv"
            if (res.returncode != 0 or res.stdout != (outdir / f"{name}.stdout").read_text()
                    or not csv.exists() or csv.read_bytes() != (outdir / csv.name).read_bytes()):
                differ.append(name)
                print(f"{name}: differs on one CPU (exit {res.returncode})\n{res.stderr}",
                      file=sys.stderr)
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ is run (default: this one)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record", action="store_true", help=f"write {MANIFEST.name}")
    mode.add_argument("--check", action="store_true", help=f"compare with {MANIFEST.name}")
    args = parser.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(args.root.resolve() / "src"))
    failed = []
    for name, cli_args in commands():
        res = run(cli_args, args.outdir, env)
        (args.outdir / f"{name}.stdout").write_text(res.stdout)
        if res.returncode != 0:
            failed.append(name)
            print(f"{name}: exit {res.returncode}\n{res.stderr}", file=sys.stderr)
    if failed:
        print(f"snapshot_outputs: {len(failed)} command(s) failed", file=sys.stderr)
        return 1
    if hasattr(os, "sched_setaffinity"):  # not on every platform
        differ = pinned_differences(args.outdir, env)
        if differ:
            print(f"snapshot_outputs: {len(differ)} command(s) differ on one CPU", file=sys.stderr)
            return 1
    if args.record:
        manifest = {"versions": versions(), "files": digests(args.outdir)}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return check(args.outdir) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
