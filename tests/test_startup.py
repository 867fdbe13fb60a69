"""scipy is imported at the first Gaussian tail mass, not with pfrsim.

Each test runs a fresh interpreter, since this process has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pfrsim.distributions import DistributionPair, Gaussian
from pfrsim.pfr import _squeeze_table

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs the CLI on argv, then prints whether scipy is loaded.
RUN_CLI = """
import sys
from pfrsim.cli import main
main(sys.argv[1:], standalone_mode=False)
print("scipy" in sys.modules, file=sys.stderr)
"""

# Runs the CLI on argv with probes on the first import of scipy.special: it
# records which thread imports it and whether the exact sampler's blocks are
# running, and holds an import inside the blocks until a second thread has
# asked for it.  The sampler gets two helpers whatever the CPU count, so that
# two blocks race for it.  Prints the record as JSON.  With PRELOAD set,
# scipy.special is imported first instead.
RACE = """
import json, os, sys, threading
import pfrsim.distributions as dist
import pfrsim.pfr as pfr
from pfrsim.cli import main

if os.environ.get("PRELOAD"):
    import scipy.special

pfr._helpers = lambda: 2
record = {"asked": [], "loads": [], "in_blocks": False, "preloaded": "scipy" in sys.modules}
both_asked = threading.Event()

run_blocks = pfr._run_blocks
def probed_run_blocks(*args):
    record["in_blocks"] = True
    try:
        return run_blocks(*args)
    finally:
        record["in_blocks"] = False
pfr._run_blocks = probed_run_blocks

stand_in = dist._Special.__getattr__
def probed_getattr(self, name):
    record["asked"].append(threading.current_thread().name)
    if len(set(record["asked"])) > 1:
        both_asked.set()
    return stand_in(self, name)
dist._Special.__getattr__ = probed_getattr

class Hold:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy.special":
            record["loads"].append([threading.current_thread().name, record["in_blocks"]])
            if record["in_blocks"]:
                both_asked.wait(30)
        return None
sys.meta_path.insert(0, Hold())

main(sys.argv[1:], standalone_mode=False)
print(json.dumps(record), file=sys.stderr)
"""


def run_child(code, *args, preload=False):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    env.pop("PRELOAD", None)
    if preload:
        env["PRELOAD"] = "1"
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                         timeout=300)
    assert res.returncode == 0, res.stderr.decode()
    return res.stdout, res.stderr.decode()


def test_import_leaves_scipy_out():
    code = "import sys, pfrsim, pfrsim.cli; print('scipy' in sys.modules)"
    assert run_child(code)[0] == b"False\n"


@pytest.mark.parametrize(
    "args",
    [
        ("sweep", "normal:0,1", "normal:5,1"),
        ("sample", "laplace:0,1", "laplace:1,1"),
    ],
)
def test_commands_without_gaussian_tail_masses_leave_scipy_out(args):
    out, loaded = run_child(RUN_CLI, *args)
    assert out.count(b"\n") > 10
    assert loaded == "False\n"


def test_first_load_inside_the_exact_sampler_pool():
    # a Gaussian pair of unequal variances has no squeeze table, so its
    # first tail mass is worked out in a block
    args = ("sample", "normal:0,1", "normal:0.5,1.6", "-n", "40003", "--method", "exact",
            "--seed", "1")
    assert _squeeze_table(DistributionPair(Gaussian(0, 1), Gaussian(0.5, 1.6))) is None
    out, report = run_child(RACE, *args)
    record = json.loads(report.splitlines()[-1])
    assert not record["preloaded"]
    # one import, in a block of the sampler (2 blocks of 2**15 points),
    # which both helpers asked for before it finished
    assert len(record["loads"]) == 1 and record["loads"][0][1]
    assert len(set(record["asked"])) > 1
    preloaded_out, preloaded_report = run_child(RACE, *args, preload=True)
    preloaded = json.loads(preloaded_report.splitlines()[-1])
    assert preloaded["preloaded"] and not preloaded["loads"]
    assert out == preloaded_out


def test_first_load_with_a_squeeze_table_on_the_callers_thread():
    # a squeezed pair builds its table, and loads scipy, on the caller's
    # thread before any block runs; no block asks for it after that
    args = ("sample", "normal:0,1", "normal:1,1", "-n", "40003", "--method", "exact",
            "--seed", "1")
    assert _squeeze_table(DistributionPair(Gaussian(0, 1), Gaussian(1, 1))) is not None
    out, report = run_child(RACE, *args)
    record = json.loads(report.splitlines()[-1])
    assert not record["preloaded"]
    assert record["loads"] == [["MainThread", False]]
    assert record["asked"] == ["MainThread"]
    preloaded_out, preloaded_report = run_child(RACE, *args, preload=True)
    preloaded = json.loads(preloaded_report.splitlines()[-1])
    assert preloaded["preloaded"] and not preloaded["loads"]
    assert out == preloaded_out
