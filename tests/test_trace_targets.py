"""Every name the benchmark's tracer wraps resolves to a callable.

``perfbench/tracing.py`` looks each traced function up by name with
``getattr`` when a traced run starts, so a renamed or deleted function
fails that run at once.  This loads the tracer from its file, since
``perfbench`` is not a package, and resolves each name without tracing
anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracer()


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, name, _ in TRACING.SPAN_TARGETS] + list(TRACING.TIMED_COUNT_TARGETS),
)
def test_traced_name_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name))


def test_log_ratio_is_callable():
    pair_cls = importlib.import_module("pfrsim.distributions").DistributionPair
    assert callable(pair_cls.log_ratio)
