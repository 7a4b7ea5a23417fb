"""Every name the benchmark tracer rebinds exists in the package.

The tracer reports a missing name as absent instead of failing, so a
refactor that moves a traced function would otherwise go unnoticed until
the benchmark's own tests run.
"""

import sys
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    """perfbench/tracer.py, run from its source text so that nothing is
    written beside it."""
    module = types.ModuleType("_perfbench_tracer")
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        tracer._resolve(target)  # raises for a missing or non-callable name
