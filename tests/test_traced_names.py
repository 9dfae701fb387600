"""Every library function the benchmark's traced run wraps still exists.

`perfbench/spans.py` rebinds entry points by name and skips a name it cannot
find, so a rename would silently zero that layer's metrics.  This reads its
tables and resolves each name against the library.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# names the tables still carry for functions the library has since dropped
GONE = {
    ("treecap.tree", "_tree_from_leaves"),
    ("treecap.capacity", "_cap_float_memo"),
    ("treecap.capacity", "_cap_pair_memo"),
}


def _spans():
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _, _ in SPANS_MODULE.FUNCTIONS],
)
def test_function_resolves(module, attr):
    found = hasattr(importlib.import_module(module), attr)
    assert found != ((module, attr) in GONE)


@pytest.mark.parametrize(
    "module, cls, attr",
    [(module, cls, attr) for module, cls, attr, _ in SPANS_MODULE.METHODS],
)
def test_method_resolves(module, cls, attr):
    # the tracer rebinds the method where the class itself defines it
    assert attr in vars(getattr(importlib.import_module(module), cls))
