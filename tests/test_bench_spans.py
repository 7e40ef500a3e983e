"""The benchmark's per-layer trace wraps ``ordrank`` functions by name, so a
rename in the package must not leave a name in its list that no longer
resolves."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(owner, attr) for _, owner, attr in spans.WRAPPED]


@pytest.mark.parametrize("owner,attr", wrapped_names())
def test_wrapped_name_resolves(owner, attr):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    if class_name:
        target = getattr(target, class_name)
    assert callable(getattr(target, attr))
