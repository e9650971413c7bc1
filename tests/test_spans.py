"""The benchmark's tracer still finds every name it wraps.

``benchmarks/spans.py`` patches package functions by module and name
(``egt.training.cosine_explain``, ``egt.model.cosine_scores``, ...).  A
renamed or removed name makes ``Tracer.install`` raise, so this test
fails in the tier-1 suite instead of only in the benchmark's own smoke
test.  The tracer module is loaded from its file without writing
bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("egt_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_and_uninstall_restores(spans):
    tracer = spans.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        assert patches
        for owner, attr, _, original in patches:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()
    for owner, attr, own, original in patches:
        if own:
            assert vars(owner)[attr] is original, (owner, attr)
        else:
            assert attr not in vars(owner) and getattr(owner, attr) is original, (owner, attr)
