"""The bench span recorder's layer names resolve in the package, so removing
a traced function fails here rather than in a traced bench run."""

import importlib
from pathlib import Path

import superfock  # noqa: F401  (loads every module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_layers_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    missing = []
    for layer, attrs in tracer.LAYERS.items():
        module = importlib.import_module(f"superfock.{layer}")
        for attr in attrs:
            # resolved as SpanRecorder.install resolves them
            cls_name, _, method = attr.partition(".")
            target = getattr(module, cls_name, None)
            if method or isinstance(target, type):
                ok = isinstance(target, type) and (method or "__init__") in vars(target)
            else:
                ok = callable(target)
            if not ok:
                missing.append(f"{layer}.{attr}")
    assert missing == []
