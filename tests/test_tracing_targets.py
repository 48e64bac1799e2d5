"""The benchmark tracer patches package functions by (module, attribute)
name; a rename, or a call no longer made through that name, must fail here,
not silently drop a per-layer figure."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # dataclasses look their module up there
    spec.loader.exec_module(tracing)
    return tracing


def _targets():
    return [(module, attr) for module, attr, *_ in _tracing().TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_gen_records_every_generation_layer(tmp_path):
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli = importlib.import_module("nisaclab.cli")
        assert cli.main([
            "gen", "--n-train", "3", "--n-test", "2", "--L", "8", "--Lb", "2",
            "--out-train", str(tmp_path / "a.nisd"), "--out-test", str(tmp_path / "b.nisd"),
        ]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    recorded = {span.name for span in tracer.spans}
    for name in [name for _, name in tracing._GEN_LAYERS] + ["dataset.example_rng"]:
        assert name in recorded, f"no {name} span in a traced gen run"


def test_train_records_its_steps_under_train(tmp_path):
    tracing = _tracing()
    cli = importlib.import_module("nisaclab.cli")
    assert cli.main([
        "gen", "--n-train", "6", "--n-test", "2", "--L", "8", "--Lb", "1",
        "--out-train", str(tmp_path / "a.nisd"), "--out-test", str(tmp_path / "b.nisd"),
    ]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main([
            "train", "--data", str(tmp_path / "a.nisd"), "--out", str(tmp_path / "m.nism"),
            "--hidden", "3", "--epochs", "1", "--batch", "4",
        ]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    spans = tracer.spans
    train = {i for i, span in enumerate(spans) if span.name == "training.train"}
    under_train = {span.name for span in spans if span.parent in train}
    assert {"snn.forward_batch", "training.sgd_step"} <= under_train
