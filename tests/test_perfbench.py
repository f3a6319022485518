"""perfbench's per-layer readers still bind to the package.

perfbench's ``--trace 1`` measures layer 1 through the arguments of
``cdfnet.layer.run_layer`` (the maps it is given and its bank's filters and
layer index). A rename there would not fail perfbench; it would read 0 and
list an info error. This test runs the traced forward pass on a shipped
model so such a drift fails here first.
"""

import importlib.util
from pathlib import Path

from cdfnet import pipeline

from helpers import stripe_dataset

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "tests" / "data" / "tiny_on_off.model"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer1_readers_bind_on_extract_descriptors():
    spans = _spans_module()
    model = pipeline.load_model(MODEL)
    images = stripe_dataset(3, side=model.input_shape[0], seed=5)
    tracer = spans.Tracer()
    tracer.phase = "body"
    tracer.install()
    try:
        pipeline.extract_descriptors(model, images)
    finally:
        tracer.uninstall()
    assert tracer.info_errors == {}
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["layer.l1.calls"] == 3
    assert metrics["layer.l1.calls_per_image"] == 1.0
