"""Every layer the benchmark traces must exist in the package.

``bench/worker.py`` reports a layer whose attribute is missing as ``null``,
which leaves a traced run without a number for it; so each entry of
``bench/tracing.LAYERS`` has to name a callable, even where no command calls
it on its hot path any more.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name, attribute", [layer[:2] for layer in load_layers()])
def test_traced_layer_is_callable(module_name, attribute):
    owner = importlib.import_module(f"spincavity.{module_name}")
    for part in attribute.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
