"""The benchmark's traced run wraps public names; each must still exist."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_names_resolve():
    # executed from its source text: nothing is written next to it
    tracing: dict = {}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing)
    assert set(tracing["TRACED"]) <= set(tracing["LAYERS"])
    for layer, names in tracing["TRACED"].items():
        module = importlib.import_module(f"fermiconv.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"fermiconv.{layer}.{name}"
