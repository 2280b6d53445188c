"""The benchmark's layer tracer wraps chcslim functions by module and
attribute name (``bench/layertrace.py``, ``TARGETS``); renaming or moving
one of them breaks ``--trace 1`` runs, so the names are checked here."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def test_layertrace_targets_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.TARGETS
    for module_name, attr, layer in layertrace.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)
        assert layer in layertrace.LAYERS, (module_name, attr, layer)
