"""The benchmark's tracer wraps disto entry points by name: every name it
lists must exist, or ``bench/run.py --trace 1`` stops at ``install()``."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_entry_point_exists():
    missing = []
    for layer, per_module in _layers().items():
        for modname, names in per_module.items():
            mod = importlib.import_module(f"disto.{modname}")
            for name in names:
                owner = mod
                for part in name.split("."):  # Class.method
                    owner = getattr(owner, part, None)
                if not callable(owner):
                    missing.append(f"{layer}: disto.{modname}.{name}")
    assert missing == []
