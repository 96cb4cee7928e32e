"""The benchmark's traced run wraps library functions by name.

bench/tracing.py lists them in LAYERS as "module:attribute" or
"module:Class.method"; a name that no longer resolves breaks the traced
run.  This checks every one of them from the tier-1 suite, without changing
anything under bench/.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    # no bytecode cache is written next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = tracing.all_targets()
    assert "jetzeta.jets.count:count_points" in targets
    missing = []
    for target in targets:
        try:
            tracing._resolve(target)
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{target}: {exc!r}")
    assert missing == []
