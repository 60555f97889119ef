"""The benchmark's span recorder patches names that must exist.

``perfbench/spans.py`` replaces each ``(owner, attr)`` of its ``PATCHES``
table with a timing wrapper; a refactor that drops or moves one of those
names would otherwise surface only in the benchmark's slow traced run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_patched_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.PATCHES
        if attr not in owner.__dict__
    ]
    assert spans.PATCHES
    assert missing == []
