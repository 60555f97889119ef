"""The benchmark's span recorder patches names that must exist.

``perfbench/spans.py`` replaces each ``(owner, attr)`` of its ``PATCHES``
table with a timing wrapper; a refactor that drops or moves one of those
names would otherwise surface only in the benchmark's slow traced run.
Imports that only the wrappers use carry ``# noqa: F401``; each must still
be wrapped, so that dropping its row flags the import as stale.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SOURCES = ROOT / "src" / "fermicode"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCHES


def test_every_patched_name_exists():
    patches = _patches()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in patches
        if attr not in owner.__dict__
    ]
    assert patches
    assert missing == []


def test_every_unused_import_is_patched():
    patched = {(getattr(owner, "__name__", None), attr) for owner, attr, _ in _patches()}
    unused = []
    for path in sorted(SOURCES.glob("*.py")):
        module = "fermicode" if path.stem == "__init__" else f"fermicode.{path.stem}"
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]
            ):
                unused += [(module, a.asname or a.name) for a in node.names]
    assert unused
    assert [u for u in unused if u not in patched] == []
