"""Rules the package source keeps, checked on its syntax tree.

One path serves every width: bit vectors wider than 64 bits are rows of
64-bit limbs (``bitmath._words``), never numpy arrays of Python ints. An
array of ``object`` dtype would bring back a second, slower path for wide
codes, so no module of the package may create one.

The modules form layers, each importing only those before it: bitmath ->
codes -> pauli -> transform -> fock_oracle -> cli. A code knows nothing of
the operators built from it.

Only ``PauliString``'s own methods read the per-string key ``_sort_key``
(or ``sort_key``): an operator orders its strings on its columns
(``pauli._order``), so no reader of an operator falls back to one Python
key per string.

A ``FermionHamiltonian`` or a ``QubitOperator`` is created without
``__init__`` (``object.__new__``) only by that class's own methods, which
hold its fields read-only, so no module builds one that could change
behind its caches.

A ``FermionTerm`` is built by name only in ``FermionHamiltonian.term``
(a term read from the columns) and in ``_merged`` (one per merged term of a
derived Hamiltonian); ``FermionTerm.of`` builds through ``cls``. Normal
ordering and dressing collect plain ``(coeff, ops)`` pairs, so they build
no term that the merge throws away.
"""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "fermicode"


def _names_object(expr: ast.AST) -> bool:
    """Whether a dtype expression can be numpy's object dtype: it mentions
    ``object``, ``np.object_`` or the strings ``"O"``/``"object"`` anywhere,
    so also in a conditional such as ``np.int64 if n < 64 else object``."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and node.id == "object":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "object_":
            return True
        if isinstance(node, ast.Constant) and node.value in ("O", "object", "|O", "=O"):
            return True
    return False


def _object_arrays(source: str) -> list[int]:
    """Lines of calls that pass an object dtype: as a ``dtype=`` keyword, or
    positionally to a ``np.``/``numpy.`` function or to ``.astype``/``.view``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        dtypes = [k.value for k in node.keywords if k.arg == "dtype"]
        func = node.func
        if isinstance(func, ast.Attribute) and (
            func.attr in ("astype", "view")
            or isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        ):
            dtypes += node.args
        if any(_names_object(d) for d in dtypes):
            lines.append(node.lineno)
    return lines


def test_the_detector_finds_object_arrays():
    source = "\n".join([
        "grid = np.zeros(1, dtype=np.int64 if n < 64 else object)",
        "occupation = np.full(8, q, dtype=object)",
        "a = np.array(values, object)",
        "b = rows.astype('O')",
        "c = np.empty(3, dtype=np.object_)",
        "d = np.zeros(3, dtype=np.uint64)",
        "e = isinstance(x, object)",
        "object.__setattr__(op, 'n', n)",
    ])
    assert _object_arrays(source) == [1, 2, 3, 4, 5]


def test_no_module_creates_an_object_array():
    paths = sorted(SOURCES.glob("*.py"))
    found = [f"{path.name}:{line}" for path in paths for line in _object_arrays(path.read_text())]
    assert paths and found == []


# The layers in order; ``errors`` serves them all.
LAYERS = ("bitmath", "codes", "pauli", "transform", "fock_oracle", "cli")


def _package_imports(source: str) -> set[str]:
    """Package modules a source imports: ``from .m import ...``,
    ``from . import m``, ``from fermicode.m import ...`` and ``import
    fermicode.m``, at any depth of its syntax tree."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("fermicode"):
                continue
            parts = module.split(".")[1:] if node.level == 0 else module.split(".")
            found |= {parts[0]} if parts and parts[0] else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("fermicode.")}
    return found


def test_the_import_detector_finds_package_modules():
    source = "\n".join([
        "from .pauli import flip_supports",
        "from . import transform",
        "from fermicode.cli import main",
        "import fermicode.fock_oracle",
        "from .bitmath import BoolPoly",
        "import numpy as np",
        "from collections import namedtuple",
        "def f():\n    from .pauli import expand",
    ])
    assert _package_imports(source) == {"pauli", "transform", "cli", "fock_oracle", "bitmath"}


def test_no_module_imports_a_later_layer():
    found = {name: _package_imports((SOURCES / f"{name}.py").read_text()) & set(LAYERS[i:])
             for i, name in enumerate(LAYERS)}
    assert found == {name: set() for name in LAYERS}


def _sort_key_uses(source: str) -> list[int]:
    """Lines that name ``_sort_key`` or an attribute ``_sort_key``/``sort_key``
    outside the methods of a class ``PauliString``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "PauliString"
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in inside and (
            isinstance(node, ast.Name) and node.id == "_sort_key"
            or isinstance(node, ast.Attribute) and node.attr in ("_sort_key", "sort_key")
        )
    )


def test_the_sort_key_detector_finds_uses_outside_pauli_string_methods():
    source = "\n".join([
        "class PauliString:",
        "    def sort_key(self):",
        "        return _sort_key(self.x, self.z)",
        "    def text(self):",
        "        return spell(self.sort_key())",
        "def serialize(terms):",
        "    return sorted(terms, key=PauliString.sort_key)",
        "key = _sort_key(1, 2)",
        "f = pauli._sort_key",
        "class Other:",
        "    def g(self, s): return min(s, key=lambda t: t.sort_key())",
        "def _sort_key(x, z): return (x, z)",
    ])
    assert _sort_key_uses(source) == [7, 8, 9, 11]


def test_only_pauli_string_methods_read_the_per_string_key():
    paths = sorted(SOURCES.glob("*.py"))
    found = [f"{path.name}:{line}" for path in paths for line in _sort_key_uses(path.read_text())]
    assert paths and found == []


FROZEN = ("FermionHamiltonian", "QubitOperator")


def _bare_constructions(source: str) -> list[int]:
    """Lines of ``__new__`` calls (``object.__new__(C)``, ``C.__new__(C)``)
    whose first argument names a class in ``FROZEN``, outside that class's
    own methods; there ``object.__new__(cls)`` builds its own instances."""
    tree = ast.parse(source)
    owner = {
        id(node): cls.name
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name in FROZEN
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr == "__new__" and node.args
        ):
            arg = node.args[0]
            name = arg.id if isinstance(arg, ast.Name) else getattr(arg, "attr", None)
            if name in FROZEN and owner.get(id(node)) != name:
                lines.append(node.lineno)
    return sorted(lines)


def test_the_construction_detector_finds_bare_instances_outside_their_class():
    source = "\n".join([
        "class FermionHamiltonian:",
        "    @classmethod",
        "    def _of(cls, n):",
        "        h = object.__new__(cls)",
        "        return object.__new__(FermionHamiltonian)",
        "class QubitOperator:",
        "    def copy(self):",
        "        return object.__new__(FermionHamiltonian)",
        "def parse(text):",
        "    h = object.__new__(FermionHamiltonian)",
        "    op = QubitOperator.__new__(QubitOperator)",
        "    s = tuple.__new__(PauliString, (1, 0, 0))",
        "    return object.__new__(transform.QubitOperator)",
        "class Other:",
        "    def make(cls): return object.__new__(cls)",
    ])
    assert _bare_constructions(source) == [8, 10, 11, 13]


def test_only_their_own_methods_build_hamiltonians_and_operators_bare():
    paths = sorted(SOURCES.glob("*.py"))
    found = [f"{path.name}:{n}" for path in paths for n in _bare_constructions(path.read_text())]
    assert paths and found == []


TERM_BUILDERS = ("FermionHamiltonian.term", "_merged")


def _term_constructions(source: str) -> list[int]:
    """Lines of calls of the name ``FermionTerm`` outside the functions in
    ``TERM_BUILDERS``, named ``Class.method`` or as module-level functions."""
    tree = ast.parse(source)
    named = [(top.name, top) for top in tree.body if isinstance(top, ast.FunctionDef)] + [
        (f"{cls.name}.{fn.name}", fn)
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef)
    ]
    inside = {id(node) for name, fn in named if name in TERM_BUILDERS for node in ast.walk(fn)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and isinstance(node.func, ast.Name) and node.func.id == "FermionTerm"
    )


def test_the_term_detector_finds_constructions_outside_the_builders():
    source = "\n".join([
        "class FermionTerm:",
        "    @classmethod",
        "    def of(cls, c, *ops): return cls(c, ops)",
        "class FermionHamiltonian:",
        "    def term(self, i): return FermionTerm(self.coeff[i], ())",
        "    def terms(self): return [FermionTerm(c, ()) for c in self.coeff]",
        "def _merged(n, pairs):",
        "    return [FermionTerm(c, o) for c, o in pairs]",
        "def normal_order_blocks(h):",
        "    out = [FermionTerm(1.0, ())]",
        "    return FermionTerm.of(1.0), isinstance(out[0], FermionTerm)",
        "def term(i): return FermionTerm(1.0, ())",
        "t = FermionTerm(2.0, ())",
    ])
    assert _term_constructions(source) == [6, 10, 12, 13]


def test_only_the_column_reader_and_the_merge_build_fermion_terms():
    paths = sorted(SOURCES.glob("*.py"))
    found = [f"{path.name}:{n}" for path in paths for n in _term_constructions(path.read_text())]
    assert paths and found == []
