"""Public-API guard: no public name in ``src/`` that nothing needs.

Every public top-level name of a module ``src/equibundle/<name>.py`` (the
package ``__init__`` aside: it holds its docstring and binds nothing), and
every public method of a public class there, must be referenced somewhere
that the product uses: elsewhere in its own module, in another module of the
package, or in the acceptance criteria (``tests/test_acceptance.py``).  A
name only unit tests reach is test-only API: move it into the tests or delete
it.  Checked on the syntax tree, so comments and strings do not count.  A method
counts as referenced only through an attribute (``obj.name``) or an import:
a bare name read, such as a loop variable of the same name, does not keep it.
An attribute of a module imported from outside the package
(``itertools.chain``) does not count as a reference to a method of the same
name.  The package's modules also stay within a line budget.
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(HERE, "..", "src", "equibundle")
ACCEPTANCE = os.path.join(HERE, "test_acceptance.py")
LINE_BUDGET = 3700


def _tree(path: str) -> ast.Module:
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=path)


def _public_definitions(tree: ast.Module) -> set[str]:
    """Public top-level names, and ``Class.method`` for the public methods of
    public classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = set()
    for node in tree.body:
        if isinstance(node, functions + (ast.ClassDef,)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, functions))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names
            if not any(part.startswith("_") for part in name.split("."))}


def _foreign_modules(tree: ast.Module) -> set[str]:
    """Names that an ``import`` statement binds to a module outside the
    package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".", 1)[0]
                if top != "equibundle":
                    out.add(alias.asname or top)
    return out


def _references(tree: ast.Module, methods: bool = False) -> set[str]:
    """Names read, attributes taken and names imported, anywhere in the tree;
    an attribute of a foreign module is not a reference.  With ``methods``,
    bare name reads do not count: a method is reached through an attribute."""
    foreign = _foreign_modules(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            if not methods:
                out.add(node.id)
        elif isinstance(node, ast.Attribute):
            if not (isinstance(node.value, ast.Name) and node.value.id in foreign):
                out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _unreferenced(trees: dict[str, ast.Module], acceptance: ast.Module) -> list[str]:
    """The public names of the modules in `trees` (``__init__`` aside) that
    no module and not `acceptance` references."""
    users = [acceptance, *trees.values()]
    names = set().union(*(_references(tree) for tree in users))
    attributes = set().union(*(_references(tree, methods=True) for tree in users))
    unused = []
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for qualified in sorted(_public_definitions(tree)):
            name = qualified.rsplit(".", 1)[-1]
            if name not in (attributes if "." in qualified else names):
                unused.append(f"{module}.{qualified}")
    return unused


def unreferenced_public_names() -> list[str]:
    trees = {name[:-3]: _tree(os.path.join(PACKAGE, name))
             for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    return _unreferenced(trees, _tree(ACCEPTANCE))


def test_every_public_name_is_needed():
    assert unreferenced_public_names() == []


def test_values_compare_through_one_base():
    # every compared value derives from exact_core._Value, which compares by
    # the public slots; _Terms keeps its own equality because its term dict
    # is the private ``_terms``.  Every field is a slot: no class keeps a
    # ``__dict__`` for fields set after ``__init__``.
    equalities, dict_slots = [], []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        for node in ast.walk(_tree(os.path.join(PACKAGE, name))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__eq__":
                    equalities.append(f"{name[:-3]}.{node.name}")
                if (isinstance(item, ast.Assign)
                        and any(getattr(t, "id", None) == "__slots__" for t in item.targets)
                        and any(getattr(c, "value", None) == "__dict__"
                                for c in ast.walk(item.value))):
                    dict_slots.append(f"{name[:-3]}.{node.name}")
    assert sorted(equalities) == ["exact_core._Terms", "exact_core._Value"]
    assert dict_slots == []


def test_src_within_line_budget():
    # counted as `cat src/equibundle/*.py | wc -l` counts: newlines over every
    # module of the package
    total = 0
    for name in os.listdir(PACKAGE):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                total += handle.read().count(b"\n")
    assert total <= LINE_BUDGET, total


def test_package_init_binds_no_public_name():
    # every caller imports a submodule; a re-export would be a second way in,
    # and the guard above sees no re-export, since an import defines nothing
    tree = _tree(os.path.join(PACKAGE, "__init__.py"))
    assert ast.get_docstring(tree) and len(tree.body) == 1


def test_guard_sees_definitions_and_references():
    tree = ast.parse("X = 1\nY: int = 2\ndef f():\n    return X\nclass _C: pass\n")
    assert _public_definitions(tree) == {"X", "Y", "f"}
    assert "X" in _references(tree) and "Y" not in _references(tree)


def test_guard_sees_methods_of_public_classes():
    tree = ast.parse(
        "class C:\n"
        "    def m(self):\n        return self._h()\n"
        "    def _h(self): pass\n"
        "    def __eq__(self, other): pass\n"
        "    @property\n    def p(self): pass\n"
        "class _D:\n    def m2(self): pass\n"
    )
    assert _public_definitions(tree) == {"C", "C.m", "C.p"}
    references = _references(tree)
    assert "_h" in references and "m" not in references and "p" not in references


def test_guard_skips_attributes_of_foreign_modules():
    tree = ast.parse("import itertools\nitertools.chain(x)\n")
    assert "chain" not in _references(tree)
    tree = ast.parse("import itertools\nobj.chain()\n")
    assert "chain" in _references(tree)
    tree = ast.parse("import equibundle.topospace as topo\ntopo.pi0(x)\n")
    assert "pi0" in _references(tree)


def test_guard_sees_methods_only_through_attributes():
    module = ast.parse(
        "class C:\n    def var(self): pass\n"
        "def _f(pairs):\n    return C, [var for var, _ in pairs]\n"
    )
    assert _unreferenced({"m": module}, ast.parse("var")) == ["m.C.var"]
    assert _unreferenced({"m": module}, ast.parse("obj.var()")) == []
    # a top-level name is still referenced by a bare read
    assert _unreferenced({"m": ast.parse("def g(): pass\n")}, ast.parse("g()")) == []
