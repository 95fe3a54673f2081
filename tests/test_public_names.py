# tests/test_public_names.py
"""Every public module-level function and class under src/polargrass/ has a
caller in the package: a reference under src/ outside its own body and
outside __init__.py.  The only names exempt are those the README quick start
imports and those perfbench/ imports or traces, read as
test_perfbench_names.py reads them.  Module-level private functions are
held to the same rule with no exemption.  A name nothing calls is library-only
API; delete it, and move it next to its test if a test uses it as an
oracle.

References are resolved by scope, so a local variable that shares a
function's name (a `tau` inside a function body) is not a call of it.

Public methods and properties of the package's classes are held to the
same rule by name: one counts as used when an attribute of that name is
loaded anywhere under src/ outside its own body.  That can miss an unused
method whose name another class also uses, but never flags a used one.
The methods perfbench/ traces are exempt.
"""
import ast
import re
from pathlib import Path

from test_perfbench_names import PERFBENCH, SCRIPTS, _library_names, _load_spans

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polargrass"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _public_definitions(tree):
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _private_functions(tree):
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("_")
    }


def _bound_here(scope):
    """Names a function, lambda or comprehension binds itself: its
    arguments, assignment and loop targets, imports and nested definitions,
    not counting what its nested scopes bind."""
    names = set()
    if hasattr(scope, "args"):
        a = scope.args
        names |= {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return names


def _global_loads(tree):
    """(name, attribute or None, enclosing definitions) for every Name
    load, and every attribute of a Name, that resolves at module level."""
    out = []

    def walk(node, scopes, parents):
        if isinstance(node, SCOPES):
            scopes = scopes + [_bound_here(node)]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if not any(node.id in s for s in scopes):
                out.append((node.id, None, parents))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if not any(node.value.id in s for s in scopes):
                out.append((node.value.id, node.attr, parents))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parents = parents + [node]
        for child in ast.iter_child_nodes(node):
            walk(child, scopes, parents)

    walk(tree, [], [])
    return out


def unreferenced_names(definitions=_public_definitions):
    """(module, name) of each definition (public ones by default) with no
    reference under src/ outside its own body and __init__.py."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}
    defs = {(mod, name): node for mod, tree in trees.items() for name, node in definitions(tree).items()}
    used = set()
    for mod, tree in trees.items():
        # what each module-level name of this module refers to
        alias = {name: (mod, name) for name in definitions(tree)}
        modules = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        alias[a.asname or a.name] = (node.module, a.name)
                    else:
                        modules[a.asname or a.name] = a.name
        for name, attr, parents in _global_loads(tree):
            target = (modules[name], attr) if attr is not None and name in modules else alias.get(name)
            if target in defs and defs[target] not in parents:
                used.add(target)
    return sorted(set(defs) - used)


def exempt_names():
    """Names the README quick start imports, and names perfbench/ imports
    or traces."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", quick, re.S).group(1)
    names = {a.name for node in ast.walk(ast.parse(block)) if isinstance(node, ast.ImportFrom) for a in node.names}
    for script in SCRIPTS:
        names |= {name for _, name in _library_names(PERFBENCH / script) if name}
    names |= {attr for _, _, attr, _ in _load_spans()._targets()}
    return names


def _attribute_loads(tree):
    """(attribute, enclosing definitions) for every attribute load."""
    out = []

    def walk(node, parents):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, parents))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            parents = parents + [node]
        for child in ast.iter_child_nodes(node):
            walk(child, parents)

    walk(tree, [])
    return out


def unreferenced_members(trees):
    """(module, class, name) of each public method or property of a class
    in trees (module name -> parsed module) whose name no attribute load in
    trees reaches from outside its own body."""
    members = [
        (mod, cls.name, node)
        for mod, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]
    loads = [load for tree in trees.values() for load in _attribute_loads(tree)]
    return sorted(
        (mod, cls, node.name)
        for mod, cls, node in members
        if not any(attr == node.name and node not in parents for attr, parents in loads)
    )


def test_every_public_name_has_a_caller():
    exempt = exempt_names()
    orphans = [f"{mod}.{name}" for mod, name in unreferenced_names() if name not in exempt]
    assert orphans == [], f"public names with no caller under src/: {orphans}"


def test_every_private_function_has_a_caller():
    # a helper a rewrite leaves behind fails here, with no exemption
    orphans = [f"{mod}.{name}" for mod, name in unreferenced_names(_private_functions)]
    assert orphans == [], f"private functions with no caller under src/: {orphans}"


def test_scan_resolves_local_variables_by_scope():
    # a local that shares a module-level function's name is not a call of it
    tree = ast.parse("def tau(x):\n    return x\n\ndef f():\n    tau = 1\n    return tau\n")
    loads = [(name, parents[-1].name) for name, attr, parents in _global_loads(tree) if name == "tau"]
    assert loads == []
    tree = ast.parse("def tau(x):\n    return x\n\ndef f():\n    return tau(1)\n")
    loads = [(name, parents[-1].name) for name, attr, parents in _global_loads(tree) if name == "tau"]
    assert loads == [("tau", "f")]


def test_every_public_method_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    exempt = {(owner.__name__, attr) for _, owner, attr, _ in _load_spans()._targets() if isinstance(owner, type)}
    assert ("LineSet", "members") in exempt
    orphans = [f"{mod}.{cls}.{name}" for mod, cls, name in unreferenced_members(trees) if (cls, name) not in exempt]
    assert orphans == [], f"public methods with no caller under src/: {orphans}"


def test_member_scan_skips_the_members_own_body():
    # a method only its own body loads (a recursion) has no caller; a load
    # in another function, or of a property, is one
    src = (
        "class A:\n"
        "    def walk(self, k):\n"
        "        return self.walk(k - 1)\n\n"
        "    def used(self):\n"
        "        return 1\n\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n\n"
        "    def _private(self):\n"
        "        return 3\n\n"
        "def f(a):\n"
        "    return a.used() + a.size\n"
    )
    assert unreferenced_members({"m": ast.parse(src)}) == [("m", "A", "walk")]
