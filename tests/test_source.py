"""Source-level gates on the library: exact arithmetic only, the standard
library as its only dependency, and every name the benchmark traces still
in place."""

import ast
import importlib
import inspect
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uqwb"


def test_no_float_in_library():
    """No float literal and no float(...) call anywhere under src/uqwb."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))):
                found.append("%s:%d literal %r"
                             % (path.name, node.lineno, node.value))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                found.append("%s:%d float() call" % (path.name, node.lineno))
    assert list(SRC.rglob("*.py")), "library sources not found"
    assert not found, found


def test_imports_only_standard_library():
    """Every import under src/uqwb names a standard-library module, uqwb
    itself, or a module relative to it."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "uqwb" and top not in sys.stdlib_module_names:
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not found, found


# refuses every module outside the standard library and uqwb that is not
# loaded yet (mpmath, which is installed, must be refused), then imports
# uqwb and its CLI and builds two sessions and a projective cover
STDLIB_ONLY = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        top = name.split(".")[0]
        if top != "uqwb" and top not in sys.stdlib_module_names:
            raise ImportError("refused: " + name)

sys.meta_path.insert(0, Refuse())
try:
    import mpmath
except ImportError:
    pass
else:
    sys.exit("mpmath was not refused")
import uqwb, uqwb.cli
from uqwb import Session
from uqwb.projectives import build_projective_cover

Session(5)
Session(8)
print(build_projective_cover(Session(5), 1, 1).dim)
"""


def test_runs_on_standard_library_alone():
    """In a fresh interpreter that refuses to import anything outside the
    standard library, uqwb and its CLI import, sessions build and P(1,1)
    at ell 5 builds."""
    done = subprocess.run([sys.executable, "-c", STDLIB_ONLY],
                          cwd=SRC.parent, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["20"], done.stdout


LAYERS = SRC.parent.parent / "perfbench" / "layers.py"
# the module whose functions each name list of layers.py is traced under
LAYER_LISTS = {"REPMOD_BUILDERS": "repmod", "FILTRATIONS": "structure"}


def _traced_names():
    """(MODULES, span names) read from perfbench/layers.py: METHODS, the
    name lists, the HOOKS keys and the names metrics() reads through
    calls(...) and self_s(...)."""
    tree = ast.parse(LAYERS.read_text(), filename=str(LAYERS))
    consts = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    names = ["%s.%s.%s" % m for m in ast.literal_eval(consts["METHODS"])]
    for key, module in LAYER_LISTS.items():
        names += ["%s.%s" % (module, n)
                  for n in ast.literal_eval(consts[key])]
    names += [ast.literal_eval(k) for k in consts["HOOKS"].keys]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("calls", "self_s")):
            names += [a.value for a in node.args
                      if isinstance(a, ast.Constant)
                      and isinstance(a.value, str)]
    return ast.literal_eval(consts["MODULES"]), names


def test_traced_names_exist():
    """Every library name the benchmark's per-layer metrics trace still
    exists where the tracer looks for it: a public function defined in
    its module, or a method of a class there.  A rename or a move would
    otherwise leave its metric silently at zero."""
    modules, names = _traced_names()
    assert len(names) > 30, names
    missing = []
    for name in names:
        module, *path = name.split(".")
        assert module in modules, name
        obj = importlib.import_module("uqwb." + module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if len(path) == 1:
            ok = (inspect.isfunction(obj)
                  and obj.__module__ == "uqwb." + module)
        else:
            ok = callable(obj)
        if not ok:
            missing.append(name)
    assert not missing, missing


def _call_sites(attr):
    """"module.function" of every call of a method named attr under
    src/uqwb, naming the innermost enclosing def ("<module>" if none)."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    walk(child, child.name)
                    continue
                if (isinstance(child, ast.Call)
                        and isinstance(child.func, ast.Attribute)
                        and child.func.attr == attr):
                    sites.append("%s.%s" % (path.stem, where))
                walk(child, where)

        walk(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return sites


def test_one_k_series():
    """The coefficients of K = q^H are read only by repmod.derive_K, so
    the library has one K series; every other K comes from it."""
    assert _call_sites("degree_drop_coeff") == ["repmod.derive_K"]


def _function(module, name):
    path = SRC / (module + ".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_verify_relations_is_row_wise():
    """repmod.verify_relations checks each relation one row at a time: it
    forms no matrix product (@, matpow), no scaled copy and no matrix
    difference.  The one subtraction it may hold is between two calls
    (the scalar q - q^-1)."""
    found = []
    for node in ast.walk(_function("repmod", "verify_relations")):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            found.append("line %d: @" % node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
              and not (isinstance(node.left, ast.Call)
                       and isinstance(node.right, ast.Call))):
            found.append("line %d: subtraction" % node.lineno)
        elif (isinstance(node, ast.Attribute)
              and node.attr in ("matpow", "scale", "__sub__",
                                "__matmul__")):
            found.append("line %d: .%s" % (node.lineno, node.attr))
    assert not found, found


# the fields of the two arithmetic types, set only by their constructors
VALUE_FIELDS = {"Cyc": ("n", "d", "s"), "Scalar": ("num", "den")}


def test_arithmetic_values_are_immutable():
    """No assignment, augmented assignment, del or setattr of a Cyc field
    (n, d, s) or a Scalar field (num, den) anywhere under src/uqwb,
    except in that class's own __init__.  The field operations return an
    operand object itself when the other operand is 0 or 1, and the
    session caches built modules, so a value changed in place would
    change every result that shares it.

    The check goes by attribute name alone, since the AST does not know
    an object's type: an assignment to .n, .d, .s, .num or .den on an
    object of any other class is reported too.  If that fires on an
    unrelated class, rename its field rather than widen the allowed
    set."""
    fields = {f for names in VALUE_FIELDS.values() for f in names}
    allowed = {(cls, "__init__", f) for cls, names in VALUE_FIELDS.items()
               for f in names}
    seen, found = set(), []
    for path in sorted(SRC.rglob("*.py")):
        def walk(node, cls, fn):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    walk(child, child.name, None)
                    continue
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    walk(child, cls, child.name)
                    continue
                targets = []
                if isinstance(child, (ast.Assign, ast.Delete)):
                    targets = child.targets
                elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                    targets = [child.target]
                names = [t.attr for target in targets
                         for t in ast.walk(target)
                         if isinstance(t, ast.Attribute)]
                if isinstance(child, ast.Call):
                    func = child.func
                    called = getattr(func, "id", getattr(func, "attr", ""))
                    if called in ("setattr", "__setattr__", "delattr"):
                        names += [a.value for a in child.args
                                  if isinstance(a, ast.Constant)]
                for name in names:
                    if (cls, fn, name) in allowed:
                        seen.add((cls, fn, name))
                    elif name in fields:
                        found.append("%s:%d %s in %s.%s"
                                     % (path.name, child.lineno, name,
                                        cls, fn))
                walk(child, cls, fn)

        walk(ast.parse(path.read_text(), filename=str(path)), None, None)
    assert seen == allowed, allowed - seen
    assert not found, ("assignments to a Cyc or Scalar field name "
                       "(matched by name, whatever the object)", found)


CATALOGUE = SRC.parent.parent / "mutants" / "catalogue.json"


def test_mutant_snippets_occur_once():
    """Every mutant of mutants/catalogue.json still applies: its snippet
    occurs exactly once under src/uqwb, in the file it names, the mutated
    file parses, and its kill selection names test files and functions
    that exist.  A refactor that moves a gate must move its mutants."""
    import json

    mutants = json.loads(CATALOGUE.read_text())
    assert len({m["id"] for m in mutants}) == len(mutants) > 10
    root = SRC.parent.parent
    sources = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    for m in mutants:
        assert set(m) == {"id", "file", "snippet", "replacement", "gate",
                          "kill"}, m["id"]
        path = root / m["file"]
        assert path in sources, m["id"]
        assert m["snippet"] != m["replacement"], m["id"]
        assert sum(text.count(m["snippet"])
                   for text in sources.values()) == 1, m["id"]
        assert sources[path].count(m["snippet"]) == 1, m["id"]
        ast.parse(sources[path].replace(m["snippet"], m["replacement"]))
        targets = [a for a in m["kill"] if a.startswith("tests/")]
        assert targets, m["id"]
        for target in targets:
            file, _, name = target.partition("::")
            test_file = root / file
            assert test_file.is_file(), (m["id"], target)
            if name:
                tree = ast.parse(test_file.read_text())
                assert any(isinstance(node, ast.FunctionDef)
                           and node.name == name.split("[")[0]
                           for node in tree.body), (m["id"], target)
