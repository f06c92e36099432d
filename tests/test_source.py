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
    """"module.function" of every call of a method or function named
    attr under src/uqwb, naming the innermost enclosing def ("<module>"
    if none)."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        def walk(node, where):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    walk(child, child.name)
                    continue
                if (isinstance(child, ast.Call)
                        and attr in (getattr(child.func, "attr", None),
                                     getattr(child.func, "id", None))):
                    sites.append("%s.%s" % (path.stem, where))
                walk(child, where)

        walk(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return sites


def _defined(name):
    """"file:line" of every def of name under src/uqwb."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


def test_one_k_series():
    """The coefficients of K = q^H are read by repmod.derive_K, the one
    builder of K and Kinv, and by the [E,F] right side of
    verify_relations (repmod._ef_coeffs), which takes them as derive_K
    does instead of solving them back off K; _series_coeffs is gone."""
    assert sorted(_call_sites("degree_drop_coeff")) == [
        "repmod._ef_coeffs", "repmod.derive_K"]
    assert not _call_sites("_series_coeffs")
    assert not _defined("_series_coeffs")


def test_one_nilpotent_walk():
    """N = H - w is walked only by repmod._nilpotent_chains, called by
    the module's cache (ModuleRep.nilpotent_chains) and by
    structure._make_module, which fills the cache of the module it
    builds; the block-power walker _h_nilpotent_blocks is gone."""
    assert sorted(_call_sites("_nilpotent_chains")) == [
        "repmod.nilpotent_chains", "structure._make_module"]
    assert not _call_sites("_h_nilpotent_blocks")
    assert not _defined("_h_nilpotent_blocks")


def test_one_verma_map():
    """Every map out of a generalized Verma V(w, deg) is built from the
    image of its top vector by structure._verma_map: Verma recognition,
    the splitting section, the top surjection and the cover's two chains
    (both in projectives._cover_maps, whose inner function is phi).  The
    two-step builders _chain_from_hw and _verma_map_from_chain are gone."""
    assert sorted(_call_sites("_verma_map")) == [
        "projectives.phi", "projectives.phi",
        "structure.is_generalized_verma",
        "structure.standard_top_surjection",
        "structure.verma_splitting_section"]
    for name in ("_chain_from_hw", "_verma_map_from_chain"):
        assert not _defined(name), name
        assert not _call_sites(name), name


def test_one_block_profile_check():
    """The weight-block sizes of two modules are compared in one place,
    structure._block_pairs, the gate of every isomorphism decision: no
    other function builds a {weight: len(...)} profile, and no other
    function reads the weight blocks of two modules but _hom_basis, which
    compares no sizes."""
    profiles, two_modules = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = "%s.%s" % (path.stem, fn.name)
            receivers = set()
            for node in ast.walk(fn):
                if (isinstance(node, ast.DictComp)
                        and isinstance(node.value, ast.Call)
                        and getattr(node.value.func, "id", None) == "len"):
                    profiles.append(where)
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None)
                        == "graded_blocks"):
                    receivers.add(ast.unparse(node.func.value))
            if len(receivers) > 1:
                two_modules.append(where)
    assert profiles == ["structure._block_pairs"] * 2, profiles
    assert sorted(two_modules) == ["structure._block_pairs",
                                   "structure._hom_basis"], two_modules


def test_one_word_walk():
    """A word in E and F is applied to a vector by structure._word alone:
    no `for _ in range(...)` loop in structure.py or projectives.py calls
    _apply."""
    found = []
    for module in ("structure", "projectives"):
        path = SRC / (module + ".py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.For)
                    and isinstance(node.target, ast.Name)
                    and node.target.id == "_"
                    and isinstance(node.iter, ast.Call)
                    and getattr(node.iter.func, "id", None) == "range"
                    and any(isinstance(call, ast.Call)
                            and getattr(call.func, "id", None) == "_apply"
                            for call in ast.walk(node))):
                found.append("%s:%d" % (module, node.lineno))
    assert not found, found


def test_one_n_walk():
    """The powers of N = H - w applied to a vector are the terms of
    structure._n_walk, read by the degree of a vector, the chains of a
    Verma map, the cover's raised chain and its leading-degree dominance;
    _shifted, _graded_dominant_defect and vec_degree are gone."""
    assert [site.split(":")[0] for site in _defined("_n_walk")] == [
        "structure.py"]
    assert sorted(_call_sites("_n_walk")) == [
        "projectives.raised", "projectives.verify_dominant_generation",
        "structure._degree", "structure._verma_map"]
    for name in ("_shifted", "_graded_dominant_defect", "vec_degree"):
        assert not _defined(name), name
        assert not _call_sites(name), name


def test_one_zeta_walk():
    """zeta * v on int coefficients is written once, as
    cyclotomic._times_zeta, and called only where the session walks its
    tables and where _solve_unit builds its columns: Session has no table
    builders of its own."""
    session = importlib.import_module("uqwb.session")
    for name in ("_build_reduction_rows", "_build_zeta_table"):
        assert not hasattr(session.Session, name), name
        assert not _defined(name), name
    assert [site.split(":")[0] for site in _defined("_times_zeta")] == [
        "cyclotomic.py"]
    assert sorted(_call_sites("_times_zeta")) == [
        "cyclotomic._solve_unit", "session.__init__"]


def test_one_scalar_inverse():
    """structure.py and projectives.py invert a scalar only where the
    sparse echelon scales a new row to a unit pivot
    (SubmoduleBasis._insert): every other solve and inverse there goes
    through _kernel or _solve."""
    sites = [site for site in _call_sites("inv")
             if site.split(".")[0] in ("structure", "projectives")]
    assert sites == ["structure._insert"]


def test_iso_test_only_as_the_cover_route_fallback():
    """projectives.py reaches iso_test (and through it the Hom solve)
    only from the two sites that try the generator route _cover_iso
    first: self-duality in certify_projcover_structure and the
    isomorphism of build_via_tensor_summand.  It calls _hom_basis
    nowhere."""
    sites = sorted(site for site in _call_sites("iso_test")
                   if site.startswith("projectives."))
    assert sites == ["projectives.build_via_tensor_summand",
                     "projectives.certify_projcover_structure"]
    assert sorted(_call_sites("_cover_iso")) == sites
    assert not [site for site in _call_sites("_hom_basis")
                if site.startswith("projectives.")]


def test_costandard_reads_the_transpose_dual():
    """Costandard filtrations and self-duality read the transpose dual
    (structure._transpose_dual), with no isomorphism threaded through the
    certificate checks: _costandard and _rows_through are gone,
    verify_filtration_certificate and _verified take no dual, and
    structure.py and projectives.py call build_dual only for the tensor
    summand's dual simple.  projectives.py never calls _standard_chain."""
    structure = importlib.import_module("uqwb.structure")
    for name in ("_costandard", "_rows_through"):
        assert not _defined(name), name
    params = {fn: list(inspect.signature(getattr(structure, fn)).parameters)
              for fn in ("verify_filtration_certificate", "_verified")}
    assert params == {"verify_filtration_certificate": ["cert"],
                      "_verified": ["cert", "what"]}
    assert [site for site in _call_sites("build_dual")
            if site.split(".")[0] in ("structure", "projectives")] == [
        "projectives.build_via_tensor_summand"]
    assert not [site for site in _call_sites("_standard_chain")
                if site.startswith("projectives.")]


def test_one_cover_construction():
    """build_projective_cover glues every cover, twisted or not, from two
    Vermas: no _twist tensors a cover with a one-dimensional module, and
    projectives.py builds a tensor only to split the cover off a
    projective one in build_via_tensor_summand."""
    assert not _defined("_twist")
    assert not [site for site in _call_sites("build_one_dim")
                if site.split(".")[0] in ("structure", "projectives")]
    assert [site for site in _call_sites("build_tensor")
            if site.startswith("projectives.")] == [
        "projectives.build_via_tensor_summand"]


def test_one_elimination():
    """structure.py and projectives.py take nothing from linalg but SMat
    and the sparse row arithmetic (_apply, _axpy), and make no dense copy
    of a matrix: every kernel, rank, solve and inverse there is read off
    the sparse echelon of SubmoduleBasis, and the dense routines of
    linalg are the tests' reference."""
    allowed = {"SMat", "_apply", "_axpy"}
    found = []
    for module in ("structure", "projectives"):
        path = SRC / (module + ".py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "linalg", "uqwb.linalg"):
                found += ["%s:%d imports %s" % (module, node.lineno, a.name)
                          for a in node.names if a.name not in allowed]
            elif isinstance(node, ast.Import):
                found += ["%s:%d imports %s" % (module, node.lineno, a.name)
                          for a in node.names if "linalg" in a.name]
            elif isinstance(node, ast.Attribute) and node.attr == "to_dense":
                found.append("%s:%d .to_dense" % (module, node.lineno))
    assert not found, found


def test_one_sparse_row_arithmetic():
    """The sum of scaled sparse rows is written once: _apply and _axpy
    are defined in linalg.py alone, repmod has no _row of its own, and
    the modules that walk sparse rows use linalg's two helpers."""
    linalg = importlib.import_module("uqwb.linalg")
    users = {"structure": ("_apply", "_axpy"), "repmod": ("_apply", "_axpy"),
             "projectives": ("_axpy",)}
    for module, names in users.items():
        mod = importlib.import_module("uqwb." + module)
        for name in names:
            assert getattr(mod, name) is getattr(linalg, name), (module, name)
    assert not hasattr(importlib.import_module("uqwb.repmod"), "_row")
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("_apply", "_axpy", "_row")
                    and path.name != "linalg.py"):
                found.append("%s:%d def %s"
                             % (path.name, node.lineno, node.name))
    assert not found, found


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
