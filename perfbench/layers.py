"""Per-layer metrics of the traced run, one group per uqwb module.

`install` wraps the public functions of the nine library modules, plus
the class methods named in METHODS (the hot arithmetic and matrix entry
points; other methods are not wrapped, so their time is their caller's
self time).  `metrics` turns the tracer's totals into the
`<module>.<metric>` values that BENCHMARK.json lists as per_layer.
"""

from __future__ import annotations

import importlib
import json

from spans import Tracer

MODULES = ("algebra", "cli", "cyclotomic", "linalg", "projectives",
           "repmod", "scalars", "session", "structure")

METHODS = (
    ("cyclotomic", "Cyc", "__mul__"),
    ("cyclotomic", "Cyc", "inv"),
    ("scalars", "Scalar", "__mul__"),
    ("scalars", "Scalar", "__add__"),
    ("scalars", "Scalar", "_make"),
    ("session", "Session", "__init__"),
    ("session", "Session", "parse_scalar"),
    ("session", "Session", "format_scalar"),
    ("linalg", "SMat", "__matmul__"),
)

REPMOD_BUILDERS = ("build_one_dim", "build_simple", "build_generalized_verma",
                   "build_dual", "build_tensor", "direct_sum")
FILTRATIONS = ("extract_standard_filtration", "extract_costandard_filtration",
               "verify_filtration_certificate", "annihilator_basis")


def _binop_hook(tracer, args, kwargs):
    tracer.count("scalar_binops")
    if args[0].is_constant() and args[1].is_constant():
        tracer.count("scalar_binops_tau_free")


def _make_hook(tracer, args, kwargs):
    num, den = args
    if (any(not c.is_zero() for c in num[1:])
            or any(not c.is_zero() for c in den[1:])):
        tracer.count("scalar_make_poly")


def _rref_hook(tracer, args, kwargs):
    rows = args[0]
    tracer.count("rref_cells", len(rows) * (len(rows[0]) if rows else 0))


HOOKS = {
    "scalars.Scalar.__mul__": _binop_hook,
    "scalars.Scalar.__add__": _binop_hook,
    "scalars.Scalar._make": _make_hook,
    "linalg.rref_augmented": _rref_hook,
}


def install():
    mods = {m: importlib.import_module("uqwb." + m) for m in MODULES}
    tracer = Tracer()
    tracer.install([mods[m] for m in MODULES],
                   [(mods[m], cls, attr) for m, cls, attr in METHODS],
                   HOOKS, keep={"repmod.dump_module"})
    return tracer


def metrics(tracer, overhead_s):
    """name -> (value, unit) of every per-layer metric."""
    def calls(name):
        return tracer.totals(name)[0]

    def self_s(*names):
        return sum(tracer.totals(n)[1] for n in names)

    binops = tracer.counters.get("scalar_binops", 0)
    dump_bytes = sum(len(json.dumps(d, indent=1, sort_keys=True)) + 1
                     for d in tracer.results.get("repmod.dump_module", []))
    out = {
        "cyclotomic.mul_calls": calls("cyclotomic.Cyc.__mul__"),
        "cyclotomic.mul_s": self_s("cyclotomic.Cyc.__mul__"),
        "cyclotomic.inv_calls": calls("cyclotomic.Cyc.inv"),
        "cyclotomic.inv_s": self_s("cyclotomic.Cyc.inv"),
        "scalars.mul_calls": calls("scalars.Scalar.__mul__"),
        "scalars.add_calls": calls("scalars.Scalar.__add__"),
        "scalars.mul_s": self_s("scalars.Scalar.__mul__"),
        "scalars.make_calls": calls("scalars.Scalar._make"),
        "scalars.make_s": self_s("scalars.Scalar._make"),
        "scalars.poly_make_calls": tracer.counters.get("scalar_make_poly", 0),
        "scalars.tau_free_share":
            tracer.counters.get("scalar_binops_tau_free", 0) / binops
            if binops else 0.0,
        "scalars.binop_calls": binops,
        "session.init_s": self_s("session.Session.__init__"),
        "session.parse_calls": calls("session.Session.parse_scalar"),
        "session.parse_s": self_s("session.Session.parse_scalar"),
        "session.format_s": self_s("session.Session.format_scalar"),
        "linalg.matmul_calls": calls("linalg.SMat.__matmul__"),
        "linalg.matmul_s": self_s("linalg.SMat.__matmul__"),
        "linalg.rref_calls": calls("linalg.rref_augmented"),
        "linalg.rref_s": self_s("linalg.rref_augmented"),
        "linalg.rref_cells": tracer.counters.get("rref_cells", 0),
        "algebra.pbw_calls": calls("algebra.pbw_normal_form"),
        "algebra.pbw_s": self_s("algebra.pbw_normal_form"),
        "repmod.build_s": self_s(*("repmod." + n for n in REPMOD_BUILDERS)),
        "repmod.derive_K_s": self_s("repmod.derive_K"),
        "repmod.verify_relations_calls": calls("repmod.verify_relations"),
        "repmod.verify_relations_s": self_s("repmod.verify_relations"),
        "repmod.dump_s": self_s("repmod.dump_module"),
        "repmod.load_s": self_s("repmod.load_module"),
        "repmod.dump_bytes": dump_bytes,
        "structure.iso_test_calls": calls("structure.iso_test"),
        "structure.iso_test_s": self_s("structure.iso_test"),
        "structure.filtration_s": self_s(*("structure." + n
                                           for n in FILTRATIONS)),
        "structure.socle_s": self_s("structure.socle_counts"),
        "structure.jordan_holder_s": self_s("structure.jordan_holder"),
        "structure.submodule_generated_s":
            self_s("structure.submodule_generated"),
        "projectives.build_cover_s":
            self_s("projectives.build_projective_cover"),
        "projectives.generation_s":
            self_s("projectives.verify_dominant_generation"),
        "projectives.certify_s":
            self_s("projectives.certify_projcover_structure"),
        "projectives.tensor_summand_s":
            self_s("projectives.build_via_tensor_summand"),
        "cli.verb_calls": sum(c for n, c in zip(tracer.names, tracer.calls)
                              if n.startswith("cli.cmd_")),
    }
    for m in MODULES:
        out[m + ".self_s"] = tracer.module_self_s(m)
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tracer.span_name)
    return {k: (v, _unit(k)) for k, v in out.items()}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"

