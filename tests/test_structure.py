"""Typicality, submodules, isomorphism testing, filtrations,
composition series, splitting sections, and the BGG table."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from conftest import tau_conjugated

from uqwb import (
    DiagnosticError,
    FiltrationCertificate,
    ModeUnsupportedError,
    ModuleInvalidError,
    RejectedInputError,
    Session,
    atypical_decompose,
    bgg_table,
    build_dual,
    build_generalized_verma,
    build_one_dim,
    build_simple,
    build_tensor,
    extract_costandard_filtration,
    extract_standard_filtration,
    highest_weight_vectors,
    is_generalized_verma,
    iso_test,
    jordan_holder,
    quotient_module,
    simple_label,
    socle_counts,
    standard_top_surjection,
    submodule_generated,
    submodule_to_module,
    typicality,
    verify_filtration_certificate,
    verify_relations,
    verma_splitting_section,
    weight_decomposition,
    weight_split,
)
from uqwb.linalg import (FrozenRow, SMat, invert_dense, nullspace,
                         reduce_row, rref)
from uqwb import projectives, repmod, structure
from uqwb.cli import default_bgg_weights
from uqwb.projectives import (build_projective_cover,
                              certify_projcover_structure)
from uqwb.repmod import ModuleRep, WeightLabel, direct_sum
from uqwb.structure import (
    SubmoduleBasis,
    _intertwiner_ok,
    _sparse,
    _verma_map,
    annihilator_basis,
    quotient_with_map,
    simple_dim,
)


# ---------------------------------------------------------------------
# typicality and the classification of simples
# ---------------------------------------------------------------------

def test_typicality_even(s8):
    # ell = 8, r = 4: typical iff lam + 1 not an integer or in 4Z
    assert typicality(s8, Fraction(1, 2)).typical
    assert typicality(s8, Fraction(5, 2)).typical
    assert typicality(s8, Fraction(3)).typical       # 4 in 4Z
    assert typicality(s8, Fraction(-1)).typical      # 0 in 4Z
    for lam in (0, 1, 2, 4, 5, 6):
        assert not typicality(s8, Fraction(lam)).typical


def test_typicality_odd(s5):
    # ell = r = 5: typical iff lam + 1 not a half-integer or in (5/2)Z
    assert typicality(s5, Fraction(3, 2)).typical    # 5/2 in (5/2)Z
    assert typicality(s5, Fraction(4)).typical       # 5 in (5/2)Z
    assert not typicality(s5, Fraction(1, 2)).typical
    assert not typicality(s5, Fraction(5, 2)).typical
    for lam in (0, 1, 2, 3, 5):
        assert not typicality(s5, Fraction(lam)).typical


def test_atypical_decompose_round_trip(session):
    for i in range(0, session.r - 1):
        for k in (-1, 0, 1, 2):
            lam = Fraction(i) + Fraction(k * session.ell, 2)
            assert atypical_decompose(session, lam) == (i, k)
            assert simple_label(session, lam) == ("L", i, k)
            assert simple_dim(session, lam) == i + 1


def test_typical_simple_label(session):
    lam = Fraction(1, 2) if session.ell % 2 == 0 else Fraction(3, 2)
    assert simple_label(session, lam) == ("M", lam)
    assert simple_dim(session, lam) == session.r


def _uncached_label(session, w):
    """The label from typicality and atypical_decompose, with no memo."""
    verdict = typicality(session, w)
    if verdict.typical:
        return ("M", verdict.weight), session.r
    i, k = atypical_decompose(session, verdict.weight)
    return ("L", i, k), i + 1


@pytest.mark.parametrize("ell", [5, 8])
def test_simple_label_memo_matches_uncached_reference(ell):
    """On a fresh session, the memoized simple_label and simple_dim equal
    the uncached reference for every weight in [-3r, 3r] in steps of 1/2,
    on the first call and on a repeat; only checked Fractions are
    stored."""
    s = Session(ell)
    ws = [Fraction(n, 2) for n in range(-6 * s.r, 6 * s.r + 1)]
    for _ in range(2):
        for w in ws:
            lab, dim = _uncached_label(s, w)
            assert simple_label(s, w) == lab
            assert simple_dim(s, w) == dim
    assert set(s._label_cache) == set(ws)
    assert all(type(w) is Fraction for w in s._label_cache)


@pytest.mark.parametrize("ell", [5, 8])
def test_simple_label_carries_the_checked_fraction(ell):
    """A float, int or text weight gets the label of its Fraction, with
    the Fraction in it, whether or not that label was memoized first."""
    w = Fraction(3, 2)
    for first in (w, 1.5, "3/2"):
        s = Session(ell)
        assert typicality(s, w).typical
        simple_label(s, first)
        for other in (w, 1.5, "3/2"):
            lab = simple_label(s, other)
            assert lab == ("M", w) and type(lab[1]) is Fraction
        assert list(s._label_cache) == [w]
    s = Session(ell)
    assert simple_label(s, 2.0) == simple_label(s, 2) == \
        simple_label(s, Fraction(2)) == ("L", 2, 0)


def test_off_lattice_label_raises_on_every_call(s5):
    """Weight 1/3 is refused on each call and is never stored."""
    before = dict(s5._label_cache)
    for _ in range(3):
        with pytest.raises(RejectedInputError):
            simple_label(s5, Fraction(1, 3))
        with pytest.raises(RejectedInputError):
            simple_dim(s5, Fraction(1, 3))
    assert s5._label_cache == before
    assert Fraction(1, 3) not in s5._label_cache


# ---------------------------------------------------------------------
# submodules and quotients
# ---------------------------------------------------------------------

def test_submodule_saturation_closed(session):
    mod = build_generalized_verma(session, Fraction(1), 1)
    z = session.zero
    seed = [z] * mod.dim
    seed[mod.dim - 1] = session.one
    sub = submodule_generated(mod, [seed])
    assert sub.is_closed()
    assert 0 < sub.dim < mod.dim


def test_submodule_and_quotient_modules_verify(session):
    mod = build_generalized_verma(session, Fraction(0), 1)
    z = session.zero
    seed = [z] * mod.dim
    seed[mod.dim - 1] = session.one
    sub = submodule_generated(mod, [seed])
    inner = submodule_to_module(sub)
    assert verify_relations(inner)["status"] == "pass"
    quot = quotient_module(mod, sub)
    assert quot.dim == mod.dim - sub.dim
    assert verify_relations(quot)["status"] == "pass"


def test_non_closed_basis_rejected(session):
    """A span that E, F or H leaves is neither a submodule nor a
    quotient's kernel: the top vector of V(0, 1) alone."""
    mod = build_generalized_verma(session, Fraction(0), 1)
    top = SubmoduleBasis(mod)
    top._insert({0: session.one})
    assert not top.is_closed()
    with pytest.raises(RejectedInputError,
                       match="not closed under the module action"):
        submodule_to_module(top)
    for quotient in (quotient_module, quotient_with_map):
        with pytest.raises(RejectedInputError,
                           match="quotient by a non-closed subspace"):
            quotient(mod, top)


def _generated_by_last(mod):
    """The submodule of mod that its last basis vector generates."""
    seed = [mod.session.zero] * mod.dim
    seed[-1] = mod.session.one
    return submodule_generated(mod, [seed])


def test_quotient_rejects_a_subspace_of_another_module(s5):
    """A submodule of another module is refused before its closure, which
    holds in its own parent, is checked.  Read as coordinates of mod, its
    pivots gave a 2-dimensional quotient of V(0, 1) that fails the
    relations, and a 1-dimensional quotient of L_1."""
    v01 = build_generalized_verma(s5, Fraction(0), 1)
    sub = _generated_by_last(build_generalized_verma(s5, Fraction(1), 1))
    sub2 = _generated_by_last(v01)
    assert sub.is_closed() and sub2.is_closed()
    for mod, other in ((v01, sub), (build_simple(s5, 1), sub2)):
        for quotient in (quotient_module, quotient_with_map):
            with pytest.raises(RejectedInputError,
                               match="subspace of another module"):
                quotient(mod, other)


def test_typical_verma_is_simple(session):
    lam = Fraction(1, 2) if session.ell % 2 == 0 else Fraction(3, 2)
    mod = build_generalized_verma(session, lam, 0)
    hw = highest_weight_vectors(mod)
    for u, w, d in hw:
        assert submodule_generated(mod, [u]).dim == mod.dim
    assert jordan_holder(mod) == {("M", lam): 1}


def test_highest_weight_chain_of_verma(session):
    mod = build_generalized_verma(session, Fraction(1, 2), 2)
    hw = [x for x in highest_weight_vectors(mod) if x[1] == Fraction(1, 2)]
    assert len(hw) == 3  # the degree chain v^0, v^1, v^2


# ---------------------------------------------------------------------
# isomorphism testing
# ---------------------------------------------------------------------

def test_iso_test_positive(session):
    """V(1,1) against its conjugate by the basis change diag(2, 3, ...):
    the matrices differ, so iso_test must search for the intertwiner."""
    mod = build_generalized_verma(session, Fraction(1), 1)

    def conjugate(mat):
        out = SMat(session, mat.nrows, mat.ncols)
        for i, row in enumerate(mat.rows):
            for j, v in row.items():
                out.set(i, j, v * session.from_rational(
                    Fraction(i + 2, j + 2)))
        return out

    other = ModuleRep(session, mod.labels, conjugate(mod.matE),
                      conjugate(mod.matF), conjugate(mod.matH),
                      mod.max_degree, name="conjugated")
    assert (other.matE, other.matH) != (mod.matE, mod.matH)
    g = iso_test(mod, other)
    assert g is not None
    assert _intertwiner_ok(g, mod, other)
    assert g != SMat.identity(session, mod.dim)


def test_iso_test_through_twist(session):
    """L_i (x) C_k (x) C_{-k} is isomorphic to L_i."""
    li = build_simple(session, 1)
    tw = build_tensor(build_tensor(li, build_one_dim(session, 1)),
                      build_one_dim(session, -1))
    assert iso_test(tw, li) is not None


def test_iso_test_negative(session):
    a = build_generalized_verma(session, Fraction(1, 2), 0)
    b = build_generalized_verma(session, Fraction(5, 2), 0)
    assert iso_test(a, b) is None
    c = build_simple(session, 1)
    assert iso_test(a, c) is None  # different dimensions
    # L_1 embeds in L_1 + L_2: the inclusion has full rank on every
    # weight block of L_1, so only the block sizes refuse it
    big = direct_sum(c, build_simple(session, 2))
    assert structure._hom_basis(c, big)
    assert structure._block_pairs(c, big) is None
    assert iso_test(c, big) is None


def test_iso_test_dual_of_semisimple_sum(session):
    """dual(L_1 + L_2) is isomorphic to L_1 + L_2, but no weight vector
    generates either, and no element of the Hom basis (one map per
    simple) is invertible: the seeded combination is."""
    mod = direct_sum(build_simple(session, 1), build_simple(session, 2))
    dual = build_dual(mod)
    assert len(structure._hom_basis(dual, mod)) == 2
    g = iso_test(dual, mod)
    assert g is not None
    assert _intertwiner_ok(g, dual, mod)


def test_iso_test_negative_with_equal_blocks(session):
    """V(1, 0) and its dual have the same weight blocks and a nonzero
    Hom space, but no isomorphism: V(1, 0) has a simple top, so the
    None is decided."""
    v = build_generalized_verma(session, Fraction(1), 0)
    dual = build_dual(v)
    assert ({w: len(i) for w, i in v.weight_blocks().items()}
            == {w: len(i) for w, i in dual.weight_blocks().items()})
    assert structure._hom_basis(v, dual)
    assert iso_test(v, dual) is None


def test_iso_test_tau_conjugated(session):
    """V(1, 1) against its conjugate by diag(tau^5, 1, ...): a basis
    change with tau-dependent entries."""
    mod = build_generalized_verma(session, Fraction(1), 1)
    other = tau_conjugated(mod, 5)
    assert verify_relations(other)["status"] == "pass"
    g = iso_test(mod, other)
    assert g is not None
    assert _intertwiner_ok(g, mod, other)


def test_iso_test_rechecks_the_solved_map(session, monkeypatch):
    """An invertible map that is not an intertwiner, handed back as the
    Hom basis, is caught by the exact re-check."""
    v = build_generalized_verma(session, Fraction(1), 0)
    dual = build_dual(v)
    monkeypatch.setattr(structure, "_hom_basis",
                        lambda a, b: [SMat.identity(session, a.dim)])
    with pytest.raises(DiagnosticError):
        iso_test(v, dual)


def test_modules_over_different_fields_rejected(s5):
    """iso_test and _hom_basis refuse two modules whose sessions differ
    in (ell, N), as load_module refuses a dump of another field, instead
    of combining scalars of two fields.  V(1, 0) has the same dimension
    and weights at ell 5 and ell 10."""
    a = build_generalized_verma(s5, Fraction(1), 0)
    b = build_generalized_verma(Session(10), Fraction(1), 0)
    assert a.dim == b.dim
    for check in (iso_test, structure._hom_basis):
        with pytest.raises(RejectedInputError, match="different fields"):
            check(a, b)


def _ref_hom_basis(a, b):
    """Hom_U(a, b) from the full Kronecker system, with no use of the
    weights: X[i, j] is unknown i * a.dim + j, and each entry (i, j) of
    X M_a - M_b X, for M = E, F, H, is one dense equation."""
    s = a.session
    n = b.dim * a.dim
    rows = []
    for ma, mb in ((a.matE, b.matE), (a.matF, b.matF), (a.matH, b.matH)):
        for i in range(b.dim):
            for j in range(a.dim):
                row = [s.zero] * n
                for k in range(a.dim):
                    row[i * a.dim + k] = row[i * a.dim + k] + ma.get(k, j)
                for k in range(b.dim):
                    row[k * a.dim + j] = row[k * a.dim + j] - mb.get(i, k)
                rows.append(row)
    return nullspace(rows, n, s.zero, s.one)


def _jordan_triple(s):
    """Two basis vectors of weight 0 with E = F = 0 and H a nilpotent
    Jordan block.  This is a graded triple, not a U-module: on modules,
    commuting with E and F already forces commuting with the nilpotent
    part of H at every weight w with q^(2w) != -1, so only such a triple
    shows what the H equations alone cut out."""
    labels = [WeightLabel(Fraction(0), d, "j%d" % d) for d in (0, 1)]
    return ModuleRep(s, labels, SMat(s, 2, 2), SMat(s, 2, 2),
                     SMat(s, 2, 2, [{1: s.one}, {}]), 1, name="Jordan")


def _hom_pairs(s):
    """Pairs (a, b) of modules of dimension at most 10 at ell 5."""
    v10 = build_generalized_verma(s, Fraction(1), 0)
    v11 = build_generalized_verma(s, Fraction(1), 1)
    l12 = direct_sum(build_simple(s, 1), build_simple(s, 2))
    p10 = build_projective_cover(s, 1, 0)
    return {
        "V(1,0)": (v10, v10),
        "V(1,0) to its dual": (v10, build_dual(v10)),
        "dual V(1,0) to V(1,0)": (build_dual(v10), v10),
        "dual(L1+L2) to L1+L2": (build_dual(l12), l12),
        "V(1,1) to its tau-conjugate": (v11, tau_conjugated(v11, 5)),
        "V(3/2,1)": (build_generalized_verma(s, Fraction(3, 2), 1),) * 2,
        "dual P(1,0) to P(1,0)": (build_dual(p10), p10),
        "Jordan block of H": (_jordan_triple(s),) * 2,
        # unequal weight blocks
        "V(1,0) to L1": (v10, build_simple(s, 1)),
        "L1 to V(1,0)": (build_simple(s, 1), v10),
        "dual V(1,0) to L1": (build_dual(v10), build_simple(s, 1)),
        "V(1,1) to V(1,0)": (v11, v10),
        "V(-3,0) to V(1,0)": (build_generalized_verma(s, Fraction(-3), 0),
                              v10),
    }


@pytest.mark.parametrize("name", ["V(1,0)", "V(1,0) to its dual",
                                  "dual V(1,0) to V(1,0)",
                                  "dual(L1+L2) to L1+L2",
                                  "V(1,1) to its tau-conjugate",
                                  "V(3/2,1)", "dual P(1,0) to P(1,0)",
                                  "Jordan block of H", "V(1,0) to L1",
                                  "L1 to V(1,0)", "dual V(1,0) to L1",
                                  "V(1,1) to V(1,0)", "V(-3,0) to V(1,0)"])
def test_hom_basis_matches_dense_kronecker(s5, name):
    a, b = _hom_pairs(s5)[name]
    basis = structure._hom_basis(a, b)
    flat = [[g.get(i, j) for i in range(b.dim) for j in range(a.dim)]
            for g in basis]
    ref = _ref_hom_basis(a, b)
    assert len(flat) == len(ref)
    assert rref(flat, s5.zero)[0] == rref(ref, s5.zero)[0]
    for g in basis:
        assert _intertwiner_ok(g, a, b)


def _hom_basis_in_order(a, b, order):
    """_hom_basis(a, b) with the equation families H, E and F put into
    one `_kernel` in the given order, each family row by row as there."""
    s = a.session
    blocks_a, blocks_b = a.graded_blocks(), b.graded_blocks()
    var = {}
    for w, jdx in blocks_a.items():
        for i in blocks_b.get(w, ()):
            for j in jdx:
                var[i, j] = len(var)
    shifts = {"H": 0, "E": 2, "F": -2}
    rows = []
    for g in order:
        acols, brows = a.columns(g), b.generator_matrix(g).rows
        for w, jdx in blocks_a.items():
            for i in blocks_b.get(w + shifts[g] * s.N, []):
                for j in jdx:
                    row = {var[i, k]: x for k, x in acols[j].items()}
                    for k, x in brows[i].items():
                        row[var[k, j]] = row.get(var[k, j], s.zero) - x
                    rows.append({v: x for v, x in row.items()
                                 if not x.is_zero()})
    entries = list(var)
    out = []
    for sol in structure._kernel(rows, range(len(var)), s.one):
        g = SMat(s, b.dim, a.dim)
        for v, x in sol.items():
            g.set(*entries[v], x)
        out.append(g)
    return out


_ORDER_CASES = {  # (i, m, twist) of a cover, or "summand"
    "P(1,0)": (1, 0, 0), "P(0,0) x C(1)": (0, 0, 1),
    "P(1,1)": (1, 1, 0), "P(0,1) x C(-1)": (0, 1, -1),
    "P(1,2)": (1, 2, 0), "P(0,2) x C(2)": (0, 2, 2),
    "P(r-2,1) in tensor": "summand",
}


@pytest.mark.parametrize("case", list(_ORDER_CASES))
def test_hom_basis_independent_of_equation_order(session, case,
                                                  monkeypatch):
    """_hom_basis puts the F equations into the echelon before the E
    equations.  A reduced echelon form is unique, so its basis is the one
    of the order H, E, F, element for element, and iso_test returns the
    same matrix from either: on dual(P) -> P for covers of degree 0, 1
    and 2, untwisted and twisted, and on the tensor-summand pair."""
    if _ORDER_CASES[case] == "summand":
        i = session.r - 2
        a = projectives.build_via_tensor_summand(session, i, 1)
        b = build_projective_cover(session, i, 1)
    else:
        b = build_projective_cover(session, *_ORDER_CASES[case])
        a = build_dual(b)
    basis = structure._hom_basis(a, b)
    ref = _hom_basis_in_order(a, b, "HEF")
    assert basis and basis == ref
    g = iso_test(a, b)
    assert g is not None
    monkeypatch.setattr(structure, "_hom_basis", lambda a, b: ref)
    assert iso_test(a, b) == g


def test_is_generalized_verma(session):
    mod = build_generalized_verma(session, Fraction(2), 1)
    assert is_generalized_verma(mod, Fraction(2), 1)
    assert not is_generalized_verma(mod, Fraction(1), 1)
    assert not is_generalized_verma(mod, Fraction(2), 0)


@pytest.mark.parametrize("deg", [0, 1, 2])
def test_verma_map_of_the_top_is_the_identity(session, deg):
    """The map out of V(w, deg) that sends the top v^deg to itself is the
    identity: F^t v^k, basis vector t*(deg+1) + k, is F^t (H - w)^{deg-k}
    v^deg.  At an integral weight and at a half-integer typical one."""
    typical = Fraction(1, 2) if session.ell % 2 == 0 else Fraction(3, 2)
    assert typicality(session, typical).typical
    for w in (Fraction(1), typical):
        v = build_generalized_verma(session, w, deg)
        assert (_verma_map(v, {deg: session.one}, w, deg)
                == SMat.identity(session, v.dim))


def test_is_generalized_verma_rejects_equivariant_singular_map(session):
    """L_1 + L_{r-3} has dim r and a weight-1 highest-weight vector, so
    the canonical map from V(1, 0) is equivariant but not invertible."""
    r = session.r
    mod = direct_sum(build_simple(session, 1), build_simple(session, r - 3))
    assert mod.dim == r
    assert not is_generalized_verma(mod, Fraction(1), 0)


def _rebased_verma(s):
    """V(1, 1) on the basis v^1, v^0 + v^1, then the rest: X' = P^-1 X P
    for the P whose columns 0 and 1 are the two new vectors."""
    v = build_generalized_verma(s, Fraction(1), 1)
    assert [(lab.weight, lab.degree) for lab in v.labels[:2]] == [(1, 0),
                                                                 (1, 1)]
    p = SMat.identity(s, v.dim)
    pinv = SMat.identity(s, v.dim)
    for mat, entries in ((p, (0, 1, 1, 1)), (pinv, (-1, 1, 1, 0))):
        for (i, j), x in zip(((0, 0), (0, 1), (1, 0), (1, 1)), entries):
            mat.set(i, j, s.from_rational(x))
    labels = [WeightLabel(Fraction(1), 1, "v1"),
              WeightLabel(Fraction(1), 1, "v0+v1")] + list(v.labels[2:])
    return ModuleRep(s, labels, *[pinv @ v.generator_matrix(g) @ p
                                  for g in ("E", "F", "H")], 1,
                     name="V(1,1) rebased")


def test_is_generalized_verma_takes_the_first_top(session):
    """One top decides: on the basis v^1, v^0 + v^1, ... of V(1, 1) both
    echelon rows of ker E on weight 1 have degree 1, and the first one
    gives the isomorphism."""
    mod = _rebased_verma(session)
    assert verify_relations(mod)["status"] == "pass"
    lam = Fraction(1)
    rows = structure._hw_block(mod, lam)
    assert [structure._degree(mod, u, lam) for u in rows] == [1, 1]
    assert structure._chain_top(mod, lam, 1) == rows[0] == {0: session.one}
    assert is_generalized_verma(mod, lam, 1)
    assert not is_generalized_verma(mod, lam + 2, 1)


@pytest.mark.parametrize("route", ["rank", "generation"])
def test_is_generalized_verma_raises_when_routes_disagree(s5, monkeypatch,
                                                          route):
    """The intertwiner's rank and the chain top's generated submodule
    must agree; either one failing alone raises."""
    mod = build_generalized_verma(s5, Fraction(2), 1)
    if route == "rank":
        monkeypatch.setattr(structure, "_blocks_full_rank",
                            lambda g, pairs: False)
    else:
        monkeypatch.setattr(structure, "_generated",
                            lambda mod, seeds: SubmoduleBasis(mod))
    with pytest.raises(DiagnosticError, match="generation and intertwiner "
                       "routes disagree at 2"):
        is_generalized_verma(mod, Fraction(2), 1)


# ---------------------------------------------------------------------
# filtrations
# ---------------------------------------------------------------------

def test_tensor_standard_filtration(session):
    lam = Fraction(1)
    m, i = 1, 2
    big = build_tensor(build_generalized_verma(session, lam, m),
                       build_simple(session, i))
    cert = extract_standard_filtration(big, m)
    assert cert is not None
    assert len(cert.claims) == i + 1
    got = sorted(cert.quotient_weights())
    assert got == sorted(lam + i - 2 * k for k in range(i + 1))
    rep = verify_filtration_certificate(cert)
    assert rep["status"] == "pass", [x for x in rep["items"] if not x["ok"]]


def test_standard_search_needs_the_verma_dimension(session):
    """L_i + L_{r-2-i} has dimension r and degree-0 highest-weight
    vectors, but no submodule V(w, 0): the search finds no filtration
    rather than a member generated by a smaller simple."""
    r = session.r
    for i in range(r - 1):
        mod = direct_sum(build_simple(session, i),
                         build_simple(session, r - 2 - i))
        assert mod.dim == r
        assert extract_standard_filtration(mod, 0) is None


def test_zero_module_has_empty_filtrations(s5):
    """A zero-dimensional module has the empty standard and costandard
    certificates, and both verify."""
    zero = ModuleRep(s5, [], SMat(s5, 0, 0), SMat(s5, 0, 0), SMat(s5, 0, 0),
                     0, name="0")
    for extract in (extract_standard_filtration,
                    extract_costandard_filtration):
        cert = extract(zero, 1)
        assert (cert.chain, cert.claims) == ([], [])


def _lemma_modules(s):
    """Vermas, simples, every cover P_i^m (x) C(t), m <= 2, t in 0, +-1,
    +-2, 3, V(1,1) (x) L_2 and L_1 (+) L_1, leaving out what derive_K
    refuses in s's mode."""
    builders = [lambda lam=lam, m=m: build_generalized_verma(s, lam, m)
                for lam in (Fraction(0), Fraction(1), Fraction(1, 2))
                for m in range(3)]
    builders += [lambda i=i: build_simple(s, i) for i in range(s.r - 1)]
    builders += [lambda i=i, m=m, t=t: build_projective_cover(s, i, m, t)
                 for i in range(s.r - 1) for m in range(3)
                 for t in (0, 1, -1, 2, -2, 3)]
    builders += [lambda: build_tensor(build_generalized_verma(s, 1, 1),
                                      build_simple(s, 2)),
                 lambda: direct_sum(build_simple(s, 1), build_simple(s, 1))]
    mods = []
    for build in builders:
        try:
            mod = build()
            mod.K
        except ModeUnsupportedError:
            continue
        mods.append(mod)
    return mods


@pytest.mark.parametrize("mode", ["exponential", "paper-literal"])
def test_transpose_dual_is_the_dual(session, mode):
    """The transpose dual (F^T, E^T, H^T) is a module, isomorphic to
    build_dual's theta-dual, and its own transpose dual has the module's
    E, F and H exactly, on every module of _lemma_modules."""
    s = session if mode == "exponential" else Session(session.ell, mode=mode)
    mods = _lemma_modules(s)
    assert len(mods) >= (20 if mode == "exponential" else 10), len(mods)
    for mod in mods:
        dual = structure._transpose_dual(mod)
        assert verify_relations(dual)["status"] == "pass", mod.name
        assert iso_test(build_dual(mod), dual) is not None, mod.name
        back = structure._transpose_dual(dual)
        assert (back.matE, back.matF, back.matH) == (
            mod.matE, mod.matF, mod.matH), mod.name


def _dense_annihilator(mod, dual_rows):
    """The annihilator of the functionals from one full-dimension dense
    nullspace, for reference."""
    s = mod.session
    sub = SubmoduleBasis(mod)
    for v in nullspace(dual_rows, mod.dim, s.zero, s.one):
        for comp in weight_split(mod, v).values():
            sub._insert(_sparse(comp))
    return sub


def test_annihilator_basis_matches_dense_nullspace(session):
    """annihilator_basis, one kernel per weight block, equals the dense
    full-dimension kernel on the zero member and every member of the
    dual's standard chain of every cover P_i^m (x) C, m <= 2."""
    for i in range(session.r - 1):
        for m, twist in itertools.product(range(3), (0, 1, -2)):
            p = build_projective_cover(session, i, m, twist)
            dcert = structure._standard_chain(build_dual(p), m)
            assert len(dcert.chain) == 2
            for rows in [[]] + [t.rows for t in dcert.chain]:
                assert (annihilator_basis(p, rows).rows
                        == _dense_annihilator(p, rows).rows)


def test_annihilator_refuses_a_functional_on_two_weights(s5):
    """The annihilator is taken one weight block at a time, so a
    functional nonzero on two blocks is refused, named with two of its
    weights: (1, 1) on L(1) at ell 5, whose annihilator is the line of
    (1, -1), does not come back as 0.  Homogeneous functionals pass."""
    simple = build_simple(s5, 1)
    one, zero = s5.one, s5.zero
    assert [lab.weight for lab in simple.labels] == [1, -1]
    with pytest.raises(RejectedInputError,
                       match="functional 1 is not homogeneous: it has "
                             "weights 1 and -1"):
        annihilator_basis(simple, [[one, zero], [one, one]])
    assert annihilator_basis(simple, [[one, zero]]).rows == [[zero, one]]
    assert annihilator_basis(simple, [[zero, one], [one, zero]]).dim == 0


def test_filtration_certificate_json_round_trip(session):
    m = 1
    big = build_tensor(build_generalized_verma(session, Fraction(0), m),
                       build_simple(session, 1))
    cert = extract_standard_filtration(big, m)
    data = json.loads(json.dumps(cert.to_json()))
    back = FiltrationCertificate.from_json(data)
    assert back.kind == cert.kind
    assert back.quotient_weights() == cert.quotient_weights()
    assert verify_filtration_certificate(back)["status"] == "pass"


def test_certificate_members_read_as_written(s5):
    """from_json takes each member as the span of its rows as written,
    not as the graded span of their weight pieces: member 0 of P(1,1)'s
    standard certificate, its 10 rows rewritten as 4 sums of two rows of
    different weights and 2 rows as they were, spans 6 dimensions, is
    not closed and fails verification."""
    p = build_projective_cover(s5, 1, 1)
    data = extract_standard_filtration(p, 1).to_json()
    rows = [[s5.parse_scalar(x) for x in row] for row in data["chain"][0]]
    weights = [{p.labels[k].weight for k, x in enumerate(row)
                if not x.is_zero()} for row in rows]
    pairs = [(0, 2), (1, 3), (4, 6), (5, 7)]
    assert all(len(weights[a] | weights[b]) == 2 for a, b in pairs)
    sums = [[x + y for x, y in zip(rows[a], rows[b])] for a, b in pairs]
    data["chain"][0] = [[s5.format_scalar(x) for x in row]
                        for row in sums + rows[8:]]
    back = FiltrationCertificate.from_json(json.loads(json.dumps(data)))
    assert back.chain[0].dim == 6
    rep = verify_filtration_certificate(back)
    assert rep["status"] == "fail"
    failed = [it["check"] for it in rep["items"] if not it["ok"]]
    assert failed[:2] == ["member 0 closed", "member 0 dimension"], failed


def _verma_tops(mod):
    """(w, d, sub) for each highest-weight vector u of mod, of weight w
    and degree d, whose generated submodule sub has dimension (d + 1) r."""
    r = mod.session.r
    out = []
    for u, w, d in highest_weight_vectors(mod):
        sub = submodule_generated(mod, [u])
        if sub.dim == (d + 1) * r:
            out.append((w, d, sub))
    return out


def test_verma_by_dimension(session):
    """The standard search takes a highest-weight vector of degree d
    whose submodule has dimension (d + 1) r for V(w, d), by the
    universal property of V(w, d).  Checked on tensors, a cover, its
    dual and a second cover, and on the quotient of each by its first
    such submodule, as the search meets them."""
    cover = build_projective_cover(session, 1, 1, twist=1)
    mods = [build_tensor(build_generalized_verma(session, Fraction(1), m),
                         build_simple(session, i))
            for m, i in ((0, 2), (1, 1), (2, 2))]
    mods += [cover, build_dual(cover), build_projective_cover(session, 0, 2)]
    for mod in mods:
        found = _verma_tops(mod)
        assert found, mod.name
        for w, d, sub in found:
            assert is_generalized_verma(submodule_to_module(sub), w, d)
        quot = quotient_module(mod, found[0][2])
        for w, d, sub in _verma_tops(quot):
            assert is_generalized_verma(submodule_to_module(sub), w, d)


def _count_calls(monkeypatch, module, name, log):
    """Wrap module.name so that each call appends its first argument to
    log[name]."""
    orig = getattr(module, name)
    log[name] = []

    def counted(*args, **kwargs):
        log[name].append(args[0])
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_filtrations_verify_once(s5, monkeypatch):
    """Each extraction verifies the certificate it returns exactly once;
    the search recognises no Verma; a costandard extraction searches one
    standard chain, on the transpose dual of the module; a cover
    certification verifies two certificates, searches two standard
    chains, one on the cover and one on its transpose dual, and calls no
    build_dual.  bgg_table searches each untwisted cover and each
    typical Verma once, checks the relations of each untwisted and each
    twisted cover once, and verifies one certificate per weight."""
    p = build_projective_cover(s5, 1, 1)
    assert not hasattr(structure, "build_dual")
    log = {}
    for module, name in ((structure, "verify_filtration_certificate"),
                         (structure, "is_generalized_verma"),
                         (structure, "_standard_chain"),
                         (projectives, "build_dual"),
                         (projectives, "verify_relations")):
        _count_calls(monkeypatch, module, name, log)

    def calls():
        out = {n: len(v) for n, v in log.items()}
        out["standard chains"] = [
            "cover" if a is p
            else "transpose dual" if (a.matE, a.matF) == (
                p.matF.transpose(), p.matE.transpose())
            else a.name for a in log["_standard_chain"]]
        for v in log.values():
            v.clear()
        return out

    assert structure._standard_chain(p, 1) is not None
    assert calls()["is_generalized_verma"] == 0
    cert = extract_standard_filtration(p, 1)
    got = calls()
    assert got["verify_filtration_certificate"] == 1
    assert got["is_generalized_verma"] == len(cert.claims) == 2
    ccert = extract_costandard_filtration(p, 1)
    got = calls()
    assert got["verify_filtration_certificate"] == 1
    assert got["standard chains"] == ["transpose dual"]
    assert got["is_generalized_verma"] == len(ccert.claims) == 2
    rep = certify_projcover_structure(s5, 1, 1, module=p)
    assert rep["status"] == "pass"
    got = calls()
    assert got["verify_filtration_certificate"] == 2
    assert got["build_dual"] == 0
    assert got["standard chains"] == ["cover", "transpose dual"]
    # i = 1 at twists 0, 2 and -2, i = 2 at twists 0 and 2, typical 4
    weights = [Fraction(w) for w in (1, 6, -4, 2, 7, 4)]
    assert all(c[3] for c in bgg_table(s5, 1, weights))
    got = calls()
    assert got["_standard_chain"] == 2 + 1
    assert got["verify_filtration_certificate"] == len(weights)
    assert got["verify_relations"] == 2 + 3


def test_certification_builds_one_dual(s5, monkeypatch):
    """Certifying P(1,2) at ell 5 builds exactly one dual(...) module:
    the transpose dual, kept on the cover and read by the costandard
    search, its certificate check, self-duality and the top."""
    p = build_projective_cover(s5, 1, 2)
    names = []
    init = ModuleRep.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        names.append(self.name)

    monkeypatch.setattr(ModuleRep, "__init__", counted)
    rep = certify_projcover_structure(s5, 1, 2, module=p)
    assert rep["status"] == "pass"
    # the other names are subquotients, such as dual(P(1,2))/sub
    assert [n for n in names if re.fullmatch(r"dual\(.*\)", n)] == [
        "dual(P(1,2))"]
    assert structure._transpose_dual(p) is p._dual


def _transport(s5):
    """The unverified standard chain of P(1,1), P(1,1) x C(2) and the
    shift 2*ell/2."""
    p = build_projective_cover(s5, 1, 1)
    return structure._standard_chain(p, 1), \
        build_projective_cover(s5, 1, 1, 2), Fraction(5)


def test_transported_certificate_verifies(s5):
    chain, t, shift = _transport(s5)
    cert = structure._verified(structure._twisted_chain(chain, t, shift),
                               "transport")
    assert cert.parent is t
    assert all(sub.parent is t for sub in cert.chain)
    assert cert.quotient_weights() == [Fraction(12), Fraction(6)]


def _wrong_shift(chain, t, shift):
    return structure._twisted_chain(chain, t, shift + 2)


def _members_not_rebased(chain, t, shift):
    return FiltrationCertificate(t, "standard", 1, chain.chain,
                                 [(k, w + shift, d)
                                  for k, w, d in chain.claims])


@pytest.mark.parametrize("fault", [_wrong_shift, _members_not_rebased])
def test_faulty_transport_fails_verification(s5, fault):
    chain, t, shift = _transport(s5)
    with pytest.raises(DiagnosticError,
                       match="transport failed re-verification"):
        structure._verified(fault(chain, t, shift), "transport")


def test_certificate_members_must_lie_in_its_module(s5, monkeypatch):
    """Members held in another module fail "member j closed", and no
    quotient is built over them: P(1,1)'s chain, claims unchanged, is
    not a certificate of P(1,1) x C(2), whose quotients are V(12,1) and
    V(6,1)."""
    p = build_projective_cover(s5, 1, 1)
    t = build_projective_cover(s5, 1, 1, 2)
    c = structure._standard_chain(p, 1)
    log = {}
    _count_calls(monkeypatch, structure, "_subquotient", log)
    rep = verify_filtration_certificate(
        FiltrationCertificate(t, "standard", 1, c.chain, c.claims))
    assert rep["status"] == "fail"
    assert [it["check"] for it in rep["items"] if not it["ok"]] == [
        "member 0 closed", "quotient 0 is verma(7,1)",
        "member 1 closed", "quotient 1 is verma(1,1)"]
    assert log["_subquotient"] == []


def test_filtration_checks_each_member_closure_once(s5, monkeypatch):
    """Closure is decided where a subspace enters: verifying P(1,1)'s
    two-member certificate checks each member once, and the search and
    jordan_holder, whose subspaces are closed by construction, check
    none."""
    p = build_projective_cover(s5, 1, 1)
    log = {}
    _count_calls(monkeypatch, SubmoduleBasis, "is_closed", log)
    cert = structure._standard_chain(p, 1)
    assert log["is_closed"] == []
    assert verify_filtration_certificate(cert)["status"] == "pass"
    assert log["is_closed"] == cert.chain
    del log["is_closed"][:]
    jordan_holder(p)
    assert log["is_closed"] == []


def _wrong_claim_weight(cert):
    kind, w, deg = cert.claims[0]
    cert.claims[0] = (kind, w + 2, deg)


def _members_swapped(cert):
    cert.chain[0], cert.chain[1] = cert.chain[1], cert.chain[0]


@pytest.mark.parametrize("fault", [_wrong_claim_weight, _members_swapped])
def test_single_check_catches_search_faults(s5, monkeypatch, fault):
    """A fault in the searched chain, on the dual or on the module
    itself, fails the one verification of the returned certificate."""
    p = build_projective_cover(s5, 1, 1)
    orig = structure._standard_chain

    def faulty(mod, deg):
        cert = orig(mod, deg)
        fault(cert)
        return cert

    monkeypatch.setattr(structure, "_standard_chain", faulty)
    with pytest.raises(DiagnosticError,
                       match="costandard transport failed re-verification"):
        extract_costandard_filtration(p, 1)
    with pytest.raises(DiagnosticError,
                       match="extracted filtration failed re-verification"):
        extract_standard_filtration(p, 1)


def _assert_no_repeated_check(rep, members):
    names = [it["check"] for it in rep["items"]]
    assert len(names) == len(set(names)), names
    for j in range(1, members):
        pair = [n for n in names
                if set(re.findall(r"member (\d+)", n)) == {str(j - 1),
                                                           str(j)}]
        assert len(pair) == 1, (j, pair)


def test_certificate_report_repeats_no_check(session):
    """verify_filtration_certificate reports each check once: one item
    for each member pair (member j contains member j - 1), on the P(1,1)
    certificate and on a copy whose top member lost a row."""
    p = build_projective_cover(session, 1, 1)
    cert = extract_standard_filtration(p, 1)
    rep = verify_filtration_certificate(cert)
    assert rep["status"] == "pass"
    _assert_no_repeated_check(rep, len(cert.chain))
    data = cert.to_json()
    del data["chain"][-1][-1]
    rep = verify_filtration_certificate(
        FiltrationCertificate.from_json(data, session))
    assert rep["status"] == "fail"
    _assert_no_repeated_check(rep, len(cert.chain))


def _per_quotient_items(cert):
    """(check, ok) of every item of verify_filtration_certificate's
    report, by the per-quotient route: each quotient S_{j+1}/S_j cut from
    the parent, and a dual-verma claim decided on its own dual,
    build_dual(S_{j+1}/S_j).  Every quotient is built, so the members
    must be closed and ascending, as the caller checks."""
    mod = cert.parent
    block = (cert.degree + 1) * mod.session.r
    items = [("chain length * block dim = dim",
              len(cert.chain) * block == mod.dim
              and len(cert.chain) == len(cert.claims))]
    for j, (sub, (kind, w, deg)) in enumerate(zip(cert.chain, cert.claims)):
        prev = cert.chain[j - 1] if j else SubmoduleBasis(mod)
        items.append(("member %d closed" % j, sub.is_closed()))
        items.append(("member %d dimension" % j, sub.dim == (j + 1) * block))
        if j:
            items.append(("member %d contains member %d" % (j, j - 1),
                          not any(sub._reduce(row)
                                  for row in prev.sparse_rows())))
        quot = structure._subquotient(mod, prev, sub)[0]
        if kind != "verma":
            quot = build_dual(quot)
        items.append(("quotient %d is %s(%s,%d)" % (j, kind, w, deg),
                      is_generalized_verma(quot, w, deg)))
    return items


def _claims_swapped(cert):
    return [cert.claims[1], cert.claims[0]] + cert.claims[2:]


def _claim_weight_moved(cert):
    kind, w, deg = cert.claims[0]
    return [(kind, w + 2, deg)] + cert.claims[1:]


def test_dual_side_route_matches_per_quotient_duals(session):
    """verify_filtration_certificate decides a dual-verma claim on
    Ann(S_j)/Ann(S_{j+1}) in the parent's transpose dual; the
    per-quotient route decides it on build_dual(S_{j+1}/S_j).  The two
    reports agree item by item on the costandard certificate of every
    cover P_i^m (x) C(t), m <= 2, t in 0, 1, -2, on copies with the two
    claims swapped and with claim 0's weight moved by 2, and on the
    standard chain relabelled costandard, its claims made dual-verma."""
    verdicts = set()
    for i in range(session.r - 1):
        for m, t in itertools.product(range(3), (0, 1, -2)):
            p = build_projective_cover(session, i, m, t)
            cert = extract_costandard_filtration(p, m)
            std = extract_standard_filtration(p, m)
            certs = [cert] + [
                FiltrationCertificate(p, "costandard", m, cert.chain,
                                      fault(cert))
                for fault in (_claims_swapped, _claim_weight_moved)]
            certs.append(FiltrationCertificate(
                p, "costandard", m, std.chain,
                [("dual-verma", w, d) for _, w, d in std.claims]))
            for c in certs:
                want = _per_quotient_items(c)
                assert all(ok for check, ok in want
                           if check.startswith("member")), want
                got = verify_filtration_certificate(c)["items"]
                assert [(it["check"], it["ok"]) for it in got] == want, (
                    i, m, t, c.claims)
                verdicts.update(ok for check, ok in want
                                if check.startswith("quotient"))
    assert verdicts == {True, False}


def test_costandard_verification_builds_one_dual(s5, monkeypatch):
    """Verifying a costandard certificate builds one transpose dual, of
    the parent, and none of a quotient, and takes each annihilator once:
    one per member below the top, which is the parent.  A standard
    certificate builds no dual.  Extraction builds one for its search,
    takes in the module the annihilators of 0 and of the dual's member
    below its top, and then verifies, building one more."""
    log = {}
    for name in ("_transpose_dual", "annihilator_basis"):
        _count_calls(monkeypatch, structure, name, log)

    def calls():
        out = {n: list(v) for n, v in log.items()}
        for v in log.values():
            v.clear()
        return out

    for m in (1, 2):
        p = build_projective_cover(s5, 1, m, 1)
        cert = extract_costandard_filtration(p, m)
        got = calls()
        assert got["_transpose_dual"] == [p, p]
        anns = got["annihilator_basis"]
        assert anns[:2] == [p, p] and len(anns) == 2 + len(cert.chain) - 1
        std = extract_standard_filtration(p, m)
        calls()
        assert verify_filtration_certificate(std)["status"] == "pass"
        assert calls() == {"_transpose_dual": [], "annihilator_basis": []}
        assert verify_filtration_certificate(cert)["status"] == "pass"
        got = calls()
        assert got["_transpose_dual"] == [p]
        duals = got["annihilator_basis"]
        assert len(duals) == len(cert.chain) - 1
        assert all(d is duals[0] and d is not p for d in duals)


def test_form_route_certificate_matches_extraction(session):
    """extract_costandard_filtration reads the transpose dual; the
    reference reads the theta-dual build_dual(P): the annihilators in P of
    the members of _standard_chain(build_dual(P)) below its top, in
    reverse order, with the dual's claims reversed and made dual-verma.
    The two certificates are equal, chain rows and claims, for every
    P_i^m (x) C(t), m <= 2, t = k*ell/2 for k in 0, +-1, +-2, 3."""
    for i in range(session.r - 1):
        for m, t in itertools.product(range(3), (0, 1, -1, 2, -2, 3)):
            p = build_projective_cover(session, i, m, t)
            dcert = structure._standard_chain(build_dual(p), m)
            assert len(dcert.chain) == 2, (i, m, t)
            rows = [annihilator_basis(p, []).rows,
                    annihilator_basis(p, dcert.chain[0].rows).rows]
            claims = [("dual-verma", w, d) for _, w, d in dcert.claims]
            got = extract_costandard_filtration(p, m)
            assert ([sub.rows for sub in got.chain], got.claims) == (
                rows[::-1], claims[::-1]), (i, m, t)


def _two_step_subquotient(lower, upper):
    """upper / lower built in two steps: upper as a module of its own,
    lower re-inserted in upper's coordinates (a vector of upper has its
    entries at upper's pivots as coordinates), then the quotient."""
    big = submodule_to_module(upper)
    if not lower.dim:
        return big
    inner = SubmoduleBasis(big)
    for row in lower.sparse_rows():
        assert not upper._reduce(row)
        inner._insert({k: row[p] for k, p in enumerate(upper.pivots)
                       if p in row})
    return quotient_module(big, inner)


def test_subquotient_matches_two_step_reference(session):
    """Every S_j / S_{j-1} of both filtrations of P_i^m (x) C(t), for
    m <= 2 and t in 0, 1, -2, built in one step from the cover, equals
    the two-step construction in E, F, H, labels and max_degree."""
    count = 0
    for i in range(session.r - 1):
        for m in range(3):
            for t in (0, 1, -2):
                p = build_projective_cover(session, i, m, t)
                for extract in (extract_standard_filtration,
                                extract_costandard_filtration):
                    chain = extract(p, m).chain
                    for j, upper in enumerate(chain):
                        lower = chain[j - 1] if j else SubmoduleBasis(p)
                        got = structure._subquotient(p, lower, upper)[0]
                        ref = _two_step_subquotient(lower, upper)
                        assert ((got.matE, got.matF, got.matH, got.labels,
                                 got.max_degree)
                                == (ref.matE, ref.matF, ref.matH,
                                    ref.labels, ref.max_degree))
                        count += 1
    assert count == 2 * 2 * 3 * 3 * (session.r - 1)


# ---------------------------------------------------------------------
# composition series
# ---------------------------------------------------------------------

def test_jordan_holder_atypical_verma(session):
    """V(i, 0) at atypical i has factors L_i and the linked twisted
    simple; total dimension must add up."""
    i = 1
    mod = build_generalized_verma(session, Fraction(i), 0)
    factors = jordan_holder(mod)
    assert factors[("L", i, 0)] == 1
    assert sum(factors.values()) == 2
    total = 0
    for (_, idx, k), c in factors.items():
        total += (idx + 1) * c
    assert total == mod.dim


def test_jordan_holder_duality_invariance(session):
    mod = build_generalized_verma(session, Fraction(2), 1)
    assert jordan_holder(mod) == jordan_holder(build_dual(mod))


def test_socle_of_simple(session):
    mod = build_simple(session, 2)
    assert socle_counts(mod) == {Fraction(2): 1}


# ---------------------------------------------------------------------
# splitting sections
# ---------------------------------------------------------------------

def test_splitting_section_typical(session):
    lam = Fraction(1, 2) if session.ell % 2 == 0 else Fraction(3, 2)
    m = 1
    big = build_tensor(build_generalized_verma(session, lam, m),
                       build_simple(session, 0))
    f, top = standard_top_surjection(big, m)
    assert top == lam
    g = verma_splitting_section(big, f, top, m)
    # f*g = id and equivariance are certified inside; a section implies
    # the surjection splits, so the tensor has a Verma direct summand.
    rows = [[session.format_scalar(x) for x in row] for row in g.to_dense()]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == SECTION_SHA256[session.ell]


# SHA-256 of the JSON rows of scalar texts of the section above, as
# full-dimension powers of E and F computed it
SECTION_SHA256 = {
    5: "e5e01edca2b7c4a4ebe82a8f096c2c59ca7e3620e171f66dadd85c5ce14c41fb",
    8: "abf4c5e8cda272dcea71a469830c9f88180402d7b742dd10a3ac28c37556e960",
}


def test_splitting_requires_typical(session):
    m = 0
    big = build_tensor(build_generalized_verma(session, Fraction(1), m),
                       build_simple(session, 0))
    f, top = standard_top_surjection(big, m)
    with pytest.raises(RejectedInputError):
        verma_splitting_section(big, f, Fraction(1), m)


def test_splitting_section_rejects_non_surjective_f(session):
    """The zero map is equivariant but reaches no chain vector, so the
    solve for the preimages of the targets is inconsistent."""
    lam = Fraction(1, 2) if session.ell % 2 == 0 else Fraction(3, 2)
    m = 1
    big = build_tensor(build_generalized_verma(session, lam, m),
                       build_simple(session, 0))
    zero = SMat(session, (m + 1) * session.r, big.dim)
    with pytest.raises(RejectedInputError, match="not surjective"):
        verma_splitting_section(big, zero, lam, m)


@pytest.mark.parametrize("chain", ["zero", "repeated top"])
def test_top_surjection_rejects_singular_chain_map(session, monkeypatch,
                                                   chain):
    """A chain map singular on a weight block of the top quotient is
    refused, not inverted.  The filtration is found first, unpatched,
    since its verification builds chains of its own."""
    mod = build_generalized_verma(session, Fraction(1), 1)
    cert = extract_standard_filtration(mod, 1)
    monkeypatch.setattr(structure, "extract_standard_filtration",
                        lambda mod, deg: cert)

    canonical = structure._verma_map

    def degenerate(mod, u, w, deg):
        """The map on the chain [{}] * (deg + 1) or [u] * (deg + 1):
        column t*n + k is 0, or F^t u, the canonical column t*n + deg."""
        g = canonical(mod, u, w, deg)
        n = deg + 1
        g.rows = [{} if chain == "zero" else
                  {c - deg + k: x for c, x in row.items() if c % n == deg
                   for k in range(n)}
                  for row in g.rows]
        return g
    monkeypatch.setattr(structure, "_verma_map", degenerate)
    with pytest.raises(DiagnosticError, match="chain map is singular"):
        standard_top_surjection(mod, 1)


# ---------------------------------------------------------------------
# BGG reciprocity (small window; the full sweep is in acceptance)
# ---------------------------------------------------------------------

def test_bgg_small_window(session):
    weights = [Fraction(0), Fraction(1)]
    cells = bgg_table(session, 0, weights)
    assert len(cells) == 4
    for (_lam, _mu), a, b, ok in cells:
        assert ok, ((_lam, _mu), a, b)


# SHA-256 of the JSON list of [lam, mu, filtration, composition, equal]
# of bgg_table over the CLI default window moved by shift*r, as the
# tables were when every twisted cover was searched on its own
BGG_SHA256 = {
    (5, 0):
        "2c10265f9e5ec1bc893b892b7ef1f4862b459cdd43f897039da303a2c87eb373",
    (5, 2):
        "655e7c49ad3e1dd45b1744d94d2a27b3e6a2a9f118c422ca304a56beafa32789",
    (5, -2):
        "61844762e3e6a78e2c9c17c0af3a9986b9080b1d6a77fda2c1b08a98eac696e9",
    (8, 0):
        "aa9683391511f1b3e476c73c4d92753da95fde61a354c095fa28a0a6c88b9d10",
    (8, 2):
        "aabcc8b44b794d5b6a03746c4b3fd61368a69361395c38d7647014abefde4b9c",
    (8, -2):
        "530c3c9b978d04647187a1c37d5c241b87e94c791104f3c3910781d8fda14219",
}


@pytest.mark.parametrize("ell", [5, 8])
def test_bgg_table_builds_one_cover_per_atypical_weight(s5, s8, ell,
                                                        monkeypatch):
    """In the default window moved by 2r every atypical weight is a
    nonzero twist, and several share an index i: bgg_table builds
    exactly one cover per atypical weight, its own twist, and no
    untwisted P_i^m."""
    s = s5 if ell == 5 else s8
    weights = [w + 2 * s.r for w in default_bgg_weights(s)]
    want = sorted((*atypical_decompose(s, w), 0) for w in weights
                  if not typicality(s, w).typical)
    assert all(k for _, k, _ in want)
    assert len({i for i, _, _ in want}) < len(want)
    built = []
    real = projectives.build_projective_cover

    def counting(session, i, m, twist=0):
        built.append((i, twist, m))
        return real(session, i, m, twist)

    monkeypatch.setattr(projectives, "build_projective_cover", counting)
    assert all(c[3] for c in bgg_table(s, 0, weights))
    assert sorted(built) == want


@pytest.mark.parametrize("shift", [0, 2, -2])
@pytest.mark.parametrize("ell,m", [(5, 0), (5, 1), (8, 0)])
def test_bgg_cells_unchanged(s5, s8, ell, m, shift):
    """Pinned tables; in the moved windows every atypical weight is a
    nonzero twist."""
    s = s5 if ell == 5 else s8
    weights = [w + shift * s.r for w in default_bgg_weights(s)]
    data = json.dumps([[str(lam), str(mu), a, b, ok]
                       for (lam, mu), a, b, ok in bgg_table(s, m, weights)])
    digest = hashlib.sha256(data.encode()).hexdigest()
    assert digest == BGG_SHA256[(ell, shift)]


def _fraction_route(mod):
    """{N*w: indices} of mod's label weights w, by Fraction arithmetic."""
    want = {}
    for i, lab in enumerate(mod.labels):
        want.setdefault(mod.session.N * lab.weight, []).append(i)
    return [(k, tuple(idx)) for k, idx in want.items()]


@pytest.mark.parametrize("ell,N", [(8, 1), (5, 2), (5, 6), (4, 3)])
def test_int_keys_across_weight_denominators(ell, N, monkeypatch):
    """At weight denominators 1, 2, 3 and 6, on the default integer
    window plus the non-integer lattice weights among 1/N, 1/2,
    -(N + 1)/N and 3/2: graded_blocks() of every Verma, cover and
    subquotient bgg_table builds holds int keys and is the Fraction
    route {N*w: indices}, and every cell of the degree-0 and degree-1
    tables is equal.  At ell 5 and N 2 or 6, 1/2 is atypical, so its
    cover has an odd twist."""
    s = Session(ell, N)
    r = s.r
    weights = [Fraction(w) for w in range(-(r - 1), 2 * r - 1)]
    extra = [w for w in (Fraction(1, N), Fraction(1, 2), Fraction(-N - 1, N),
                         Fraction(3, 2))
             if w.denominator > 1 and N % w.denominator == 0]
    weights += sorted(set(extra))
    assert (len(extra) > 1) == (N > 1)
    built = []

    def spy(fn):
        def wrapped(*args):
            built.append(fn(*args))
            return built[-1]
        return wrapped

    monkeypatch.setattr(structure, "_make_module",
                        spy(structure._make_module))
    monkeypatch.setattr(projectives, "build_projective_cover",
                        spy(projectives.build_projective_cover))
    for m in (0, 1):
        cells = bgg_table(s, m, weights)
        assert len(cells) == len(weights) ** 2
        assert all(c[3] for c in cells), [c for c in cells if not c[3]][:3]
    mods = built + list(s._verma_cache.values())
    assert len(built) > len(weights)
    for mod in mods:
        blocks = mod.graded_blocks()
        assert all(type(k) is int for k in blocks), mod.name
        assert list(blocks.items()) == _fraction_route(mod), mod.name
    if ell == 5 and N % 2 == 0:
        assert simple_label(s, Fraction(1, 2)) == ("L", r - 2, -1)


@pytest.mark.parametrize("ell,bound", [(5, 1213), (8, 761)])
def test_warm_table_fraction_work(ell, bound, monkeypatch):
    """The second degree-0 table of the default window on a fresh
    session constructs and hashes Fractions at most a third as often as
    when weight blocks, shifts and the table's dicts were keyed by
    Fraction (3,641 times at ell 5 and 2,285 at ell 8), and gives the
    first table's cells."""
    s = Session(ell)
    weights = default_bgg_weights(s)
    cold = bgg_table(s, 0, weights)
    n = {"new": 0, "hash": 0}
    new, fhash = Fraction.__new__, Fraction.__hash__

    def counted_new(cls, *args, **kwargs):
        n["new"] += 1
        return new(cls, *args, **kwargs)

    def counted_hash(f):
        n["hash"] += 1
        return fhash(f)
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    warm = bgg_table(s, 0, weights)
    monkeypatch.undo()
    assert warm == cold
    assert n["new"] + n["hash"] <= bound, n


# ---------------------------------------------------------------------
# the weight-graded routines against a dense reference
# ---------------------------------------------------------------------

def _graded_modules(s):
    """Tensors V(lam, m) (x) L_i up to dim 45, twisted covers, duals."""
    v12l2 = build_tensor(build_generalized_verma(s, Fraction(1), 2),
                         build_simple(s, 2))
    cover = build_projective_cover(s, 1, 1, twist=1)
    return {
        "V(1,2)xL2": v12l2,
        "V(0,1)xL1": build_tensor(build_generalized_verma(s, Fraction(0), 1),
                                  build_simple(s, 1)),
        "P(1,1)xC(1)": cover,
        "P(0,2)xC(-1)": build_projective_cover(s, 0, 2, twist=-1),
        "dual V(1,2)xL2": build_dual(v12l2),
        "dual P(1,1)xC(1)": build_dual(cover),
    }


GRADED = ["V(1,2)xL2", "V(0,1)xL1", "P(1,1)xC(1)", "P(0,2)xC(-1)",
          "dual V(1,2)xL2", "dual P(1,1)xC(1)"]

@pytest.fixture(scope="module")
def graded_by_ell(s5, s8):
    return {5: _graded_modules(s5), 8: _graded_modules(s8)}


@pytest.fixture(params=GRADED)
def graded(request, session, graded_by_ell):
    return graded_by_ell[session.ell][request.param]


def _ref_degree(mod, vec, w):
    s = mod.session
    shift = s.from_rational(w)
    deg = -1
    while any(not x.is_zero() for x in vec):
        deg += 1
        nxt = mod.matH.apply(vec)
        vec = [a - shift * b for a, b in zip(nxt, vec)]
    return deg


def _ref_highest_weight(mod):
    """Full-dimension ker E, split by weight, echelonized per weight."""
    s = mod.session
    perw = {}
    for v in nullspace(mod.matE.to_dense(), mod.dim, s.zero, s.one):
        for w, comp in weight_split(mod, v).items():
            perw.setdefault(w, []).append(comp)
    out = []
    for w in sorted(perw, reverse=True):
        for row in rref(perw[w], s.zero)[0]:
            out.append((row, w, _ref_degree(mod, row, w)))
    return out


def _ref_generated(mod, seeds):
    """Dense saturation: echelonize, apply E, F, H, repeat until stable."""
    z = mod.session.zero
    basis = rref([c for v in seeds for c in weight_split(mod, v).values()],
                 z)[0]
    while True:
        imgs = [m.apply(b) for b in basis
                for m in (mod.matE, mod.matF, mod.matH)]
        new = rref(basis + [c for v in imgs
                            for c in weight_split(mod, v).values()], z)[0]
        if len(new) == len(basis):
            return new
        basis = new


def _ref_socle(mod):
    """(socle vectors, counts): full-dimension kernels of E and H - w on
    the columns of block w, then of F^{dim L(w)} with its full matrix
    power, the vectors as combinations of the first kernel's."""
    s = mod.session
    vecs = []
    counts = {}
    for w, idx in mod.weight_blocks().items():
        shift = s.from_rational(w)
        rows = [[mod.matE.get(i, j) for j in idx] for i in range(mod.dim)]
        rows += [[mod.matH.get(i, j) - (shift if i == j else s.zero)
                  for j in idx] for i in range(mod.dim)]
        ker = nullspace(rows, len(idx), s.zero, s.one)
        if not ker:
            continue
        fc = mod.matF.matpow(simple_dim(s, w))
        base = []
        for v in ker:
            vec = [s.zero] * mod.dim
            for x, j in zip(v, idx):
                vec[j] = x
            base.append(vec)
        full = [fc.apply(vec) for vec in base]
        sol = nullspace([[f[i] for f in full] for i in range(mod.dim)],
                        len(full), s.zero, s.one)
        for coeffs in sol:
            vecs.append([sum((c * b[i] for c, b in zip(coeffs, base)),
                             s.zero) for i in range(mod.dim)])
        if sol:
            counts[w] = len(sol)
    return vecs, counts


def _ref_label_degrees(mod):
    """Degree of each basis vector, by the dense H walk."""
    s = mod.session
    out = []
    for i, lab in enumerate(mod.labels):
        e = [s.zero] * mod.dim
        e[i] = s.one
        out.append(_ref_degree(mod, e, lab.weight))
    return out


def _seeds(mod):
    s = mod.session
    last = [s.zero] * mod.dim
    last[-1] = s.one
    mixed = [s.zero] * mod.dim
    mixed[0] = s.one
    mixed[mod.dim // 2] = s.from_rational(3)
    return [[last], [mixed], [u for u, _, _ in _ref_highest_weight(mod)[:2]]]


def test_graded_highest_weight_vectors_match_dense(graded):
    assert highest_weight_vectors(graded) == _ref_highest_weight(graded)


def test_graded_socle_counts_match_dense(graded):
    """socle_counts, and the socle its seeds generate, equal the dense
    two-kernel reference."""
    vecs, counts = _ref_socle(graded)
    assert socle_counts(graded) == counts
    seeds = structure._socle_seeds(graded)[0]
    assert structure._generated(graded, seeds).rows == \
        _ref_generated(graded, vecs)


def test_graded_submodules_and_quotients_match_dense(graded):
    mod = graded
    for seeds in _seeds(mod):
        sub = submodule_generated(mod, seeds)
        ref = _ref_generated(mod, seeds)
        assert sub.rows == ref
        pivots = sub.pivots
        inner = submodule_to_module(sub)
        assert [lab.weight for lab in inner.labels] == \
            [mod.labels[p].weight for p in pivots]
        assert [lab.degree for lab in inner.labels] == \
            _ref_label_degrees(inner)
        for g in ("E", "F", "H"):
            mat = mod.generator_matrix(g)
            cols = [mat.apply(row) for row in ref]
            for img in cols:
                assert all(x.is_zero() for x in reduce_row(img, ref, pivots))
            want = [[img[p] for img in cols] for p in pivots]
            assert inner.generator_matrix(g).to_dense() == want
        if sub.dim == mod.dim:
            continue
        quot = quotient_module(mod, sub)
        coords = [j for j in range(mod.dim) if j not in set(pivots)]
        assert [lab.weight for lab in quot.labels] == \
            [mod.labels[j].weight for j in coords]
        assert [lab.degree for lab in quot.labels] == \
            _ref_label_degrees(quot)
        assert quot.max_degree == max(_ref_label_degrees(quot))
        for g in ("E", "F", "H"):
            dense = mod.generator_matrix(g).to_dense()
            cols = [reduce_row([row[j] for row in dense], ref, pivots)
                    for j in coords]
            want = [[c[i] for c in cols] for i in coords]
            assert quot.generator_matrix(g).to_dense() == want
        assert verify_relations(quot)["status"] == "pass"


def test_ungraded_module_rejected(s5):
    mod = build_tensor(build_simple(s5, 1), build_one_dim(s5, 0))
    matE = mod.matE.copy()
    matE.rows[0][0] = s5.one  # E maps weight 1 to weight 1
    bad = ModuleRep(s5, mod.labels, matE, mod.matF.copy(),
                    mod.matH.copy(), mod.max_degree, name=mod.name)
    with pytest.raises(ModuleInvalidError, match=r"E entry \(0,0\)"):
        highest_weight_vectors(bad)
    with pytest.raises(ModuleInvalidError):
        jordan_holder(bad)


# SHA-256 of the JSON of the certificates of P(1,1) x C(1), as the dense
# implementation wrote them
CERT_SHA256 = {
    (5, "standard"):
        "98976ee34ecb4c1fc31c221fd7b1fb7922bd22c830a5f831bf290db6afcedb6f",
    (5, "costandard"):
        "6056003228f82bbede8fb12e7e4f6036f5a03863b6959f300f0622e2b310b39a",
    (8, "standard"):
        "337994c8ede591c95a05203d8d76368a03d94689ab27a74b1424df494e0f0ebe",
    (8, "costandard"):
        "3457ffbc23b88cede6358240826d9fa7628a2a0f9b1bd3292073970e027ae2ff",
}


@pytest.mark.parametrize("kind", ["standard", "costandard"])
def test_cover_certificate_bytes_unchanged(session, kind):
    p = build_projective_cover(session, 1, 1, twist=1)
    extract = (extract_standard_filtration if kind == "standard"
               else extract_costandard_filtration)
    data = json.dumps(extract(p, 1).to_json(), sort_keys=True)
    digest = hashlib.sha256(data.encode()).hexdigest()
    assert digest == CERT_SHA256[(session.ell, kind)]


# ---------------------------------------------------------------------
# the sparse equivariance check against dense products
# ---------------------------------------------------------------------

def _dense_equivariance(g, a, b):
    """Per generator X, whether g X_a - X_b g vanishes, from full dense
    products."""
    return {x: (g @ a.generator_matrix(x)
                - b.generator_matrix(x) @ g).is_zero()
            for x in ("E", "F", "H")}


def _chain_map(mod, lam, deg):
    """The canonical map V(lam, deg) -> mod on its first highest-weight
    vector of weight lam and degree deg."""
    u = [v for v, w, d in highest_weight_vectors(mod)
         if w == lam and d == deg][0]
    return _verma_map(mod, _sparse(u), lam, deg)


def _keep_columns(s, dim, keep):
    """The map of a dim-dimensional module to itself that keeps the basis
    vectors in keep and sends the others to zero."""
    g = SMat(s, dim, dim)
    for j in keep:
        g.rows[j][j] = s.one
    return g


def _one_entry_changed(g):
    i = min(i for i, row in enumerate(g.rows) if row)
    j = min(g.rows[i])
    out = g.copy()
    out.rows[i][j] = out.rows[i][j] + g.session.one
    if out.rows[i][j].is_zero():
        del out.rows[i][j]
    return out


def _one_column_zeroed(g):
    j = max(j for row in g.rows for j in row)
    out = g.copy()
    for row in out.rows:
        row.pop(j, None)
    return out


def _equivariance_cases(s, graded_mods):
    """(name, g, a, b) with g : a -> b: intertwiners found by iso_test,
    canonical Verma chain maps, and copies of them with one entry changed
    or one column zeroed."""
    li = build_simple(s, 1)
    tw = build_tensor(build_tensor(li, build_one_dim(s, 1)),
                      build_one_dim(s, -1))
    cover = graded_mods["P(1,1)xC(1)"]
    dual = build_dual(cover)
    top = max(cover.weight_blocks())
    v10 = build_generalized_verma(s, Fraction(1), 0)
    v01 = build_generalized_verma(s, Fraction(0), 1)
    maps = [
        ("iso twist", iso_test(tw, li), tw, li),
        ("iso self-dual", iso_test(dual, cover), dual, cover),
        ("chain into cover", _chain_map(cover, top, 1),
         build_generalized_verma(s, top, 1), cover),
        ("chain V(1,0)", _chain_map(v10, Fraction(1), 0), v10, v10),
        ("chain V(0,1)", _chain_map(v01, Fraction(0), 1), v01, v01),
    ]
    cases = list(maps)
    for name, g, a, b in maps:
        cases.append((name + ", entry changed", _one_entry_changed(g), a, b))
        cases.append((name + ", column zeroed", _one_column_zeroed(g), a, b))
    return cases


def test_intertwiner_ok_matches_dense_products(session, graded_by_ell):
    cases = _equivariance_cases(session, graded_by_ell[session.ell])
    verdicts = {}
    for name, g, a, b in cases:
        assert g is not None, name
        dense = _dense_equivariance(g, a, b)
        verdicts[name] = _intertwiner_ok(g, a, b)
        assert verdicts[name] == all(dense.values()), (name, dense)
    for name in ("iso twist", "iso self-dual", "chain into cover",
                 "chain V(1,0)", "chain V(0,1)"):
        assert verdicts[name], name
    assert not verdicts["iso self-dual, entry changed"]
    assert not verdicts["chain into cover, column zeroed"]


def test_intertwiner_ok_checks_each_generator(session):
    """V(1, 0) is atypical: F^2 v spans a submodule and E F^2 v = 0.
    Keeping v and F v and killing the rest commutes with E and H but not
    with F; on the dual, where v and F v span the submodule, it commutes
    with F and H but not with E."""
    v = build_generalized_verma(session, Fraction(1), 0)
    g = _keep_columns(session, v.dim, [0, 1])
    assert _dense_equivariance(g, v, v) == {"E": True, "F": False, "H": True}
    assert not _intertwiner_ok(g, v, v)
    d = build_dual(v)
    assert _dense_equivariance(g, d, d) == {"E": False, "F": True, "H": True}
    assert not _intertwiner_ok(g, d, d)


def test_intertwiner_ok_rejects_wrong_shape(session):
    v = build_generalized_verma(session, Fraction(1), 0)
    ident = SMat.identity(session, v.dim)
    assert _intertwiner_ok(ident, v, v)
    wide = SMat(session, v.dim, v.dim + 1, [dict(r) for r in ident.rows])
    assert not _intertwiner_ok(wide, v, v)
    assert not _intertwiner_ok(ident, v, build_simple(session, 1))


@pytest.mark.parametrize("shape", ["extra column", "extra row"])
def test_splitting_section_rejects_misshapen_f(session, shape):
    lam = Fraction(1, 2) if session.ell % 2 == 0 else Fraction(3, 2)
    m = 1
    big = build_tensor(build_generalized_verma(session, lam, m),
                       build_simple(session, 0))
    f, top = standard_top_surjection(big, m)
    rows = [dict(r) for r in f.rows]
    if shape == "extra column":
        bad = SMat(session, f.nrows, f.ncols + 1, rows)
    else:
        bad = SMat(session, f.nrows + 1, f.ncols, rows + [{}])
    with pytest.raises(RejectedInputError):
        verma_splitting_section(big, bad, top, m)


# ---------------------------------------------------------------------
# standard_top_surjection against a full-dimension inverse
# ---------------------------------------------------------------------

def _ref_top_surjection(mod, deg):
    """standard_top_surjection with the highest-weight vector taken from
    every weight and the chain map inverted by one full invert_dense."""
    s = mod.session
    cert = extract_standard_filtration(mod, deg)
    lam = cert.claims[-1][1]
    quot, push = mod, dict
    if len(cert.chain) > 1:
        quot, qmap = quotient_with_map(mod, cert.chain[-2])
        push = qmap.push
    g = _chain_map(quot, lam, deg)
    ginv = invert_dense(g.to_dense(), s.zero, s.one)
    f = SMat(s, quot.dim, mod.dim)
    for col in range(mod.dim):
        pushed = push({col: s.one})
        for i in range(quot.dim):
            acc = s.zero
            for al, x in pushed.items():
                acc = acc + ginv[i][al] * x
            if not acc.is_zero():
                f.rows[i][col] = acc
    return f, lam


@pytest.mark.parametrize("name,deg", [("V(0,1)xL1", 1), ("P(1,1)xC(1)", 1),
                                      ("P(0,2)xC(-1)", 2)])
def test_top_surjection_matches_full_inverse(session, graded_by_ell, name,
                                             deg):
    mod = graded_by_ell[session.ell][name]
    f, lam = standard_top_surjection(mod, deg)
    ref_f, ref_lam = _ref_top_surjection(mod, deg)
    assert lam == ref_lam
    assert f == ref_f
    assert not f.is_zero()


# ---------------------------------------------------------------------
# the nilpotent part N = H - w, walked once per module
# ---------------------------------------------------------------------

def _ref_chains(mod):
    """chains[i] read off SMat.matpow: the nonzero rows i of N, N^2, ...
    for N = H - diag(w_i), the label weights w_i."""
    s = mod.session
    nil = mod.matH.copy()
    for i, lab in enumerate(mod.labels):
        nil.add_to(i, i, -s.from_rational(lab.weight))
    powers = []
    while not powers or not powers[-1].is_zero():
        powers.append(nil.matpow(len(powers) + 1))
    return [[p.rows[i] for p in powers if p.rows[i]] for i in range(mod.dim)]


def _chain_modules(s):
    """Vermas of degree 0 to 2, covers, duals, tensors and subquotients
    of V(1, 2): S1 and S2 are generated by F^2 v^0 and F^2 v^2 (basis
    indices 6 and 8), the quotient by S1 and S2 itself have degree 2."""
    v = [build_generalized_verma(s, Fraction(1), m) for m in range(3)]
    low = structure._generated(v[2], [{6: s.one}])
    up = structure._generated(v[2], [{8: s.one}])
    cover = build_projective_cover(s, 0, 1)
    mods = {"V(1,%d)" % m: v[m] for m in range(3)}
    mods.update({
        "V(3/2,2)": build_generalized_verma(s, Fraction(3, 2), 2),
        "P(0,1)": cover,
        "P(1,2)xC(1)": build_projective_cover(s, 1, 2, twist=1),
        "dual V(1,2)": build_dual(v[2]),
        "dual P(0,1)": build_dual(cover),
        "V(1,1)xL1": build_tensor(v[1], build_simple(s, 1)),
        "L1xV(1,2)": build_tensor(build_simple(s, 1), v[2]),
        "V(1,2)/S1": quotient_module(v[2], low),
        "V(1,2)/<v^0>": quotient_module(
            v[2], structure._generated(v[2], [{0: s.one}])),
        "S2": submodule_to_module(up),
        "S2/S1": structure._subquotient(v[2], low, up)[0],
    })
    return mods


CHAIN_MODULES = ["V(1,0)", "V(1,1)", "V(1,2)", "V(3/2,2)", "P(0,1)",
                 "P(1,2)xC(1)", "dual V(1,2)", "dual P(0,1)", "V(1,1)xL1",
                 "L1xV(1,2)", "V(1,2)/S1", "V(1,2)/<v^0>", "S2", "S2/S1"]
# the largest label degree of each subquotient
SUBQUOTIENT_DEGREES = {"V(1,2)/S1": 2, "V(1,2)/<v^0>": 1, "S2": 2,
                       "S2/S1": 1}


@pytest.fixture(scope="module")
def chain_modules_by_ell(s5, s8):
    return {5: _chain_modules(s5), 8: _chain_modules(s8)}


@pytest.mark.parametrize("name", CHAIN_MODULES)
def test_nilpotent_chains_match_matrix_powers(session, chain_modules_by_ell,
                                              name):
    """The cached chains are the rows of the powers of N = H - diag(w),
    read-only, and the label degrees of a subquotient are read off
    them."""
    mod = chain_modules_by_ell[session.ell][name]
    chains = mod.nilpotent_chains()
    assert [list(chain) for chain in chains] == _ref_chains(mod)
    assert type(chains) is tuple
    assert all(type(chain) is tuple and all(
        type(row) is FrozenRow for row in chain) for chain in chains)
    if name in SUBQUOTIENT_DEGREES:
        degrees = [lab.degree for lab in mod.labels]
        assert degrees == _ref_label_degrees(mod)
        assert max(degrees) == SUBQUOTIENT_DEGREES[name]
        assert verify_relations(mod)["status"] == "pass"


def test_unit_vector_columns_make_no_cyclotomic_product(session,
                                                         monkeypatch):
    """Applying a Verma's F columns to a unit vector multiplies every
    column entry by the session's unit object, and no such product
    reaches Cyc.__mul__."""
    from uqwb.cyclotomic import Cyc
    from uqwb.linalg import _apply

    real = Cyc.__mul__
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)
    for m in (0, 1):
        mod = build_generalized_verma(session, Fraction(1), m)
        cols = mod.columns("F")
        monkeypatch.setattr(Cyc, "__mul__", counted)
        images = [_apply(cols, {j: session.one}) for j in range(mod.dim)]
        monkeypatch.setattr(Cyc, "__mul__", real)
        assert calls == []
        assert images == [dict(col) for col in cols]
        assert any(images)


def test_nilpotent_part_walked_once(session, monkeypatch):
    """A subquotient's N is walked once, when it is built: its K, its
    relation check, its weight decomposition and its socle read the
    chains cached then.  A module built directly walks N at its first
    relation check and not at the second."""
    mod = build_generalized_verma(session, Fraction(1), 2)
    low = structure._generated(mod, [{0: session.one}])
    walk = repmod._nilpotent_chains
    calls = []

    def counted(*args):
        calls.append(args)
        return walk(*args)
    monkeypatch.setattr(repmod, "_nilpotent_chains", counted)
    monkeypatch.setattr(structure, "_nilpotent_chains", counted)
    quot = quotient_module(mod, low)
    assert len(calls) == 1
    quot.K
    assert verify_relations(quot)["status"] == "pass"
    assert [deg for _, deg, _ in weight_decomposition(quot)] == \
        [1] * session.r
    socle_counts(quot)
    assert len(calls) == 1
    fresh = ModuleRep(session, mod.labels, mod.matE.copy(),
                      mod.matF.copy(), mod.matH.copy(), mod.max_degree)
    verify_relations(fresh)
    assert len(calls) == 2
    verify_relations(fresh)
    assert len(calls) == 2
