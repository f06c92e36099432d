"""Module constructors, relation verification, K-derivation, duals,
tensors, and serialization round-trips."""

import hashlib
import json
import operator
import re
from fractions import Fraction

import pytest

from uqwb import (
    ModeUnsupportedError,
    ModuleInvalidError,
    RejectedInputError,
    Session,
    build_dual,
    build_generalized_verma,
    build_one_dim,
    build_projective_cover,
    build_simple,
    build_tensor,
    derive_K,
    direct_sum,
    dump_module,
    load_module,
    verify_relations,
    weight_decomposition,
)
from uqwb.linalg import SMat
from uqwb.repmod import ModuleRep, Report, WeightLabel
from uqwb.structure import _transpose_dual


def assert_pass(mod):
    rep = verify_relations(mod)
    bad = [it for it in rep["items"] if not it["ok"]]
    assert rep["status"] == "pass", bad


# ---------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------

def test_one_dim_dimensions_and_relations(session):
    for k in (-1, 0, 1, 2):
        mod = build_one_dim(session, k)
        assert mod.dim == 1
        assert mod.labels[0].weight == Fraction(k * session.ell, 2)
        assert_pass(mod)


def test_one_dim_k_value_ell5():
    """K acts by q^{k*ell/2}; at ell=5, k=2 that is q^5 = 1."""
    s = Session(5)
    mod = build_one_dim(s, 2)
    assert mod.K.get(0, 0) == s.one


def test_simple_dimensions_and_relations(session):
    for i in range(0, session.r):
        mod = build_simple(session, i)
        assert mod.dim == i + 1
        assert_pass(mod)
    with pytest.raises(RejectedInputError):
        build_simple(session, session.r)


def test_verma_dimension_law(session):
    for m in (0, 1, 2):
        for lam in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-2)):
            mod = build_generalized_verma(session, lam, m)
            assert mod.dim == (m + 1) * session.r
            assert_pass(mod)


def test_weight_decomposition_consistency(session):
    mod = build_generalized_verma(session, Fraction(1), 2)
    decomp = weight_decomposition(mod)
    assert sum(len(idx) for _, _, idx in decomp) == mod.dim
    for w, deg, idx in decomp:
        assert deg == 2
        assert len(idx) == 3
    weights = [w for w, _, _ in decomp]
    assert weights == sorted(weights, reverse=True)
    assert weights[0] == Fraction(1)


def test_weight_decomposition_refuses_a_degree_above_the_declared_max(
        session):
    """A dump of V(1, 2) relabelled to max_degree 1 loads (every label
    degree is at most 1), but its H has nilpotency degree 2."""
    data = dump_module(build_generalized_verma(session, Fraction(1), 2))
    data["max_degree"] = 1
    for lab in data["labels"]:
        lab["degree"] = min(lab["degree"], 1)
    mod = load_module(data, session)
    with pytest.raises(ModuleInvalidError, match=re.escape(
            "weight 1 has nilpotency degree 2 > declared max 1")):
        weight_decomposition(mod)


def test_non_nilpotent_h_block_is_reported(session):
    """On a weight-1 block with H - 1 = [[0,1],[1,0]], whose square is
    I, the H check fails with the walk's witness and K is refused."""
    s = session
    labels = [WeightLabel(Fraction(1), 0, "a"),
              WeightLabel(Fraction(1), 1, "b")]
    matH = SMat(s, 2, 2)
    for i in range(2):
        for j in range(2):
            matH.set(i, j, s.one)
    mod = ModuleRep(s, labels, SMat(s, 2, 2), SMat(s, 2, 2), matH, 1,
                    name="swap")
    witness = "matH - 1*I is not nilpotent on its weight block"
    assert verify_relations(mod)["items"] == [{
        "check": "H weight-block structure", "ok": False,
        "witness": witness}]
    with pytest.raises(ModuleInvalidError, match=re.escape(witness)):
        mod.K


# ---------------------------------------------------------------------
# K derivation
# ---------------------------------------------------------------------

def independent_k(mod):
    """Blockwise q^w * exp(tau * (H - w)), built directly in the test."""
    s = mod.session
    K = SMat(s, mod.dim, mod.dim)
    blocks = mod.weight_blocks()
    for w, idx in blocks.items():
        n = len(idx)
        pos = {g: p for p, g in enumerate(idx)}
        nil = SMat(s, n, n)
        for j in idx:
            for i, v in mod.matH.rows[j].items():
                nil.rows[pos[j]][pos[i]] = v
            nil.add_to(pos[j], pos[j], -s.from_rational(w))
        qw = s.from_cyc(s.q_power(w))
        fact = Fraction(1)
        power = SMat.identity(s, n)
        p = 0
        while True:
            coeff = s.tau_power(p, Fraction(1) / fact) if p else s.one
            for a, row in enumerate(power.rows):
                for b, v in row.items():
                    K.add_to(idx[a], idx[b], qw * coeff * v)
            power = power @ nil
            if power.is_zero():
                break
            p += 1
            fact *= p
    return K


@pytest.mark.parametrize("m", [0, 1, 2])
def test_derive_k_is_blockwise_exponential(session, m):
    mod = build_generalized_verma(session, Fraction(1), m)
    K, Kinv = derive_K(mod)
    assert K == independent_k(mod)
    assert K @ Kinv == SMat.identity(session, mod.dim)


def test_k_conjugates_e_and_f(session):
    mod = build_generalized_verma(session, Fraction(1, 2), 1)
    q2 = session.from_cyc(session.q_power(2))
    assert mod.K @ mod.matE @ mod.Kinv == mod.matE.scale(q2)
    assert (mod.K @ mod.matF @ mod.Kinv
            == mod.matF.scale(session.from_cyc(session.q_power(-2))))


def test_paper_literal_mode_small_degrees_agree():
    """Up to degree 1 the two coefficient modes coincide."""
    se = Session(5)
    sp = Session(5, mode="paper-literal")
    for m in (0, 1):
        a = build_generalized_verma(se, Fraction(1), m)
        b = build_generalized_verma(sp, Fraction(1), m)
        assert dump_module(a)["E"] == dump_module(b)["E"]
        assert_pass(b)


def test_paper_literal_mode_degree_two_diagnosed():
    sp = Session(5, mode="paper-literal")
    with pytest.raises(ModeUnsupportedError, match=re.escape(
            "nilpotency index 3 > 2 (weight 1)")):
        build_generalized_verma(sp, Fraction(1), 2)


# ---------------------------------------------------------------------
# duals and tensors
# ---------------------------------------------------------------------

def test_dual_preserves_weight_dimensions(session):
    mod = build_generalized_verma(session, Fraction(2), 1)
    dual = build_dual(mod)
    assert_pass(dual)
    assert dual.weight_blocks().keys() == mod.weight_blocks().keys()
    for w, idx in mod.weight_blocks().items():
        assert len(dual.weight_blocks()[w]) == len(idx)


def test_double_dual_matrices(session):
    """dual(dual(m)) has the same H and weight data as m (the module is
    isomorphic; matrix-level agreement of H is automatic)."""
    mod = build_generalized_verma(session, Fraction(1), 1)
    dd = build_dual(build_dual(mod))
    assert dd.matH == mod.matH
    assert_pass(dd)


def test_tensor_dimension_and_relations(session):
    a = build_generalized_verma(session, Fraction(1), 1)
    b = build_simple(session, 1)
    big = build_tensor(a, b)
    assert big.dim == a.dim * b.dim
    assert_pass(big)


def test_tensor_associativity(session):
    a = build_simple(session, 1)
    b = build_one_dim(session, 1)
    c = build_generalized_verma(session, Fraction(0), 1)
    left = build_tensor(build_tensor(a, b), c)
    right = build_tensor(a, build_tensor(b, c))
    for g in ("E", "F", "H"):
        assert left.generator_matrix(g) == right.generator_matrix(g)


def test_direct_sum(session):
    a = build_simple(session, 1)
    b = build_simple(session, 0)
    mod = direct_sum(a, b)
    assert mod.dim == a.dim + b.dim
    assert_pass(mod)


def test_tensor_and_direct_sum_refuse_modules_of_two_sessions():
    """L(1) at ell 5 and at ell 8 live over different fields: combining
    them is a rejected input, also under python -O."""
    a = build_simple(Session(5), 1)
    b = build_simple(Session(8), 1)
    for build in (build_tensor, direct_sum):
        with pytest.raises(RejectedInputError, match="two sessions"):
            build(a, b)


def test_dual_annihilator_is_submodule(session):
    """The annihilator of a submodule is a submodule of complementary
    dimension in the dual: exactness of duality at desk scale."""
    from uqwb import submodule_generated
    from uqwb.structure import annihilator_basis
    mod = build_generalized_verma(session, Fraction(1), 1)
    z = session.zero
    seed = [z] * mod.dim
    seed[mod.dim - 1] = session.one  # lowest basis vector
    sub = submodule_generated(mod, [seed])
    assert 0 < sub.dim < mod.dim
    dual = build_dual(mod)
    cosub = annihilator_basis(dual, sub.rows)
    assert cosub.dim == mod.dim - sub.dim
    assert cosub.is_closed()


# ---------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------

def test_dump_load_round_trip(session, tmp_path):
    mod = build_generalized_verma(session, Fraction(1, 2), 1)
    data = dump_module(mod)
    text = json.dumps(data)
    back = load_module(json.loads(text))
    assert back.dim == mod.dim
    assert back.matE == mod.matE
    assert back.matF == mod.matF
    assert back.matH == mod.matH
    assert [lab.weight for lab in back.labels] \
        == [lab.weight for lab in mod.labels]
    assert_pass(back)


def test_load_rejects_mismatched_labels(session):
    mod = build_simple(session, 1)
    data = dump_module(mod)
    data["labels"] = data["labels"][:-1]
    with pytest.raises(RejectedInputError):
        load_module(data)


def test_no_stored_zeros_and_exact_round_trip(session):
    """No constructor stores an explicit zero, so every generator matrix
    equals the one its dump reloads to.  A stored zero (a weight-0
    diagonal entry of H) would make the two unequal and defeat the
    equality shortcut of iso_test."""
    r = session.r
    simples = [build_simple(session, i) for i in range(r)]
    vermas = [build_generalized_verma(session, Fraction(lam), m)
              for lam in (0, 2, Fraction(1, 2)) for m in (0, 1)]
    covers = [build_projective_cover(session, i, m, k)
              for i in range(r - 1) for m in (0, 1) for k in (0, 1)]
    mods = (simples + vermas + covers
            + [build_one_dim(session, k) for k in (-2, 0, 1)]
            + [build_dual(x) for x in (simples[2], vermas[0], covers[0])]
            + [build_tensor(simples[2], vermas[1]),
               build_tensor(simples[1], simples[1]),
               direct_sum(simples[2], vermas[0]),
               direct_sum(covers[0], simples[0])])
    for mod in mods:
        back = load_module(dump_module(mod), session)
        for g in ("E", "F", "H"):
            mat = mod.generator_matrix(g)
            assert all(not v.is_zero() for row in mat.rows
                       for v in row.values()), (mod.name, g)
            assert mat == back.generator_matrix(g), (mod.name, g)


# SHA-256 of json.dumps(dump_module(V(lam, m)), sort_keys=True); any change
# to an entry of the generalized Verma, K on its chain included, moves it
VERMA_DUMP_SHA256 = {
    (5, "1", 0):
        "a8458e36b74bdfff4747e497500b1e25f8b84302af6beaf92f9b643bc0e01001",
    (5, "1", 1):
        "43380ea9206f00853ed8a24247558f148d0c99e48fb5e78e44e428f05beb33b3",
    (5, "1", 2):
        "f1a715891df7c52c1c234201a6035641c5adfb86a1f1aefce4c97000a38415be",
    (5, "-3/2", 0):
        "ff09991023e1702b50a4ae63f5c979d135939c4d8607cfae468c9abd3923b422",
    (5, "-3/2", 1):
        "90c2e0ad21711cd8922f4bc1156bb6074aac954c238b73831f11f4d7ef8abfec",
    (5, "-3/2", 2):
        "ef1692d2b0621b4e8535c02a104852435daaaa3a181c280324ebe53391c5cd4f",
    (5, "7", 0):
        "cdbfba007e1045fefb9ecf4359dbe6aecd883ca5f8975f32f7e9acd2a28a6a55",
    (5, "7", 1):
        "1c928ba84dd5683d24ef193b11f24fde94f80a80e55ab9657c7d1b3ca075fac8",
    (5, "7", 2):
        "84c02c8b86d189fd0fbbca47057fe85f9e6cfa867aae822624fa27b95d27020b",
    (8, "1", 0):
        "5a23b3f69956107099e21318b07054a198143d7c162494d049f975bcd9460d50",
    (8, "1", 1):
        "9875db070e4c6925ac7ddbcdedc17280241ba0380246172f41a3d5eeadd21aed",
    (8, "1", 2):
        "4298eb18af37ff1caa663c4a295a2b369116a4b6be35ce2c7486614b52ca9941",
    (8, "-3/2", 0):
        "b39065b2eb6c3fd8d29cadfe4b65c5e22367b505f7adc468dc4fc81a6f581fba",
    (8, "-3/2", 1):
        "db979a74409848749c5451bc1151336b3f310b13b027539aca44f8153c74db92",
    (8, "-3/2", 2):
        "7fc9560604ec0ddd749030a66278a3db33cb1adefc59ad2406e9c49576933942",
    (8, "7", 0):
        "b61515230bfc741a787d15833e5f7b07a9f143fadbdb7d3b91b7b2177565bb77",
    (8, "7", 1):
        "d7523036fd0f43df5184b34047bfbf6fdca48571312408b194a7cc39ef28a432",
    (8, "7", 2):
        "4ce1a3a85c9b79d10ae7a76753b90dbea2040b009241b55e13b011b5dea39fae",
}


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("lam", ["1", "-3/2", "7"])
def test_verma_dump_digest(session, lam, m):
    mod = build_generalized_verma(session, Fraction(lam), m)
    text = json.dumps(dump_module(mod), sort_keys=True)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == VERMA_DUMP_SHA256[(session.ell, lam, m)])


def _artifact_modules(session):
    """Covers (twist 0 and 1), their duals and tensors, as dumps carry
    them."""
    covers = [build_projective_cover(session, i, m, k)
              for i in (0, 1) for m in (0, 1) for k in (0, 1)]
    return (covers + [build_dual(p) for p in covers[:4]]
            + [build_tensor(build_generalized_verma(session, Fraction(1), 1),
                            build_simple(session, 1)),
               build_tensor(covers[2], build_simple(session, 1))])


def test_load_dump_round_trip_of_artifacts(session):
    for mod in _artifact_modules(session):
        data = dump_module(mod)
        for back in (load_module(data), load_module(data, session)):
            assert dump_module(back) == data, mod.name
            for g in ("E", "F", "H"):
                assert back.generator_matrix(g) == mod.generator_matrix(g), \
                    (mod.name, g)


def test_load_parses_and_dump_formats_each_distinct_entry_once(
        session, monkeypatch):
    parsed, formatted = [], []
    real_parse, real_format = Session.parse_scalar, Session.format_scalar

    def parse(self, text):
        parsed.append(text)
        return real_parse(self, text)

    def fmt(self, x):
        formatted.append(x)
        return real_format(self, x)

    p = build_projective_cover(session, 1, 1, 1)
    data = dump_module(p)
    texts = {t for g in "EFH" for row in data[g] for t in row}
    monkeypatch.setattr(Session, "parse_scalar", parse)
    monkeypatch.setattr(Session, "format_scalar", fmt)
    back = load_module(data)
    assert sorted(parsed) == sorted(texts)
    assert dump_module(back) == data
    assert len(formatted) == len(texts)


def test_load_module_leaves_the_session_unchanged(session):
    s = Session(session.ell)
    before = {k: (type(v), len(v) if isinstance(v, dict) else None)
              for k, v in vars(s).items()}
    data = dump_module(build_projective_cover(session, 1, 1, 1))
    load_module(data, s)
    assert {k: (type(v), len(v) if isinstance(v, dict) else None)
            for k, v in vars(s).items()} == before


def test_load_rejects_a_dump_of_another_ell_or_n(session):
    data = dump_module(build_simple(session, 1))
    other = Session(13 - session.ell)
    with pytest.raises(RejectedInputError, match="ell"):
        load_module(data, other)
    with pytest.raises(RejectedInputError, match="N"):
        load_module(data, Session(session.ell, weight_denominator=4))
    missing = {k: v for k, v in data.items() if k != "session"}
    with pytest.raises(RejectedInputError, match="session"):
        load_module(missing, session)
    # the coefficient mode is not compared: re-checking a dump under the
    # other mode is a diagnostic
    literal = Session(session.ell, mode="paper-literal")
    assert load_module(data, literal).session is literal


# ---------------------------------------------------------------------
# verify_relations against whole-matrix differences
# ---------------------------------------------------------------------

RELATION_NAMES = ["K*Kinv = I", "K*E = q^2 E*K", "K*F = q^-2 F*K",
                  "[E,F] = (K-Kinv)/(q-q^-1)", "H*K = K*H", "[H,E] = 2E",
                  "[H,F] = -2F", "E^r = 0", "F^r = 0"]
# the two that hold for every pair derive_K returns
K_ALWAYS = {"K*Kinv = I", "H*K = K*H"}


def reference_relations(mod):
    """verify_relations as whole-matrix identities: each relation's
    difference LHS - RHS is formed as an SMat, and its witness is the
    first nonzero entry in row-major order."""
    s = mod.session
    rep = Report()

    def check(name, diff):
        w = None
        for i, row in enumerate(diff.rows):
            if row:
                j = min(row)
                w = "entry (%d,%d) = %s" % (i, j, s.format_scalar(row[j]))
                break
        rep.add(name, w is None, w)

    try:
        K, Kinv = mod.K, mod.Kinv
        rep.add("H weight-block structure", True)
    except ModuleInvalidError as e:
        rep.add("H weight-block structure", False, str(e))
        return rep.as_dict()
    E, F, H = mod.matE, mod.matF, mod.matH
    ident = SMat.identity(s, mod.dim)
    q2 = s.from_cyc(s.q_power(2))
    qm2 = s.from_cyc(s.q_power(-2))
    dqi = s.from_cyc((s.q_power(1) - s.q_power(-1)).inv())
    two = s.from_rational(2)
    check("K*Kinv = I", K @ Kinv - ident)
    check("K*E = q^2 E*K", K @ E - (E @ K).scale(q2))
    check("K*F = q^-2 F*K", K @ F - (F @ K).scale(qm2))
    check("[E,F] = (K-Kinv)/(q-q^-1)",
          E @ F - F @ E - (K - Kinv).scale(dqi))
    check("H*K = K*H", H @ K - K @ H)
    check("[H,E] = 2E", H @ E - E @ H - E.scale(two))
    check("[H,F] = -2F", H @ F - F @ H + F.scale(two))
    check("E^r = 0", E.matpow(s.r))
    check("F^r = 0", F.matpow(s.r))
    return rep.as_dict()


def _passing_modules(session):
    r = session.r
    vermas = [build_generalized_verma(session, Fraction(lam), m)
              for lam in (1, Fraction(-3, 2), 2 * r - 3) for m in (0, 1, 2)]
    simples = [build_simple(session, i) for i in range(r)]
    # the paper-literal mode, at degree at most 1
    literal = Session(session.ell, mode="paper-literal")
    lv = build_generalized_verma(literal, Fraction(1), 1)
    return (simples + vermas + [build_dual(v) for v in vermas[:3]]
            + _artifact_modules(session)
            + [lv, build_dual(lv), build_projective_cover(literal, 1, 1, 1)])


def test_verify_relations_matches_reference_on_passing_modules(session):
    for mod in _passing_modules(session):
        rep = verify_relations(mod)
        assert rep["status"] == "pass", mod.name
        assert [it["check"] for it in rep["items"]] \
            == ["H weight-block structure"] + RELATION_NAMES
        assert rep == reference_relations(mod), mod.name


def _with_entry(mod, g, i, j, value):
    """A new module on copies of mod's E, F and H, with entry (i, j) of
    generator g (E, F or H) set to value."""
    mats = {x: mod.generator_matrix(x).copy() for x in "EFH"}
    mats[g].set(i, j, value)
    return ModuleRep(mod.session, mod.labels, mats["E"], mats["F"],
                     mats["H"], mod.max_degree, name=mod.name)


def test_verify_relations_matches_reference_on_broken_modules(session):
    """One changed entry of E, F or H gives the same report, witnesses
    included, as the whole-matrix reference.  K*Kinv = I and H*K = K*H
    hold for every K derive_K returns, so they pass on every copy;
    together the copies fail the other seven relations."""
    s = session
    one, two = s.one, s.from_rational(2)
    bases = [build_simple(s, 2), build_generalized_verma(s, Fraction(1), 1),
             build_projective_cover(s, 1, 1, 1),
             build_dual(build_generalized_verma(s, Fraction(1, 2), 1)),
             build_tensor(build_simple(s, 1), build_simple(s, 1))]
    failed = set()
    n_copies = 0
    for mod in bases:
        last = mod.dim - 1
        copies = []
        for g in "EFH":
            mat = mod.generator_matrix(g)
            i, j = next((i, j) for i, row in enumerate(mat.rows)
                        for j in sorted(row))
            copies += [_with_entry(mod, g, i, j, mat.get(i, j) + one),
                       _with_entry(mod, g, last, last, two),
                       _with_entry(mod, g, 0, last, one)]
        for bad in copies:
            rep = verify_relations(bad)
            assert rep == reference_relations(bad), bad.name
            ok = {it["check"]: it["ok"] for it in rep["items"]}
            if ok["H weight-block structure"]:
                assert ok["K*Kinv = I"] and ok["H*K = K*H"], bad.name
            failed |= {c for c, passed in ok.items() if not passed}
            n_copies += 1
    assert n_copies == 45
    assert failed & K_ALWAYS == set()
    assert set(RELATION_NAMES) - K_ALWAYS <= failed, \
        set(RELATION_NAMES) - K_ALWAYS - failed


# ---------------------------------------------------------------------
# the four K relations decided from checked premises
# ---------------------------------------------------------------------

K_ITEMS = {"K*Kinv = I", "K*E = q^2 E*K", "K*F = q^-2 F*K", "H*K = K*H"}


def _fresh(mod):
    """A new module on copies of mod's E, F and H; K not derived yet."""
    return ModuleRep(mod.session, mod.labels, mod.matE.copy(),
                     mod.matF.copy(), mod.matH.copy(), mod.max_degree,
                     name=mod.name)


def _broken_bases(s):
    return [build_simple(s, 2), build_generalized_verma(s, Fraction(1), 1),
            build_projective_cover(s, 1, 1, 1),
            build_dual(build_generalized_verma(s, Fraction(1, 2), 1)),
            build_tensor(build_simple(s, 1), build_simple(s, 1))]


def _entries(mat, last):
    """Three (i, j, value) changes of mat, as the broken-module copies
    make them: its first nonzero entry plus one, (last, last) set to 2
    and (0, last) set to 1."""
    s = mat.session
    i, j = next((i, j) for i, row in enumerate(mat.rows) for j in sorted(row))
    return [(i, j, mat.get(i, j) + s.one), (last, last, s.from_rational(2)),
            (0, last, s.one)]


def _in_block_entry(mod):
    """An off-diagonal entry (i, j) of H inside a weight block, or None."""
    return next(((i, j) for i, row in enumerate(mod.matH.rows)
                 for j in sorted(row) if j != i), None)


def test_cached_k_does_not_hide_a_broken_h(s5):
    """Once K is cached, H cannot change under it: the write into H of a
    copy of L(2) after K was read raises, and a new module built from
    the changed matrices reports the broken H."""
    cached = _fresh(build_simple(s5, 2))
    cached.K
    with pytest.raises(TypeError):
        cached.matH.set(0, 1, s5.one)
    assert verify_relations(cached)["status"] == "pass"
    changed = _with_entry(cached, "H", 0, 1, s5.one)
    rep = verify_relations(changed)
    assert rep == reference_relations(changed)
    assert rep["items"] == [{
        "check": "H weight-block structure", "ok": False,
        "witness": "matH connects weight 2 to weight 0 (entry 0,1)"}]
    with pytest.raises(ModuleInvalidError):
        changed.K


def _premise_copies(mod):
    """(module, expected report) pairs for the changes a module could
    once take after its K was cached: K changed in place, _Kinv replaced
    by a changed copy, H changed in place (also inside a weight block,
    so that the blocks stay valid and only the series moves), or the
    first label's weight moved by 2.  Each write into a built module
    raises TypeError and leaves it as it was; a new module on the
    changed H or labels stands in for each H and label change."""
    last = mod.dim - 1
    out = []
    for i, j, v in _entries(mod.K, last):
        c = _fresh(mod)
        with pytest.raises(TypeError):
            c.K.set(i, j, v)
        out.append((c, reference_relations(c)))
    for i, j, v in _entries(mod.Kinv, last):
        c = _fresh(mod)
        kinv = c.Kinv.copy()
        kinv.set(i, j, v)
        with pytest.raises(TypeError):
            c._Kinv = kinv
        out.append((c, reference_relations(c)))
    changes = _entries(mod.matH, last)
    ij = _in_block_entry(mod)
    if ij is not None:
        i, j = ij
        changes.append((i, j, mod.matH.get(i, j) + mod.matH.get(i, j)))
    for i, j, v in changes:
        c = _fresh(mod)
        c.K
        with pytest.raises(TypeError):
            c.matH.set(i, j, v)
        changed = _with_entry(c, "H", i, j, v)
        out.append((changed, reference_relations(changed)))
    c = _fresh(mod)
    c.K
    moved = c.labels[0]._replace(weight=c.labels[0].weight + 2)
    with pytest.raises(TypeError):
        c.labels[0] = moved
    changed = ModuleRep(c.session, (moved,) + c.labels[1:],
                        c.matE.copy(), c.matF.copy(), c.matH.copy(),
                        c.max_degree, name=c.name)
    out.append((changed, reference_relations(changed)))
    return out


@pytest.mark.parametrize("mode", ["exponential", "paper-literal"])
def test_verify_relations_premise_route(session, mode):
    """A module whose K is cached refuses every write; its report, and
    that of a new module on each changed H or labels, is the
    whole-matrix reference's.  Together they fail K*E and K*F, and never
    K*Kinv = I or H*K = K*H.  In the paper-literal mode the bases stop
    at degree 1."""
    s = session if mode == "exponential" else Session(session.ell, mode=mode)
    failed = set()
    n_block = 0
    for mod in _broken_bases(s):
        n_block += _in_block_entry(mod) is not None
        for bad, want in _premise_copies(mod):
            rep = verify_relations(bad)
            assert rep == want, bad.name
            if rep["items"][0]["ok"]:
                assert (bad.K, bad.Kinv) == derive_K(bad), bad.name
            failed |= {it["check"] for it in rep["items"] if not it["ok"]}
    assert n_block >= 3
    assert failed & K_ITEMS == K_ITEMS - K_ALWAYS, failed


def _count_k_rows(monkeypatch, mod):
    """Count the _apply calls that build a row of one of the four K items
    (a product with K or Kinv on the right, or with a row of K or Kinv
    on the left) while verify_relations(mod) runs; return (count,
    report)."""
    import uqwb.repmod as repmod

    K, Kinv = mod.K.rows, mod.Kinv.rows
    real = repmod._apply
    n = [0]

    def counting(rows, vec):
        if (rows is K or rows is Kinv
                or any(vec is row for row in K + Kinv)):
            n[0] += 1
        return real(rows, vec)

    monkeypatch.setattr(repmod, "_apply", counting)
    rep = verify_relations(mod)
    monkeypatch.setattr(repmod, "_apply", real)
    return n[0], rep


def test_k_items_decided_once(session, monkeypatch):
    """On every passing module no row of the four K items is built, and
    derive_K runs once per module: not again on the next verify of the
    same unchanged module.  A write into the cached K raises and leaves
    the module passing, still with no K row built.  On a copy with a
    broken E, K*E and K*F are row-checked and their witnesses are the
    reference's."""
    import uqwb.repmod as repmod

    derived = []
    real = repmod.derive_K

    def counting(mod):
        derived.append(mod)
        return real(mod)

    mods = _passing_modules(session)
    cover = build_projective_cover(session, 1, 1, 1)
    tampered = _fresh(cover)
    with pytest.raises(TypeError):
        tampered.K.set(0, tampered.dim - 1, session.one)
    last = cover.dim - 1
    broken = _with_entry(cover, "E", last, last, session.from_rational(2))
    broken.K
    monkeypatch.setattr(repmod, "derive_K", counting)
    for mod in mods:
        fresh = _fresh(mod)
        rows, rep = _count_k_rows(monkeypatch, fresh)
        assert rep["status"] == "pass", mod.name
        assert (rows, derived) == (0, [fresh]), mod.name
        rows, again = _count_k_rows(monkeypatch, fresh)
        assert again == rep
        assert (rows, derived) == (0, [fresh]), mod.name
        del derived[:]

    rows, rep = _count_k_rows(monkeypatch, tampered)
    assert (rows, derived, rep["status"]) == (0, [], "pass")
    assert rep == reference_relations(tampered)

    rows, rep = _count_k_rows(monkeypatch, broken)
    assert rows > 0
    assert derived == []
    assert rep == reference_relations(broken)
    bad = {it["check"] for it in rep["items"] if not it["ok"]}
    assert bad & K_ITEMS, bad


# ---------------------------------------------------------------------
# [H,E], [H,F], E^r and F^r decided from checked premises; the right
# side of [E,F] from the powers of N = H - w
# ---------------------------------------------------------------------

def _degree_two_bases(s):
    """Modules with N^2 != 0 on some weight block, so that the
    coefficients of N^2 in K and in (K - Kinv)/(q - q^-1) are read."""
    return [build_generalized_verma(s, Fraction(1), 2),
            build_projective_cover(s, 1, 2),
            build_projective_cover(s, 1, 2, 1),
            build_dual(build_generalized_verma(s, Fraction(1, 2), 2))]


def _max_degree(mod):
    return max(deg for _, deg, _ in weight_decomposition(mod))


def test_verify_relations_matches_reference_on_degree_two_bases(session):
    """On bases with N^2 != 0, and on copies with one changed entry of
    E, F or H, the report is the whole-matrix reference's, witnesses
    included."""
    failed = set()
    for mod in _degree_two_bases(session):
        assert _max_degree(mod) == 2, mod.name
        rep = verify_relations(mod)
        assert rep["status"] == "pass", mod.name
        assert rep == reference_relations(mod), mod.name
        last = mod.dim - 1
        for g in "EFH":
            for i, j, v in _entries(mod.generator_matrix(g), last):
                bad = _with_entry(mod, g, i, j, v)
                rep = verify_relations(bad)
                assert rep == reference_relations(bad), (bad.name, g, i, j)
                failed |= {it["check"] for it in rep["items"]
                           if not it["ok"]}
    assert set(RELATION_NAMES) - K_ALWAYS <= failed, \
        set(RELATION_NAMES) - K_ALWAYS - failed


def _grading_copies(mod):
    """Copies with one E entry from weight w to w + 4, or one F entry
    from w to w - 4: E or F leaves the grading, H does not change."""
    weights = [lab.weight for lab in mod.labels]
    out = []
    for g, shift in (("E", 4), ("F", -4)):
        ij = next(((i, j) for i, wi in enumerate(weights)
                   for j, wj in enumerate(weights) if wi == wj + shift),
                  None)
        if ij is not None:
            out.append(_with_entry(mod, g, ij[0], ij[1], mod.session.one))
    return out


def _commuting_copies(mod):
    """Copies with one more H entry inside a weight block: E and F stay
    graded, and N = H - w changes, so NE = EN or NF = FN may fail."""
    ij = _in_block_entry(mod)
    if ij is None:
        return []
    i, j = ij
    s = mod.session
    return [_with_entry(mod, "H", i, j, mod.matH.get(i, j) + s.one),
            _with_entry(mod, "H", j, i, s.one)]


def _chain_module(s, g):
    """r + 1 basis vectors of weights 0, 2, ..., 2r with E (g = "E") or F
    (g = "F") the chain between neighbours and H diagonal: both
    gradings and [H,E] = 2E, [H,F] = -2F hold, but g^r != 0."""
    n = s.r + 1
    labels = [WeightLabel(Fraction(2 * k), 0, "c%d" % k) for k in range(n)]
    mats = {x: SMat(s, n, n) for x in "EFH"}
    for k in range(n):
        mats["H"].set(k, k, s.from_rational(2 * k))
        if k + 1 < n:
            if g == "E":
                mats["E"].set(k + 1, k, s.one)
            else:
                mats["F"].set(k, k + 1, s.one)
    return ModuleRep(s, labels, mats["E"], mats["F"], mats["H"], 0,
                     name="chain(%s)" % g)


@pytest.mark.parametrize("mode", ["exponential", "paper-literal"])
def test_verify_relations_premise_copies(session, mode):
    """Copies that break only the grading of E or F, copies that keep it
    but break NE = EN or NF = FN, and the E and F chains whose r-th
    power is not zero under [H,E] = 2E and [H,F] = -2F: each report is
    the whole-matrix reference's.  The paper-literal mode takes the
    bases of degree at most 1."""
    s = session if mode == "exponential" else Session(session.ell, mode=mode)
    bases = _broken_bases(s)
    if mode == "exponential":
        bases += _degree_two_bases(s)
    n_graded = n_commuting = 0
    failed = set()
    for mod in bases:
        for bad in _grading_copies(mod):
            with pytest.raises(ModuleInvalidError):
                bad.graded_blocks()
            rep = verify_relations(bad)
            assert rep == reference_relations(bad), bad.name
            n_graded += 1
        for bad in _commuting_copies(mod):
            try:
                bad.K
            except ModuleInvalidError:
                continue  # not nilpotent on the block: the H check fails
            except ModeUnsupportedError:
                continue  # N^2 != 0 in the paper-literal mode
            bad.graded_blocks()
            rep = verify_relations(bad)
            assert rep == reference_relations(bad), bad.name
            failed |= {it["check"] for it in rep["items"] if not it["ok"]}
            n_commuting += 1
    assert n_graded >= 8 and n_commuting >= 3, (n_graded, n_commuting)
    assert {"[H,E] = 2E", "[H,F] = -2F"} <= failed, failed
    for g in "EF":
        chain = _chain_module(s, g)
        rep = verify_relations(chain)
        assert rep == reference_relations(chain)
        ok = {it["check"]: it["ok"] for it in rep["items"]}
        assert ok["[H,E] = 2E"] and ok["[H,F] = -2F"]
        assert not ok["%s^r = 0" % g]


def _count_premise_rows(monkeypatch, mod):
    """While verify_relations(mod) runs, count the _apply calls that
    build a row of [H,E] or [H,F] (a product with H or with a row of H,
    or verify_relations' own N times a row of E or F), and the rows of
    E^r and F^r built (E times one of its own rows, or F times one of
    its own rows: the first step of each); return (h_rows, power_rows,
    report)."""
    import uqwb.repmod as repmod

    E, F, H = mod.matE.rows, mod.matF.rows, mod.matH.rows
    mats = (E, F, H, mod.K.rows, mod.Kinv.rows)
    real = repmod._apply
    n = {"h": 0, "power": 0}

    def counting(rows, vec):
        if (rows is H or any(vec is row for row in H)
                or (not any(rows is m for m in mats)
                    and any(vec is row for row in E + F))):
            n["h"] += 1
        if ((rows is E and any(vec is row for row in E))
                or (rows is F and any(vec is row for row in F))):
            n["power"] += 1
        return real(rows, vec)

    monkeypatch.setattr(repmod, "_apply", counting)
    rep = verify_relations(mod)
    monkeypatch.setattr(repmod, "_apply", real)
    return n["h"], n["power"], rep


def test_premise_rows_not_built(session, monkeypatch):
    """On every passing module with N = 0 no row of [H,E] or [H,F] is
    built, and on every Verma module no row of E^r or F^r.  On a copy of
    a Verma module whose E leaves the grading, [H,E] and E^r are
    row-checked, and the report is the reference's.  Each module is
    checked as a fresh copy, since a module keeps its witnesses once
    verified."""
    flat = 0
    for mod in _passing_modules(session):
        h_rows, _, rep = _count_premise_rows(monkeypatch, _fresh(mod))
        assert rep["status"] == "pass", mod.name
        if _max_degree(mod) == 0:
            assert h_rows == 0, mod.name
            flat += 1
    assert flat >= session.r + 3
    r = session.r
    for lam in (1, Fraction(-3, 2), 2 * r - 3):
        for m in (0, 1, 2):
            verma = build_generalized_verma(session, Fraction(lam), m)
            _, power_rows, rep = _count_premise_rows(monkeypatch,
                                                     _fresh(verma))
            assert (power_rows, rep["status"]) == (0, "pass"), verma.name
    verma = build_generalized_verma(session, Fraction(1), 1)
    bad = _grading_copies(verma)[0]
    h_rows, power_rows, rep = _count_premise_rows(monkeypatch, bad)
    assert h_rows > 0 and power_rows > 0
    assert rep == reference_relations(bad)
    assert not {it["check"]: it["ok"] for it in rep["items"]}["[H,E] = 2E"]


def test_verified_module_keeps_its_report(session, monkeypatch):
    """build_projective_cover verifies P(1,2) x C(1) before returning it,
    and a built module never changes: a second verify_relations builds
    no row and returns an equal report, which a fresh copy of the module
    recomputes.  Each call returns a new report, so changing one leaves
    the next unchanged."""
    import uqwb.repmod as repmod

    cover = build_projective_cover(session, 1, 2, 1)
    assert cover._relations is not None
    real = repmod._apply
    n = [0]

    def counting(rows, vec):
        n[0] += 1
        return real(rows, vec)

    monkeypatch.setattr(repmod, "_apply", counting)
    rep = verify_relations(cover)
    monkeypatch.setattr(repmod, "_apply", real)
    h_rows, power_rows, again = _count_premise_rows(monkeypatch, cover)
    assert (n[0], h_rows, power_rows) == (0, 0, 0)
    assert rep["status"] == "pass" and rep == again
    h_rows, _, fresh = _count_premise_rows(monkeypatch, _fresh(cover))
    assert h_rows > 0 and fresh == rep
    rep["items"][0]["ok"] = False
    rep["items"].clear()
    assert verify_relations(cover) == again


def test_passing_check_derives_no_k(session):
    """verify_relations reads K only to row-check K*E and K*F, so on
    V(1, 2), P(1, 2) and P(1, 1) x C(1), which pass, K and Kinv stay
    underived: through build_projective_cover's own check and through a
    second call."""
    mods = [_fresh(build_generalized_verma(session, Fraction(1), 2)),
            build_projective_cover(session, 1, 2),
            build_projective_cover(session, 1, 1, 1)]
    for mod in mods:
        assert verify_relations(mod)["status"] == "pass", mod.name
        assert (mod._K, mod._Kinv) == (None, None), mod.name


# K*E and K*F witnesses of P(1,1) x C(1) with E[last, last] = 2 (the
# [H,E] premise fails) or F[0, last] = 1 (the [H,F] premise fails), as
# the row check gave them when every verify_relations derived K
FAILED_PREMISE_K_WITNESSES = {
    (5, "E"): ("entry (18,19) = (2*z^6)*t^1", None),
    (5, "F"): (None, "entry (0,19) = (-1 + z^2 + -2*z^4 + z^6)*t^0"),
    (8, "E"): ("entry (14,15) = (2*z^12)*t^1", None),
    (8, "F"): (None, "entry (0,15) = (-2*z^4)*t^0"),
}


@pytest.mark.parametrize("g", ["E", "F"])
def test_failed_premise_row_checks_k(session, g):
    """A module whose [H,E] or [H,F] premise fails has K derived and
    K*E and K*F row-checked, with the pinned witnesses."""
    cover = build_projective_cover(session, 1, 1, 1)
    last = cover.dim - 1
    i, j, v = ((last, last, session.from_rational(2)) if g == "E"
               else (0, last, session.one))
    bad = _with_entry(cover, g, i, j, v)
    got = {it["check"]: it["witness"] for it in verify_relations(bad)["items"]}
    assert got["[H,E] = 2E" if g == "E" else "[H,F] = -2F"] is not None
    assert (got["K*E = q^2 E*K"], got["K*F = q^-2 F*K"]) \
        == FAILED_PREMISE_K_WITNESSES[session.ell, g]
    assert bad._K is not None


def test_block_keys_match_the_fraction_route(s8):
    """graded_blocks and the rows of E^r and F^r that the grading leaves
    possibly nonzero are found on the int keys N*w; on V(1/2, 2) (x) L_1
    at ell 8, whose weights are all half-integers, they are what
    Fraction arithmetic on the weights gives."""
    import uqwb.repmod as repmod

    mod = build_tensor(build_generalized_verma(s8, Fraction(1, 2), 2),
                       build_simple(s8, 1))
    weights = [lab.weight for lab in mod.labels]
    assert {w.denominator for w in weights} == {2}
    for g, shift in (("E", 2), ("F", -2), ("H", 0)):
        for i, row in enumerate(mod.generator_matrix(g).rows):
            assert all(weights[i] == weights[j] + shift for j in row)
    want = {}
    for i, w in enumerate(weights):
        want.setdefault(w, []).append(i)
    blocks = mod.graded_blocks()
    assert all(type(k) is int for k in blocks)
    assert list(blocks.items()) == [(s8.N * w, tuple(idx))
                                    for w, idx in want.items()]
    for step in (2 * s8.r, -2 * s8.r):
        rows = sorted(i for w, idx in want.items() if w - step in want
                      for i in idx)
        assert rows
        assert repmod._shifted_rows(blocks, step * s8.N) == rows
    assert verify_relations(mod)["status"] == "pass"


# ---------------------------------------------------------------------
# built modules are read-only
# ---------------------------------------------------------------------

def _writes(mat, s):
    """Each way to write into a matrix, as a zero-argument call."""
    i, j = next((i, j) for i, row in enumerate(mat.rows) for j in row)
    return [lambda: mat.set(i, j, s.one), lambda: mat.add_to(i, j, s.one),
            lambda: operator.setitem(mat.rows[i], j, s.one),
            lambda: operator.setitem(mat.rows, i, {}),
            lambda: mat.rows[i].pop(j), lambda: mat.rows[i].clear(),
            lambda: mat.rows[i].update({j: s.one}),
            lambda: mat.rows[i].setdefault(j + 1, s.one),
            lambda: mat.rows[i].popitem(),
            lambda: operator.delitem(mat.rows[i], j),
            lambda: operator.ior(mat.rows[i], {j: s.one})]


def test_grading_checks_compare_block_numbers(session, monkeypatch):
    """On a fresh copy of P(1, 2) x C(1), graded_blocks() and
    nilpotent_chains() add and compare Fractions a number of times
    bounded by the weight blocks, not by the nonzero entries: the
    weights are numbered once and each entry compares two ints.  (Per
    entry, the former checks made 340 such calls at ell 5 and 266 at
    ell 8.)"""
    from uqwb.projectives import build_projective_cover

    twisted = build_projective_cover(session, 1, 2, 1)
    mod = ModuleRep(session, twisted.labels, twisted.matE.copy(),
                    twisted.matF.copy(), twisted.matH.copy(),
                    twisted.max_degree)
    n = {"add": 0, "eq": 0}
    add, eq = Fraction.__add__, Fraction.__eq__

    def counted_add(a, b):
        n["add"] += 1
        return add(a, b)

    def counted_eq(a, b):
        n["eq"] += 1
        return eq(a, b)
    monkeypatch.setattr(Fraction, "__add__", counted_add)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    blocks = mod.graded_blocks()
    chains = mod.nilpotent_chains()
    monkeypatch.undo()
    entries = sum(len(row) for g in "EFH"
                  for row in mod.generator_matrix(g).rows)
    assert n["add"] + n["eq"] <= 3 * len(blocks) < entries
    assert dict(blocks) == dict(twisted.graded_blocks())
    assert chains == twisted.nilpotent_chains()


def test_built_module_is_read_only(s5):
    """Every write into a built module raises TypeError and changes
    nothing: the entries of E, F, H, K and Kinv, the rows themselves,
    the labels, and every field but the display name, the cached
    transpose dual included."""
    mod = build_projective_cover(s5, 1, 1)
    before = dump_module(mod)
    for g in ("E", "F", "H", "K", "Kinv"):
        mat = mod.generator_matrix(g)
        for write in _writes(mat, s5):
            with pytest.raises(TypeError):
                write()
    with pytest.raises(TypeError):
        mod.labels[0] = mod.labels[1]
    mod.graded_blocks()  # the lazy caches fill once, from None
    _transpose_dual(mod)
    for field in ModuleRep.__slots__:
        if field == "name":
            continue
        with pytest.raises(TypeError):
            setattr(mod, field, getattr(mod, field))
        with pytest.raises(TypeError):
            delattr(mod, field)
    mod.name = "renamed"
    assert dump_module(mod) == before
    assert verify_relations(mod)["status"] == "pass"
    # a copy is writable, and a frozen matrix equals its writable copy
    copy = mod.matE.copy()
    copy.set(0, 0, s5.one)
    assert copy != mod.matE and mod.matE.copy() == mod.matE


def test_cached_blocks_and_columns_cannot_go_stale(s5):
    """graded_blocks() and columns() are read once and cached: a write
    into E after both were read raises, and a new module on the changed
    matrices rejects the entry that breaks the grading."""
    mod = _fresh(build_simple(s5, 2))
    mod.graded_blocks()
    cols = mod.columns("E")
    with pytest.raises(TypeError):
        mod.matE.set(0, 2, s5.one)  # weight -2 to weight 2
    assert 0 not in cols[2] and mod.matE.get(0, 2).is_zero()
    matE = mod.matE.copy()
    matE.set(0, 2, s5.one)
    fresh = ModuleRep(s5, mod.labels, matE, mod.matF.copy(),
                      mod.matH.copy(), mod.max_degree, name="f")
    with pytest.raises(ModuleInvalidError, match=re.escape(
            "E entry (0,2) of f maps weight -2 to weight 2, not 0")):
        fresh.graded_blocks()


def test_derived_caches_are_read_only(s5):
    """columns() is a tuple of read-only rows and graded_blocks() a
    read-only mapping of index tuples: every write raises, and both
    caches read the same afterwards."""
    mod = build_simple(s5, 2)
    cols = [dict(c) for c in mod.columns("E")]
    blocks = dict(mod.graded_blocks())
    w = next(iter(blocks))
    for write in (lambda: operator.setitem(mod.columns("E")[0], 2, s5.one),
                  lambda: operator.setitem(mod.columns("E"), 0, {}),
                  lambda: mod.graded_blocks()[w].append(99),
                  lambda: operator.setitem(mod.graded_blocks(), w, [])):
        with pytest.raises((TypeError, AttributeError)):
            write()
    assert [dict(c) for c in mod.columns("E")] == cols
    assert dict(mod.graded_blocks()) == blocks


def test_cached_verma_cannot_be_poisoned():
    """A write into the session's cached V(1, 1) raises, so the covers
    built from it later in that session match a fresh session's."""
    s = Session(5)
    v = build_generalized_verma(s, Fraction(1), 1)
    with pytest.raises(TypeError):
        v.matE.set(0, v.dim - 1, s.one)
    assert (dump_module(build_projective_cover(s, 1, 1))
            == dump_module(build_projective_cover(Session(5), 1, 1)))


# ---------------------------------------------------------------------
# the per-session Verma and E*F^t normal-form caches
# ---------------------------------------------------------------------

def test_verma_cache_returns_the_built_module(session):
    a = build_generalized_verma(session, Fraction(3, 2), 1)
    assert build_generalized_verma(session, Fraction(3, 2), 1) is a
    fresh = build_generalized_verma(Session(session.ell), Fraction(3, 2), 1)
    assert fresh is not a
    assert dump_module(fresh) == dump_module(a)


def test_verma_cache_key_is_the_checked_weight(session):
    a = build_generalized_verma(session, 1, 2)
    assert build_generalized_verma(session, Fraction(1), 2) is a
    assert build_generalized_verma(session, Fraction(2, 2), 2) is a
    assert a.labels[0].weight == Fraction(1)


def test_verma_cache_still_rejects_bad_inputs(session):
    build_generalized_verma(session, Fraction(1), 0)
    build_generalized_verma(session, Fraction(1, 2), 0)
    for _ in range(2):
        with pytest.raises(RejectedInputError):
            build_generalized_verma(session, Fraction(1), -1)
        with pytest.raises(RejectedInputError):
            build_generalized_verma(session, Fraction(1, 3), 0)
    assert (Fraction(1), -1) not in session._verma_cache
    assert (Fraction(1, 3), 0) not in session._verma_cache


def test_ef_normal_forms_rewritten_once_per_session(monkeypatch):
    import uqwb.repmod as repmod

    calls = []
    real = repmod.pbw_normal_form

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(repmod, "pbw_normal_form", counting)
    s = Session(5)
    build_generalized_verma(s, Fraction(1), 0)
    assert len(calls) == s.r - 1  # E*F^t for t = 1..r-1
    build_generalized_verma(s, Fraction(2), 1)
    build_generalized_verma(s, Fraction(1), 0)
    assert len(calls) == s.r - 1


# ---------------------------------------------------------------------
# the ceiling on the cyclotomic order
# ---------------------------------------------------------------------

@pytest.mark.parametrize("cfg", [{"ell": 1025}, {"ell": 5, "N": 410}],
                         ids=["ell", "N"])
def test_load_rejects_session_above_the_ceiling(cfg):
    data = dump_module(build_simple(Session(5), 1))
    data["session"] = dict(cfg, mode="exponential")
    with pytest.raises(RejectedInputError, match="ceiling 4096"):
        load_module(data)


def test_session_ceiling_is_inclusive(monkeypatch):
    import uqwb.session as session_mod

    monkeypatch.setattr(session_mod, "MAX_ORDER", 40)
    assert Session(10).M == 40
    assert Session(5, weight_denominator=4).M == 40
    with pytest.raises(RejectedInputError):
        Session(11)
    with pytest.raises(RejectedInputError):
        Session(5, weight_denominator=5)
