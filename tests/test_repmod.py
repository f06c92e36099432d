"""Module constructors, relation verification, K-derivation, duals,
tensors, and serialization round-trips."""

import hashlib
import json
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
from uqwb.repmod import ModuleRep, Report


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
    with pytest.raises(ModeUnsupportedError):
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
    return (simples + vermas + [build_dual(v) for v in vermas[:3]]
            + _artifact_modules(session))


def test_verify_relations_matches_reference_on_passing_modules(session):
    for mod in _passing_modules(session):
        rep = verify_relations(mod)
        assert rep["status"] == "pass", mod.name
        assert [it["check"] for it in rep["items"]] \
            == ["H weight-block structure"] + RELATION_NAMES
        assert rep == reference_relations(mod), mod.name


def _with_entry(mod, g, i, j, value):
    """A copy of mod whose generator g (E, F, H or K) has entry (i, j)
    set to value; K is set on the copy, which keeps the derived Kinv."""
    mats = {x: mod.generator_matrix(x).copy() for x in "EFH"}
    if g == "K":
        mats["K"], mats["Kinv"] = mod.K.copy(), mod.Kinv
    mats[g].set(i, j, value)
    out = ModuleRep(mod.session, mod.labels, mats["E"], mats["F"],
                    mats["H"], mod.max_degree, name=mod.name)
    if g == "K":
        out._K, out._Kinv = mats["K"], mats["Kinv"]
    return out


def test_verify_relations_matches_reference_on_broken_modules(session):
    """One changed entry of E, F, H (or of the derived K, the only way to
    break K*Kinv = I or H*K = K*H, which hold for every K derive_K
    returns) gives the same report, witnesses included, as the
    whole-matrix reference; together the copies fail all nine
    relations."""
    s = session
    one, two = s.one, s.from_rational(2)
    bases = [build_simple(s, 2), build_generalized_verma(s, Fraction(1), 1),
             build_projective_cover(s, 1, 1, 1),
             build_dual(build_generalized_verma(s, Fraction(1, 2), 1)),
             build_tensor(build_simple(s, 1), build_simple(s, 1))]
    failed = set()
    for mod in bases:
        last = mod.dim - 1
        copies = []
        for g in "EFHK":
            mat = mod.generator_matrix(g)
            i, j = next((i, j) for i, row in enumerate(mat.rows)
                        for j in sorted(row))
            copies += [_with_entry(mod, g, i, j, mat.get(i, j) + one),
                       _with_entry(mod, g, last, last, two),
                       _with_entry(mod, g, 0, last, one)]
        for bad in copies:
            rep = verify_relations(bad)
            assert rep == reference_relations(bad), bad.name
            failed |= {it["check"] for it in rep["items"] if not it["ok"]}
    assert set(RELATION_NAMES) <= failed, set(RELATION_NAMES) - failed


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
