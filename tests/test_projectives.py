"""Projective covers: construction, generation, Casimir splitting,
cross-construction, and structural certification."""

import hashlib
import json
from fractions import Fraction

import pytest

from uqwb import (
    ConstructionError,
    DiagnosticError,
    RejectedInputError,
    Session,
    build_dual,
    build_generalized_verma,
    build_one_dim,
    build_projective_cover,
    build_simple,
    build_tensor,
    build_via_tensor_summand,
    casimir_eigenvalue,
    casimir_matrix,
    certify_projcover_structure,
    dump_module,
    extract_costandard_filtration,
    generator_index,
    iso_test,
    proj_index,
    verify_dominant_generation,
    verify_relations,
)
from uqwb import projectives, structure
from uqwb.linalg import SMat, invert_dense
from uqwb.repmod import ModuleRep, direct_sum
from uqwb.structure import _intertwiner_ok


def test_proj_index_is_a_bijection(session):
    r = session.r
    for i in (0, r - 2):
        for m in (0, 1):
            j = r - 2 - i
            seen = set()
            fams = [("T", i + 1), ("S", i + 1), ("L", r - 1 - i),
                    ("R", j + 1)]
            for fam, nk in fams:
                for k in range(nk):
                    for s in range(m + 1):
                        idx = proj_index(session, i, m, fam, k, s)
                        assert 0 <= idx < 2 * (m + 1) * r
                        seen.add(idx)
            assert len(seen) == 2 * (m + 1) * r


def test_cover_dimension_law(session):
    for i in range(0, session.r - 1):
        for m in (0, 1, 2):
            p = build_projective_cover(session, i, m)
            assert p.dim == 2 * (m + 1) * session.r


def test_cover_weight_profile(session):
    i, m = 1, 1
    r = session.r
    j = r - 2 - i
    p = build_projective_cover(session, i, m)
    blocks = p.weight_blocks()
    assert len(blocks[Fraction(i)]) == 2 * (m + 1)
    assert len(blocks[Fraction(j + r)]) == m + 1
    assert len(blocks[Fraction(-j - r)]) == m + 1


def test_cover_relations_pass(session):
    for i in (0, session.r - 2):
        for m in (0, 1):
            p = build_projective_cover(session, i, m)
            rep = verify_relations(p)
            assert rep["status"] == "pass", \
                [x for x in rep["items"] if not x["ok"]]


# SHA-256 of json.dumps(dump_module(P_i^m x C(k)), sort_keys=True),
# keyed (ell, i, m, k); any change to an entry of a cover moves it
COVER_DUMP_SHA256 = {
    (5, 0, 0, 0):
        "60f07f2bd3ff895cbd6e3b928c6b839a68d35b549029a18dfb964191871136de",
    (5, 0, 0, 1):
        "0432aae79488c88cb36bfa325c50f825683a01236e456a24e0a503274a6d29c2",
    (5, 0, 1, 0):
        "9fb3691418b80999307d52330c6ef5eb0e951c74ae7d6efa40b2bac4ef961ecb",
    (5, 0, 1, 1):
        "c0f83ac8dd59a7c3c4b3318cbde2c7d6fec332d91aa3a63df7356c477151db94",
    (5, 0, 2, 0):
        "899425232cac589039fa8b83cb2e7e3cd654787d6232ed9d352f1ebf8b5a0103",
    (5, 0, 2, 1):
        "1173ae4df536283d5def9f9a9e9782ae0eb5388af1cc7b1207339380d04d66f7",
    (5, 1, 0, 0):
        "2b0680c2b8db4bc24438e0ee0ed3eaa9efdb138c56ca7fee9ea256320fce0723",
    (5, 1, 0, 1):
        "10688326d42e28ea78fa902608120ccbae0999dd414422548c89e35b63abe18e",
    (5, 1, 1, 0):
        "b1b0dab15ca85f3acab592c43bd76a1b5faddb90dfa6173bca75ee47842e0318",
    (5, 1, 1, 1):
        "514848e1876090521ffdcc10f8f8eb3a9205df44b85aa1172056bcf8720ad355",
    (5, 1, 2, 0):
        "689827d10af24bd40737c42ad2df2e5213bca5615ea8fcdab89866a995fc26be",
    (5, 1, 2, 1):
        "4eca9c0846c6e0a299162d208eda4f4e985b822b19775e85cc6380a17a4a73e2",
    (5, 2, 0, 0):
        "a9621f02b7d375c9cdd7dfb73d9c1d613304178b8d22424c86050ce0ef02ca07",
    (5, 2, 0, 1):
        "08c329a63f8d29c21a03def1ebb22134c9f6f921454a47e4bb3b964313084bd8",
    (5, 2, 1, 0):
        "551b1701d1aeafba233db6924b6cf868de7d193e424e37ca1ed542955e554334",
    (5, 2, 1, 1):
        "1369a4c330414bcb4b1867f75f072381ef3c5d8ebbfa2422520ab8e5eada2eb7",
    (5, 2, 2, 0):
        "e1479b86c91d6ef4730ccc4c76df14f060485a4e6fa642cc5e6d08c9448946b4",
    (5, 2, 2, 1):
        "19153d77533a27330e59c2ab678906bb3289d89faa99eb1f74a25b6ebbd97044",
    (5, 3, 0, 0):
        "05dcbfe4a434714e9f79b252bfc3335fa3f46c68bfb8aab73696a339d7afd290",
    (5, 3, 0, 1):
        "242e49b306aa6bfde105d1301906cc8aa9dbd98fa19720aa67dd58109a5a1a49",
    (5, 3, 1, 0):
        "3319a9bf4bc9b8b0aabb4006f0bb2a8c46fa62735d9e0eb152b74f93b95d93e8",
    (5, 3, 1, 1):
        "e493a911fa6737758f86f43856f640028f0ad6cb9a7cfa787c2ed42fd94f5972",
    (5, 3, 2, 0):
        "e05358108ef459389a8d4211b563d6803ab53552d09234367afb678dc8de48fd",
    (5, 3, 2, 1):
        "d8d3ec25d4d3e0f39bc1150ae32f884ef7083e76c72f64598a93e6ccbbdb74e9",
    (8, 0, 0, 0):
        "9050b7363445a674ed8d618ad68b35e13eb128264151be2ea57f22be51ad2ef2",
    (8, 0, 0, 1):
        "32f5ad9840b2d93545753e8703dcfe56ed1b4e6c12d86c0399cfc9b7ef3bedc7",
    (8, 0, 1, 0):
        "9cd6e414a0377a7f6ee39c8b9051d5f5ca4d3bd84c3ed847fe7de1455232fa17",
    (8, 0, 1, 1):
        "9d5196433c33fd612ef3019bab8587c58100e9ef088075c89ade4ca1e7e5a6d6",
    (8, 0, 2, 0):
        "88d953b462eeaf88066067dbec8e2ac5bae6b534d8319cd69b68ceb904cc5652",
    (8, 0, 2, 1):
        "487c56d7a90ac4d5e4610d94dc9aae9c88889f6296198cac83c83a99d445d4e3",
    (8, 1, 0, 0):
        "825730d9b889b34b30b1530231ba60e5854b663df51c569a41d7663c9380299a",
    (8, 1, 0, 1):
        "ba2089750c849bc22d7affb154e1d856824a0a2e8bf970f3bbddaeecf7bc06ab",
    (8, 1, 1, 0):
        "55a7be76ff25171e75186f2168bf1ca244ff595dd89322dac911ab201a2430e1",
    (8, 1, 1, 1):
        "0a9a14ef0b50bcc86046e2bd87c69c83505aec67e8791db37b08c28c380d6211",
    (8, 1, 2, 0):
        "6cf9a845bcb1186566fa3134044d89a5439223cbd2f3a5b0e0da98093844c6ed",
    (8, 1, 2, 1):
        "a22a77a6e9d0d56296fe87072d6618547c018b99f57037b281630942d16ee1bb",
    (8, 2, 0, 0):
        "322fff63c7560433466450c710355c4192313587fd49b7848c34c798ff287520",
    (8, 2, 0, 1):
        "e14f653fecfaa57af84c3af6786e231262476eea59e74b9e32fb70dcecb845e2",
    (8, 2, 1, 0):
        "aa02d72d9093ca781572684da3b74627dbe12fb2726b1fff9f0f204787c86a65",
    (8, 2, 1, 1):
        "5b4fb214541368f5b15cffb334e29944408addf9d5a30351ad3186041bfcb46f",
    (8, 2, 2, 0):
        "350061983f7438bf356e235d95c00533eef6734d7579dfedfe39da86187b82d3",
    (8, 2, 2, 1):
        "1fd09089d58ea269558c68383dd761bcbffd96169cdc5422be090d3c0e363300",
}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_cover_dump_digest(session, m, k):
    for i in range(session.r - 1):
        p = build_projective_cover(session, i, m, k)
        text = json.dumps(dump_module(p), sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == COVER_DUMP_SHA256[(session.ell, i, m, k)]), (i, m, k)


def test_cover_leaves_the_cached_vermas_unchanged(session):
    """The cover is glued from the session's cached V(i, m) and
    V(j+r, m), its twist by k = 1 from V(i + ell/2, m) and
    V(j+r + ell/2, m); building them must not write into any of the
    four."""
    s = Session(session.ell)
    r = s.r
    half = Fraction(s.ell, 2)
    for i in range(r - 1):
        for m in (0, 1):
            weights = [Fraction(lam) + shift for shift in (0, half)
                       for lam in (i, 2 * r - 2 - i)]
            vermas = [build_generalized_verma(s, lam, m) for lam in weights]
            before = [dump_module(v) for v in vermas]
            for k in (0, 1):
                build_projective_cover(s, i, m, k)
            assert [build_generalized_verma(s, lam, m)
                    for lam in weights] == vermas
            assert [dump_module(v) for v in vermas] == before


def test_cover_index_validation(session):
    with pytest.raises(RejectedInputError):
        build_projective_cover(session, session.r - 1, 0)
    with pytest.raises(RejectedInputError):
        build_projective_cover(session, -1, 0)


@pytest.mark.parametrize("case", ["index", "twist", "certify"])
def test_cover_functions_refuse_bad_arguments(case, monkeypatch):
    """A cover function given an index outside 0..r-2 or a twist off the
    session's lattice raises RejectedInputError before any generation or
    filtration work, instead of a DiagnosticError from deep inside: at
    ell 5, i = 7 for verify_dominant_generation and for
    certify_projcover_structure on P(1,1), and at weight denominator 1
    twist 1, which puts t = 5/2 off the lattice."""
    if case == "twist":
        s = Session(5, 1)
        p = build_projective_cover(s, 1, 1, 2)
    else:
        s = Session(5)
        p = build_projective_cover(s, 1, 1)
    work = []
    for name in ("_word", "submodule_generated",
                 "extract_standard_filtration",
                 "extract_costandard_filtration"):
        monkeypatch.setattr(projectives, name,
                            lambda *args, name=name: work.append(name))
    calls = {
        "index": (lambda: verify_dominant_generation(s, p, 7, 1),
                  "projective index 7 outside 0..3"),
        "twist": (lambda: verify_dominant_generation(s, p, 1, 1, twist=1),
                  "weight 5/2 not in"),
        "certify": (lambda: certify_projcover_structure(s, 7, 1, module=p),
                    "projective index 7 outside 0..3"),
    }
    call, match = calls[case]
    with pytest.raises(RejectedInputError, match=match):
        call()
    assert not work


def test_generator_recovers_module(session):
    i, m = 1, 1
    p = build_projective_cover(session, i, m)
    rep = verify_dominant_generation(session, p, i, m)
    assert rep["status"] == "pass", \
        [x for x in rep["items"] if not x["ok"]]


@pytest.mark.parametrize("args", [(2, 1), (1, 2), (0, 1), (3, 1), (1, 25)],
                         ids="i{0[0]}-m{0[1]}".format)
def test_generation_fails_on_another_covers_arguments(s5, args):
    """At ell 5, P(1,1) checked as the cover of another valid (i, m) fails
    and raises nothing: a generator whose label weight is not w fails
    "generator weight" and "generator degree" instead of raising from the
    degree walk, and at (1, 25), whose generator index 25 lies beyond
    P(1,1)'s 20 basis vectors, "generator weight" fails alone."""
    p = build_projective_cover(s5, 1, 1)
    rep = verify_dominant_generation(s5, p, *args)
    assert rep["status"] == "fail"
    failed = [x["check"] for x in rep["items"] if not x["ok"]]
    assert "generator weight" in failed
    if args == (1, 25):
        assert rep["items"] == [{
            "check": "generator weight", "ok": False,
            "witness": "generator index 25 outside dimension 20"}]
    else:
        assert "generator degree" in failed


def test_leading_degree_negative_control(s5):
    """L(1) (x) P(0,1) at ell 5, checked as (i, m) = (1, 1): its generator
    has weight 1 and degree 1, but (H - 1) (FE)^2 g is not 0, so the
    leading-degree item fails; one more step of the walk would kill it."""
    t = build_tensor(build_simple(s5, 1), build_projective_cover(s5, 0, 1))
    rep = verify_dominant_generation(s5, t, 1, 1)
    ok = {x["check"]: x["ok"] for x in rep["items"]}
    assert not ok["(FE)^2 kills the generator to leading degree"]
    assert ok["generator weight"] and ok["generator degree"]


def test_degree_zero_boundary_vanishing(session):
    """At m = 0 the classical boundary relation E w^S_{i,0} = 0 holds."""
    i = 1
    p = build_projective_cover(session, i, 0)
    si = proj_index(session, i, 0, "S", 0, 0)
    col = [p.matE.get(a, si) for a in range(p.dim)]
    assert all(x.is_zero() for x in col)


def test_generator_weight_and_degree(session):
    i, m = 0, 2
    p = build_projective_cover(session, i, m)
    gi = generator_index(session, i, m)
    lab = p.labels[gi]
    assert lab.weight == Fraction(i)
    assert lab.degree == m


def test_twist_matches_tensor_by_one_dim(session):
    """The glued twisted cover is the tensor of the cover with the
    one-dimensional C(k*ell/2), named P(i,m) x C(k), entry for entry:
    the same labels, the same E, F and H."""
    for i in range(session.r - 1):
        for m in (0, 1, 2):
            plain = build_projective_cover(session, i, m)
            for k in (-2, -1, 1, 2, 3):
                tw = build_projective_cover(session, i, m, k)
                via = build_tensor(plain, build_one_dim(session, k))
                via.name = "%s x C(%d)" % (plain.name, k)
                assert tw.name == via.name
                assert dump_module(tw) == dump_module(via), (i, m, k)


def test_off_lattice_twist_refused():
    """At weight denominator 1 and odd ell, twist 1 puts the cover at
    weight i + 5/2, off the lattice: the library and the CLI refuse it
    by the twist weight before building anything.  Twist 2 is on it."""
    from uqwb.cli import main

    s = Session(5, 1)
    with pytest.raises(RejectedInputError, match="weight 5/2 not in"):
        build_projective_cover(s, 1, 1, 1)
    assert not s._verma_cache
    p = build_projective_cover(s, 1, 1, 2)
    assert verify_relations(p)["status"] == "pass"
    assert main(["--ell", "5", "--weight-denominator", "1", "pcover",
                 "--i", "1", "--m", "1", "--twist", "1"]) == 2


@pytest.mark.parametrize("k", [0, 1])
def test_cover_relation_gate(s5, k, monkeypatch):
    """A cover, twisted or not, that fails a relation is refused."""
    def failing(mod):
        return {"status": "fail",
                "items": [{"check": "E F - F E", "ok": False,
                           "witness": None}]}

    monkeypatch.setattr(projectives, "verify_relations", failing)
    with pytest.raises(ConstructionError, match="E F - F E"):
        build_projective_cover(s5, 1, 1, k)


def test_casimir_is_central_and_constant_on_verma(session):
    from uqwb import build_generalized_verma
    lam = Fraction(2)
    mod = build_generalized_verma(session, lam, 1)
    omega = casimir_matrix(mod)  # raises if not central
    chi = session.from_cyc(casimir_eigenvalue(session, lam))
    # on a highest-weight vector the Casimir acts by chi
    v = [session.zero] * mod.dim
    v[0] = session.one
    img = omega.apply(v)
    assert img[0] == chi


def test_casimir_refuses_a_non_central_matrix(session):
    """With one E entry of V(1, 0) doubled, F E no longer acts on the
    first two chain vectors by one scalar, so the Casimir built from it
    fails to commute with F and is refused."""
    v = build_generalized_verma(session, Fraction(1), 0)
    matE = v.matE.copy()
    i = next(i for i, row in enumerate(matE.rows) if row)
    j, x = next(iter(matE.rows[i].items()))
    matE.rows[i][j] = x + x
    bad = ModuleRep(session, v.labels, matE, v.matF.copy(), v.matH.copy(),
                    v.max_degree, name="V(1,0) with one E entry doubled")
    with pytest.raises(DiagnosticError, match="Casimir"):
        casimir_matrix(bad)


def test_casimir_eigenvalue_pairs(session):
    """Linked weights i and 2r-2-i share the Casimir eigenvalue; a
    typical neighbour does not."""
    r = session.r
    i = 1
    assert casimir_eigenvalue(session, Fraction(i)) \
        == casimir_eigenvalue(session, Fraction(2 * r - 2 - i))
    # weights 0 and 1 are never linked (1 != +-2 mod ell for ell >= 4)
    assert casimir_eigenvalue(session, Fraction(0)) \
        != casimir_eigenvalue(session, Fraction(1))


def test_tensor_summand_matches_cover(session):
    for i, m in [(0, 0), (1, 1)]:
        mod = build_via_tensor_summand(session, i, m)
        assert mod.dim == 2 * (m + 1) * session.r
        ref = build_projective_cover(session, i, m)
        assert iso_test(mod, ref) is not None


def test_certify_structure(session):
    rep = certify_projcover_structure(session, 1, 1)
    assert rep["status"] == "pass", \
        [x for x in rep["items"] if not x["ok"]]


@pytest.mark.parametrize("field", [(8, 2), (5, 1)],
                         ids=["ell8-N2", "ell5-N1"])
def test_generation_refuses_a_cover_of_another_field(s5, field):
    """verify_dominant_generation in an (ell, N) = (5, 2) session refuses
    a cover built over another field, naming both, instead of reading
    its basis as if it were the session's; its own session passes it."""
    own = Session(*field)
    p = build_projective_cover(own, 1, 1)
    with pytest.raises(RejectedInputError,
                       match=r"different fields: \(ell, N\) = \(5, 2\) "
                             r"and \(%d, %d\)" % field):
        verify_dominant_generation(s5, p, 1, 1)
    assert verify_dominant_generation(own, p, 1, 1)["status"] == "pass"


@pytest.mark.parametrize("field", [(8, 2), (5, 1)],
                         ids=["ell8-N2", "ell5-N1"])
def test_certification_refuses_a_cover_of_another_field(s5, field,
                                                        monkeypatch):
    """certify_projcover_structure in an (ell, N) = (5, 2) session
    refuses a module= built over another field, before any check runs;
    P(1,1) built at ell 8 would otherwise pass self-duality, the simple
    top and its label."""
    p = build_projective_cover(Session(*field), 1, 1)
    filtrations = []
    monkeypatch.setattr(projectives, "extract_standard_filtration",
                        lambda *args: filtrations.append(args))
    with pytest.raises(RejectedInputError,
                       match=r"different fields: \(ell, N\) = \(5, 2\) "
                             r"and \(%d, %d\)" % field):
        certify_projcover_structure(s5, 1, 1, module=p)
    assert not filtrations


def test_cover_is_self_dual(session):
    p = build_projective_cover(session, 0, 1)
    assert iso_test(build_dual(p), p) is not None


def test_cover_has_costandard_filtration(session):
    """Projective implies tilting: a costandard filtration exists."""
    p = build_projective_cover(session, 1, 0)
    cert = extract_costandard_filtration(p, 0)
    assert cert is not None
    assert len(cert.claims) == 2


def test_summand_rejects_untypical_setup():
    """The shift weight must be typical; the guard is exercised through
    the public error type on an impossible session if ever hit."""
    # For every valid (i, m) the canonical shift is typical by
    # construction, so instead check the certification path end to end
    # on the boundary index i = r - 2.
    from uqwb import Session
    s = Session(5)
    mod = build_via_tensor_summand(s, s.r - 2, 0)
    assert iso_test(mod, build_projective_cover(s, s.r - 2, 0)) is not None


# ---------------------------------------------------------------------
# isomorphisms out of the cover, from its generator
# ---------------------------------------------------------------------

def _counting(monkeypatch, module, name):
    """Wrap module.name so that its calls are counted; the list of
    calls (one None per call) is returned."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("twist", [0, 1, -2])
def test_cover_words_reproduce_the_basis(session, twist):
    """Applied to the generator g of the cover itself, the words of
    _cover_maps are the cover's basis vectors, in its index order: the
    map they define at v = g is the identity on P."""
    for m in (0, 1, 2):
        for i in range(session.r - 1):
            p = build_projective_cover(session, i, m, twist)
            phi = projectives._cover_maps(p, i, m, twist)
            gen = {generator_index(session, i, m): session.one}
            assert phi(p, gen) == SMat.identity(session, p.dim), (i, m)


def test_cover_iso_returns_checked_isomorphisms(session):
    """The route's map P -> dual(P) is an intertwiner and invertible (by
    the dense reference inverse).  At m >= 1 the first candidate, the
    last unit vector of the dual's weight block, gives a singular
    intertwiner, which the route's rank check must refuse."""
    r = session.r
    for i, m, twist in [(0, 1, 0), (1, 1, 1), (r - 2, 2, -2)]:
        p = build_projective_cover(session, i, m, twist)
        dual = build_dual(p)
        w = p.labels[generator_index(session, i, m)].weight
        first = {dual.graded_blocks()[w][-1]: session.one}
        h = projectives._cover_maps(p, i, m, twist)(dual, first)
        assert _intertwiner_ok(h, p, dual)
        assert invert_dense(h.to_dense(), session.zero, session.one) is None
        g = projectives._cover_iso(p, dual, i, m, twist)
        assert g is not None
        assert _intertwiner_ok(g, p, dual)
        assert invert_dense(g.to_dense(), session.zero,
                            session.one) is not None


def test_cover_iso_refuses_an_invertible_non_intertwiner(session):
    """q is the cover with E doubled, which is not a U-module, so no
    isomorphism P -> q exists.  The words at q's generator still give an
    invertible map; the route's intertwiner check must refuse it, and
    every other candidate."""
    i, m = 1, 1
    p = build_projective_cover(session, i, m)
    q = ModuleRep(session, p.labels, p.matE.scale(session.from_rational(2)),
                  p.matF, p.matH, m, name="E doubled")
    gen = {generator_index(session, i, m): session.one}
    h = projectives._cover_maps(p, i, m, 0)(q, gen)
    assert invert_dense(h.to_dense(), session.zero, session.one) is not None
    assert not _intertwiner_ok(h, p, q)
    assert projectives._cover_iso(p, q, i, m, 0) is None


def test_cover_iso_route_solves_no_hom_space(session, monkeypatch):
    """Certifying covers built in place, twisted or not, and the
    tensor-summand construction of P_{r-2}^1 never call _hom_basis: the
    generator route finds every isomorphism."""
    homs = _counting(monkeypatch, structure, "_hom_basis")
    for i in range(session.r - 1):
        for m, twist in [(0, 1), (1, 0), (1, -2)]:
            rep = certify_projcover_structure(session, i, m, twist)
            assert rep["status"] == "pass", (i, m, twist)
    assert certify_projcover_structure(session, 1, 2, 1)["status"] == "pass"
    build_via_tensor_summand(session, session.r - 2, 1)
    assert not homs


def _reversed_basis(mod):
    """mod in the reversed basis: index k becomes dim - 1 - k."""
    n = mod.dim

    def rev(mat):
        out = SMat(mod.session, n, n)
        for i, row in enumerate(mat.rows):
            for j, x in row.items():
                out.rows[n - 1 - i][n - 1 - j] = x
        return out

    return ModuleRep(mod.session, mod.labels[::-1], rev(mod.matE),
                     rev(mod.matF), rev(mod.matH), mod.max_degree,
                     name="reversed")


def test_reversed_cover_certifies_through_the_fallback(session,
                                                       monkeypatch):
    """The cover in the reversed basis is not in the cover's layout, so
    the route returns None and iso_test decides self-duality: the report
    equals the one of the cover built in place."""
    i, m = 1, 1
    q = _reversed_basis(build_projective_cover(session, i, m))
    assert projectives._cover_iso(q, build_dual(q), i, m, 0) is None
    expected = certify_projcover_structure(session, i, m)
    homs = _counting(monkeypatch, structure, "_hom_basis")
    assert certify_projcover_structure(session, i, m, module=q) == expected
    assert expected["status"] == "pass"
    assert len(homs) == 1


def test_fallback_decides_when_the_route_finds_nothing(session,
                                                       monkeypatch):
    """With the route made to find nothing, self-duality and the
    tensor summand are still certified, each through one iso_test."""
    monkeypatch.setattr(projectives, "_cover_iso", lambda *args: None)
    isos = _counting(monkeypatch, projectives, "iso_test")
    assert certify_projcover_structure(session, 1, 1)["status"] == "pass"
    assert len(isos) == 1
    build_via_tensor_summand(session, session.r - 2, 0)
    assert len(isos) == 2


def test_sum_of_vermas_is_not_self_dual_through_the_fallback(
        session, monkeypatch):
    """Negative control: V(i, m) + V(j+r, m) in the cover's layout is the
    cover without its unit E entries.  E^{j+1} g = 0 lies outside the
    submodule chain, so the route returns None; iso_test then decides,
    and the sum of two Vermas is not self-dual."""
    i, m = 1, 1
    j = session.r - 2 - i
    p = build_projective_cover(session, i, m)
    ds = direct_sum(build_generalized_verma(session, Fraction(i), m),
                    build_generalized_verma(session, Fraction(j + session.r),
                                            m))
    assert ([lab.weight for lab in ds.labels]
            == [lab.weight for lab in p.labels])
    assert projectives._cover_maps(ds, i, m, 0) is None
    assert projectives._cover_iso(ds, build_dual(ds), i, m, 0) is None
    homs = _counting(monkeypatch, structure, "_hom_basis")
    rep = certify_projcover_structure(session, i, m, module=ds)
    assert [it["ok"] for it in rep["items"]
            if it["check"] == "self-duality"] == [False]
    assert len(homs) == 1
