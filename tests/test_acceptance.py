"""The acceptance suite: structural criteria over the default sweep.

Sweep: ell in {5, 8} (odd and even), i in {0,...,r-2}, m in {0, 1, 2},
twist k in {0, 1}.  Everything is exact; no tolerances anywhere.
"""

from fractions import Fraction

import pytest

from uqwb import (
    ModeUnsupportedError,
    Session,
    bgg_table,
    build_dual,
    build_generalized_verma,
    build_one_dim,
    build_projective_cover,
    build_simple,
    build_tensor,
    build_via_tensor_summand,
    certify_projcover_structure,
    derive_K,
    extract_standard_filtration,
    iso_test,
    standard_top_surjection,
    verify_dominant_generation,
    verify_relations,
    verma_splitting_section,
)
from uqwb.linalg import SMat

from test_repmod import independent_k

ELLS = [5, 8]
MS = [0, 1, 2]
TWISTS = [0, 1]
VERMA_WEIGHTS = [Fraction(w) for w in range(-2, 5)] \
    + [Fraction(1, 2), Fraction(5, 2)]
# genuinely typical weights per parity (criterion 6 / 9)
TYPICALS = {8: [Fraction(1, 2), Fraction(5, 2)],
            5: [Fraction(3, 2), Fraction(4)]}

_SESSIONS = {}


def get_session(ell):
    if ell not in _SESSIONS:
        _SESSIONS[ell] = Session(ell)
    return _SESSIONS[ell]


def simple_range(ell):
    return range(0, get_session(ell).r - 1)


_ZOO = {}


def base_zoo(ell):
    """The criterion-1 constructor zoo: one-dims, simples, Vermas, and
    all of their duals."""
    if ell in _ZOO:
        return _ZOO[ell]
    s = get_session(ell)
    mods = [build_one_dim(s, k) for k in TWISTS]
    mods += [build_simple(s, i) for i in simple_range(ell)]
    mods += [build_generalized_verma(s, lam, m)
             for lam in VERMA_WEIGHTS for m in MS]
    mods += [build_dual(mod) for mod in list(mods)]
    _ZOO[ell] = mods
    return mods


def sampled_tensor_pairs(ell, count=10):
    """Deterministic sample of the pairwise tensors with dim <= 256:
    a fixed stride over the name-sorted pair list."""
    mods = base_zoo(ell)
    pairs = [(a, b) for a in mods for b in mods
             if a.dim * b.dim <= 256]
    pairs.sort(key=lambda p: (p[0].name, p[1].name))
    stride = max(1, len(pairs) // count)
    return pairs[::stride][:count]


def assert_report(rep, what):
    bad = [it for it in rep["items"] if not it["ok"]]
    assert rep["status"] == "pass", (what, bad)


# ---------------------------------------------------------------------
# 1. relation verification on every constructed module
# ---------------------------------------------------------------------

@pytest.mark.parametrize("ell", ELLS)
def test_criterion_1_base_modules(ell):
    for mod in base_zoo(ell):
        assert_report(verify_relations(mod), mod.name)


@pytest.mark.parametrize("ell", ELLS)
def test_criterion_1_sampled_tensors(ell):
    for a, b in sampled_tensor_pairs(ell):
        big = build_tensor(a, b)
        assert_report(verify_relations(big), big.name)


@pytest.mark.parametrize("ell", ELLS)
def test_criterion_1_projective_covers(ell):
    s = get_session(ell)
    for i in simple_range(ell):
        for m in MS:
            p = build_projective_cover(s, i, m)
            assert_report(verify_relations(p), p.name)


# ---------------------------------------------------------------------
# 2. dimension laws
# ---------------------------------------------------------------------

@pytest.mark.parametrize("ell", ELLS)
def test_criterion_2_dimensions(ell):
    s = get_session(ell)
    r = s.r
    for lam in VERMA_WEIGHTS:
        for m in MS:
            assert build_generalized_verma(s, lam, m).dim == (m + 1) * r
    for i in simple_range(ell):
        for m in MS:
            assert build_projective_cover(s, i, m).dim == 2 * (m + 1) * r


# ---------------------------------------------------------------------
# 3. K is the blockwise exponential, exactly
# ---------------------------------------------------------------------

@pytest.mark.parametrize("ell", ELLS)
def test_criterion_3_k_exponential(ell):
    s = get_session(ell)
    mods = list(base_zoo(ell))
    mods.append(build_tensor(build_generalized_verma(s, Fraction(1), 1),
                             build_simple(s, 1)))
    mods.append(build_projective_cover(s, 0, 1))
    for mod in mods:
        K, Kinv = derive_K(mod)
        assert K == independent_k(mod), mod.name
        assert K @ Kinv == SMat.identity(s, mod.dim), mod.name


# ---------------------------------------------------------------------
# 4. duality suite
# ---------------------------------------------------------------------

@pytest.mark.parametrize("ell", ELLS)
def test_criterion_4_duality(ell):
    s = get_session(ell)
    probes = [build_generalized_verma(s, lam, m)
              for lam in (Fraction(1), Fraction(1, 2)) for m in (0, 2)]
    probes += [build_simple(s, i) for i in simple_range(ell)]
    for mod in probes:
        dd = build_dual(build_dual(mod))
        assert iso_test(dd, mod) is not None, mod.name
    for i in simple_range(ell):
        li = build_simple(s, i)
        assert iso_test(build_dual(li), li) is not None
    for mod in base_zoo(ell):
        dual = build_dual(mod)
        assert {w: len(ix) for w, ix in mod.weight_blocks().items()} \
            == {w: len(ix) for w, ix in dual.weight_blocks().items()}


# ---------------------------------------------------------------------
# 5. tensor standard filtrations over the full sweep
# ---------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("m", MS)
def test_criterion_5_tensor_filtration(ell, m):
    s = get_session(ell)
    for lam in VERMA_WEIGHTS:
        for i in simple_range(ell):
            big = build_tensor(build_generalized_verma(s, lam, m),
                               build_simple(s, i))
            if big.dim > 256:
                continue
            cert = extract_standard_filtration(big, m)
            assert cert is not None, (lam, m, i)
            assert len(cert.claims) == i + 1, (lam, m, i)
            got = sorted(cert.quotient_weights())
            want = sorted(lam + i - 2 * k for k in range(i + 1))
            assert got == want, (lam, m, i)


# ---------------------------------------------------------------------
# 6. splitting sections at typical weights
# ---------------------------------------------------------------------

@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("m", MS)
def test_criterion_6_splitting(ell, m):
    s = get_session(ell)
    for lam in TYPICALS[ell]:
        # two distinct surjection constructions onto V(lam, m)
        for shift, i in ((0, 0), (1, 1)):
            big = build_tensor(
                build_generalized_verma(s, lam + shift, m),
                build_simple(s, i))
            f, top = standard_top_surjection(big, m)
            assert top == lam, (lam, m, shift)
            g = verma_splitting_section(big, f, top, m)
            assert g is not None  # f*g = id certified inside


# ---------------------------------------------------------------------
# 7. projective cover certification over the full sweep
# ---------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("twist", TWISTS)
def test_criterion_7_cover_certification(ell, twist):
    s = get_session(ell)
    for i in simple_range(ell):
        for m in MS:
            p = build_projective_cover(s, i, m, twist)
            assert_report(
                verify_dominant_generation(s, p, i, m, twist),
                ("generation", i, m, twist))
            assert_report(
                certify_projcover_structure(s, i, m, twist),
                ("structure", i, m, twist))


# ---------------------------------------------------------------------
# 8. cross-construction isomorphism
# ---------------------------------------------------------------------

CRITERION_8_CASES = [(8, i, m) for i in (0, 1) for m in (0, 1)] \
    + [(5, i, 1) for i in (0, 1, 2)]


@pytest.mark.parametrize("ell,i,m", CRITERION_8_CASES)
def test_criterion_8_cross_construction(ell, i, m):
    s = get_session(ell)
    mod = build_via_tensor_summand(s, i, m)
    ref = build_projective_cover(s, i, m)
    assert iso_test(mod, ref) is not None


# ---------------------------------------------------------------------
# 9. BGG reciprocity
# ---------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("ell", ELLS)
@pytest.mark.parametrize("m", MS)
def test_criterion_9_bgg(ell, m):
    s = get_session(ell)
    r = s.r
    weights = [Fraction(w) for w in range(-(r - 1), 2 * r - 1)]
    weights += TYPICALS[ell]
    cells = bgg_table(s, m, weights)
    bad = [c for c in cells if not c[3]]
    assert not bad, bad


# ---------------------------------------------------------------------
# 10. regression guard on the coefficient-mode distinction
# ---------------------------------------------------------------------

def test_criterion_10_paper_literal_diagnosed():
    s = Session(5, mode="paper-literal")
    with pytest.raises(ModeUnsupportedError):
        build_generalized_verma(s, Fraction(1), 2)
    with pytest.raises(ModeUnsupportedError):
        build_projective_cover(Session(5, mode="paper-literal"), 1, 2)
    # the same guard fires on any loaded module with a degree-2 block
    se = Session(5)
    mod = build_generalized_verma(se, Fraction(1), 2)
    from uqwb import dump_module, load_module
    data = dump_module(mod)
    data["session"]["mode"] = "paper-literal"
    reloaded = load_module(data)
    with pytest.raises(ModeUnsupportedError):
        derive_K(reloaded)


def test_criterion_10_cli_reports_diagnostic(capsys):
    from uqwb.cli import main
    code = main(["--ell", "5", "--mode", "paper-literal", "build",
                 "verma", "--weight", "1", "--degree", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "paper-literal" in out
    assert "FAIL" in out
