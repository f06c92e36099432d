"""Projective covers P_i^m: exact extensions of generalized Vermas.

P_i^m is realized on the basis of its defining length-2 standard
filtration 0 -> V(j+r, m) -> P_i^m -> V(i, m) -> 0 (j = r-2-i): the
lifted quotient chain a_{t,k} = F^t a_{0,k} of V(i, m) first, then the
submodule V(j+r, m) with its highest-weight chain u_k, each in its
canonical basis.  The only datum of the extension is E a_{0,k} = F^j u_k
(the weight-(i+2) chain of the submodule).  E F^t = F^t E +
F^{t-1} p_t(K) for a Laurent polynomial p_t, F and H (so K) act on the
lifted chain as on V(i, m), E v^k = 0 in V(i, m), and F^r = 0, so

    E a_{t,k} = E^{V(i,m)}(F^t v^k) + F^{t+j} u_k.

The cover is therefore glued from the two session-cached Vermas: their
direct sum plus (r-j)(m+1) unit entries of E, one for each F^{t+j} u_k
with t+j <= r-1.  The twisted cover P_i^m (x) C_t, t = k*ell/2, is glued
alike from V(i+t, m) and V(j+r+t, m) with entries q^t = (-1)^k for the
units, and equals the tensor entry for entry.  The construction is exact
by design, and the full relation check is a hard gate on every build.

The four basis families T, S, L, R of the classical degree-0 picture
are recovered as slices of the two chains: T and L are the upper and
lower parts of the lifted quotient chain, R and S the upper and lower
parts of the submodule chain.  At m = 0 the matrices coincide with the
classical table; for m >= 1 the boundary values E w^S_{i,s} and
F w^R_{j+r,s} acquire forced lower-degree tails (the commutator with
K - K^{-1} on a degree-s vector is never zero), which is why the cover
cannot be populated from a degree-0-shaped table.

The independent construction splits the cover off a projective tensor
as the Casimir's generalized eigenspace: one kernel of (Omega - chi)^n
per weight block of size n.

Every basis vector of the cover is a fixed word in E, F and N = H - w
(structure._word, structure._n_walk) at its generator, so an
isomorphism out of the cover (onto its dual, or onto the summand) is
built from the image of the generator alone (structure._verma_map) and
checked exactly; the Hom solve of iso_test is only the fallback.  The
certification reads the cover's dual as the transpose dual
(structure._transpose_dual): self-duality, the simple top and, through
extract_costandard_filtration, the costandard filtration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice

from .errors import ConstructionError, DiagnosticError, RejectedInputError
from .linalg import SMat, _axpy
from .repmod import (
    ModuleRep,
    Report,
    WeightLabel,
    _block_sum,
    build_dual,
    build_generalized_verma,
    build_simple,
    build_tensor,
    verify_relations,
)
from .structure import (
    _block_pairs,
    _blocks_full_rank,
    _degree,
    _intertwiner_ok,
    _kernel,
    _n_walk,
    _same_field,
    _solve,
    _transpose_dual,
    _verma_map,
    _word,
    extract_costandard_filtration,
    extract_standard_filtration,
    SubmoduleBasis,
    iso_test,
    simple_label,
    socle_counts,
    submodule_generated,
    submodule_to_module,
    typicality,
)


def proj_index(session, i, m, family, k, s):
    """Basis index of the family-(k, s) vector in P_i^m.

    T[k]: weights i, i-2, ..., -i; L[k]: j-r, j-r-2, ..., -j-r;
    R[k]: r-j, r-j+2, ..., r+j; S[k]: i, i-2, ..., -i (inside the
    submodule); all with degree column s.
    """
    j = session.r - 2 - i
    n = m + 1
    ranges = {"T": i, "S": i, "L": j, "R": j}
    if family not in ranges or not (0 <= k <= ranges[family] and 0 <= s <= m):
        raise RejectedInputError(
            "index (%s,%s,%s) out of range" % (family, k, s))
    off = session.r * n
    if family == "T":
        return k * n + s
    if family == "L":
        return (i + 1 + k) * n + s
    if family == "R":
        return off + (j - k) * n + s
    return off + (j + 1 + k) * n + s


def generator_index(session, i, m):
    """Index of the generator: top of the lifted chain, degree m."""
    return proj_index(session, i, m, "T", 0, m)


def _cover_weights(session, i, m, twist):
    """(i + t, j + r + t), t = twist*ell/2, the cover's two top weights;
    RejectedInputError, before any work, unless i is in 0..r-2, m >= 0
    and t is on the session's weight lattice."""
    r = session.r
    if not (0 <= i <= r - 2):
        raise RejectedInputError(
            "projective index %d outside 0..%d" % (i, r - 2))
    if m < 0:
        raise RejectedInputError("degree must be nonnegative")
    t = session.check_weight(Fraction(twist * session.ell, 2))
    return i + t, 2 * r - 2 - i + t


def build_projective_cover(session, i, m, twist=0):
    """P_i^m tensored with C_t, t = twist*ell/2: the projective cover of
    the twisted simple of highest weight i + t in degree m.

    C_t shifts every weight by t and multiplies E by q^t = (-1)^twist, so
    the cover is glued from V(i+t, m) and V(j+r+t, m) with extension
    entries q^t, and equals the tensor entry for entry, tags and name
    included.  Raises ConstructionError if the assembled matrices fail
    any defining relation.
    """
    lo, hi = _cover_weights(session, i, m, twist)
    shift = lo - i
    j = session.r - 2 - i
    r = session.r
    n = m + 1
    off = r * n
    sub = build_generalized_verma(session, hi, m)
    quo = build_generalized_verma(session, lo, m)
    # E a_{t,k} = E^{V(i,m)} F^t v^k + q^shift F^{t+j} u_k, the second term
    # 0 once t+j >= r; it is set in the submodule's (writable) rows
    unit = session.from_cyc(session.q_power(shift))
    matE = _block_sum(quo.matE, sub.matE)
    for t in range(r - j):
        for k in range(n):
            matE.set(off + (t + j) * n + k, t * n + k, unit)

    # tags keep the untwisted weight; a twist adds the tensor's "|c"
    suffix = "|c" if twist else ""
    labels = []
    for top, cut, fams in ((i, i, "TL"), (j + r, j, "RS")):
        for t in range(r):
            w = Fraction(top - 2 * t)
            fam = fams[t > cut]
            labels += [WeightLabel(w + shift, s, "%s[%s,%d]%s"
                                   % (fam, w, s, suffix)) for s in range(n)]

    name = "P(%d,%d)" % (i, m) + (" x C(%d)" % twist if twist else "")
    mod = ModuleRep(session, labels, matE, _block_sum(quo.matF, sub.matF),
                    _block_sum(quo.matH, sub.matH), m, name=name)
    rep = verify_relations(mod)
    if rep["status"] != "pass":
        bad = [it["check"] for it in rep["items"] if not it["ok"]]
        raise ConstructionError(
            "projective cover construction failed relations: %s" % (bad,))
    return mod


def verify_dominant_generation(session, p, i, m, twist=0):
    """Check that the cover is generated by its single leading vector.

    Works for the plain and the twisted cover alike, which share their
    basis indices.  Returns a report in the verify_relations shape, which
    fails, without raising, on a p not laid out as this cover (a generator
    index outside p fails "generator weight" alone).  RejectedInputError
    for a bad (i, m, twist) (`_cover_weights`) or a p over another field.
    """
    w, _ = _cover_weights(session, i, m, twist)
    _same_field(session, p.session)
    rep = Report()
    gi = generator_index(session, i, m)
    if gi >= p.dim:
        rep.add("generator weight", False,
                "generator index %d outside dimension %d" % (gi, p.dim))
        return rep.as_dict()
    g = {gi: session.one}
    # (H - w)^m (FE)^2 g: at m = 0 the classical dominance; for m >= 1 the
    # commutator forces (FE)^2 g into degrees < m, so only degree m must vanish
    lead = next(islice(_n_walk(p, _word(p, g, "EFEF"), w), m, None))
    rep.add("(FE)^2 kills the generator to leading degree", not lead)
    weight = p.labels[gi].weight
    rep.add("generator weight", weight == w,
            "label weight %s, expected %s" % (weight, w))
    rep.add("generator degree", weight == w and _degree(p, g, w) == m)
    gen = [session.zero] * p.dim
    gen[gi] = session.one
    sub = submodule_generated(p, [gen])
    rep.add("single-vector generation", sub.dim == p.dim,
            "generated dimension %d of %d" % (sub.dim, p.dim))
    li = proj_index(session, i, m, "L", 0, m)
    got = _word(p, g, "F" * (i + 1))
    rep.add("F^{i+1} generator starts the L chain",
            got == {li: session.one})
    rep.add("F^r kills the generator",
            not _word(p, got, "F" * (session.r - i - 1)))
    return rep.as_dict()


def _cover_maps(p, i, m, twist):
    """The maps out of the cover p fixed by the image of its generator g:
    a function phi(q, v) giving the map p -> q that sends g to the sparse
    vector v of q, or None if p is not in the cover's layout.

    Every basis vector of p is a fixed word in g.  With
    w = i + twist*ell/2 and N = H - (j + r + twist*ell/2), the lifted
    chain is a_{t,k} = F^t (H - w)^{m-k} g and the submodule chain F^t u_k
    with u_k = N^{m-k} p(N) E^{j+1} g; column c of phi(q, v) is word c at
    v, so phi(p, g) is the identity.  The two chains are the maps
    _verma_map builds out of V(w, m) and V(j+r+twist*ell/2, m), with top
    images v and the word u_m at v.  The m + 1 coefficients of p are one
    _solve on p, of sum_a x_a N^a E^{j+1} g = u_m.  The layout fails when
    the generator or u_m has the wrong weight label, or when E^{j+1} g
    lies outside the span of the u_k.  phi(q, v) is an intertwiner only
    for some v, and nothing here checks it.
    """
    s = p.session
    w, hi = _cover_weights(s, i, m, twist)
    r = s.r
    j = r - 2 - i
    n = m + 1
    gi = generator_index(s, i, m)
    off = r * n  # u_k = index off + k
    top = off + m
    if (p.dim != 2 * r * n or p.labels[gi].weight != w
            or p.labels[top].weight != hi):
        return None

    def raised(q, v):
        """E^{j+1} v and N^a of it, for a = 0..m."""
        return list(islice(_n_walk(q, _word(q, v, "E" * (j + 1)), hi), n))

    powers = raised(p, {gi: s.one})
    support = sorted({k for x in powers for k in x} | {top})
    sol = _solve([{a: x[k] for a, x in enumerate(powers) if k in x}
                  for k in support],
                 [{0: s.one} if k == top else {} for k in support], n)
    if sol is None:
        return None
    coeffs = sol[0]

    def phi(q, v):
        u = {}
        for a, x in enumerate(raised(q, v)):
            if a in coeffs:
                u = _axpy(u, coeffs[a], x)
        low = _verma_map(q, v, w, m)
        high = _verma_map(q, u, hi, m)
        return SMat(s, q.dim, p.dim, [
            {**a, **{off + c: x for c, x in b.items()}}
            for a, b in zip(low.rows, high.rows)])

    return phi


def _cover_iso(p, q, i, m, twist):
    """An invertible intertwiner p -> q built from p's generator, or None.

    A map out of the cyclic cover is fixed by the image v of its
    generator (_cover_maps).  The candidates v are the unit vectors of
    q's weight-w block, tried from the last.  A map is returned only once
    every weight block of it has full rank and it commutes with E, F and
    H, the checks iso_test applies to its own answer, so soundness never
    rests on the words or on p's basis.  None proves nothing (p not in
    the cover's layout, or no unit vector the image of a generator of
    q): the callers then fall back to iso_test.
    """
    phi = _cover_maps(p, i, m, twist)
    pairs = _block_pairs(p, q)
    if phi is None or pairs is None:
        return None
    s = p.session
    w = p.labels[generator_index(s, i, m)].weight
    for c in reversed(q.graded_blocks()[w]):
        g = phi(q, {c: s.one})
        if _blocks_full_rank(g, pairs) and _intertwiner_ok(g, p, q):
            return g
    return None


def casimir_matrix(mod):
    """F E + (q K + q^{-1} K^{-1})/(q - q^{-1})^2, checked central."""
    s = mod.session
    q1 = s.q_power(1)
    qm1 = s.q_power(-1)
    den2 = (q1 - qm1) * (q1 - qm1)
    omega = (mod.matF @ mod.matE
             + mod.K.scale(s.from_cyc(q1 / den2))
             + mod.Kinv.scale(s.from_cyc(qm1 / den2)))
    if not _intertwiner_ok(omega, mod, mod):
        raise DiagnosticError("Casimir fails to commute with E, F and H")
    return omega


def casimir_eigenvalue(session, lam):
    """The Casimir value on a highest-weight vector of weight lam."""
    q1 = session.q_power(1)
    qm1 = session.q_power(-1)
    den2 = (q1 - qm1) * (q1 - qm1)
    return (session.q_power(lam + 1) + session.q_power(-lam - 1)) / den2


def _generalized_eigenspace(mod, mat, chi):
    """The generalized eigenspace of mat at chi as a SubmoduleBasis.

    mat commutes with H (casimir_matrix checks it), so it keeps each weight
    block; on one of size n it is the kernel of (mat - chi)^n (Fitting).
    """
    s = mod.session
    shift = s.from_cyc(chi)
    sub = SubmoduleBasis(mod)
    for idx in mod.graded_blocks().values():
        n = len(idx)
        a = mat.block(idx, idx)
        for k in range(n):
            a.add_to(k, k, -shift)
        for v in _kernel(a.matpow(n).rows, range(n), s.one):
            sub._insert({idx[k]: x for k, x in v.items()})
    return sub


def build_via_tensor_summand(session, i, m, twist=0, seed=0):
    """Independent construction of the cover inside a projective tensor.

    Tensors a typical generalized Verma with a dual simple (so the
    result is projective and contains the cover exactly once) and splits
    off the cover as the generalized Casimir eigenspace at the cover's
    eigenvalue -- a canonical idempotent of the equivariant endomorphism
    algebra, computed exactly.  The result is certified isomorphic to
    the extension-built cover before being returned.

    The isomorphism is found from the cover's generator (_cover_iso):
    the cover's basis words applied to a candidate image in the summand,
    the map kept only once it passes the exact rank and intertwiner
    checks.  If no candidate passes, iso_test solves Hom(summand, cover)
    as the fallback, and only its None, which proves non-isomorphism
    because the cover is indecomposable, raises.
    """
    lam, _ = _cover_weights(session, i, m, twist)
    nshift = session.r - 1 - i
    if not typicality(session, lam + nshift).typical:
        raise DiagnosticError(
            "shift weight %s is not typical" % (lam + nshift,))
    big = build_tensor(
        build_generalized_verma(session, lam + nshift, m),
        build_dual(build_simple(session, nshift)),
    )
    target_dim = 2 * (m + 1) * session.r
    omega = casimir_matrix(big)
    chi = casimir_eigenvalue(session, lam)
    sub = _generalized_eigenspace(big, omega, chi)
    if sub.dim != target_dim:
        raise DiagnosticError(
            "Casimir eigenspace at weight %s has dimension %d, expected %d"
            % (lam, sub.dim, target_dim))
    cand = submodule_to_module(sub)
    ref = build_projective_cover(session, i, m, twist)
    if (_cover_iso(ref, cand, i, m, twist) is None
            and iso_test(cand, ref, seed=seed) is None):
        raise DiagnosticError(
            "tensor summand at weight %s is not isomorphic to the cover"
            % (lam,))
    cand.name = "P(%d,%d) in tensor" % (i, m)
    return cand


def certify_projcover_structure(session, i, m, twist=0, seed=0,
                                module=None):
    """The structural checks on the cover, as one report.

    Standard and costandard filtrations of length two with the correct
    weights, self-duality, and the unique simple top of the correct
    label.  The checks are basis-independent, so `module` may be any
    realization of the cover (e.g. one reloaded from a serialized dump);
    by default the cover is built in place.

    Self-duality and the top are read on the transpose dual P' of P
    (structure._transpose_dual, isomorphic to build_dual(P)).
    Self-duality is decided from the cover's generator first
    (_cover_iso): the cover's basis words applied to a candidate image in
    P' give a map, kept only once it passes the exact rank and
    intertwiner checks, so a map found proves P' isomorphic to P.  The
    words fit the cover's own basis; for a module in another basis, or
    when no candidate passes, iso_test solves Hom(P', P) as the
    fallback.  The route's None proves nothing, but iso_test's None
    proves that the two are not isomorphic, since P has a simple top.
    The top of P is the socle of P'.  The costandard filtration is
    extract_costandard_filtration's.  A bad (i, m, twist)
    (`_cover_weights`), or a module over another field than the session,
    raises RejectedInputError before any filtration is searched.
    """
    lo, hi = _cover_weights(session, i, m, twist)
    rep = Report()
    p = module
    if p is None:
        p = build_projective_cover(session, i, m, twist)
    _same_field(session, p.session)
    cert = extract_standard_filtration(p, m)
    rep.add("standard filtration length 2",
            cert is not None and len(cert.claims) == 2,
            "no standard filtration found")
    if cert is not None and len(cert.claims) == 2:
        rep.add("standard quotient weights",
                cert.quotient_weights() == [hi, lo],
                "got %s, expected %s" % (cert.quotient_weights(), [hi, lo]))
    ccert = extract_costandard_filtration(p, m)
    rep.add("costandard filtration length 2",
            ccert is not None and len(ccert.claims) == 2,
            "no costandard filtration found")
    if ccert is not None and len(ccert.claims) == 2:
        rep.add("costandard quotient weights",
                ccert.quotient_weights() == [lo, hi],
                "got %s, expected %s" % (ccert.quotient_weights(), [lo, hi]))
    dual = _transpose_dual(p)
    rep.add("self-duality", _cover_iso(p, dual, i, m, twist) is not None
            or iso_test(dual, p, seed=seed) is not None)
    tops = socle_counts(dual)
    rep.add("unique simple top", tops == {lo: 1}, "top data %s" % (tops,))
    lab = simple_label(session, lo)
    rep.add("top label matches the twisted simple", lab == ("L", i, twist),
            "label %s" % (lab,))
    return rep.as_dict()
