"""Command-line front end for the workbench.

Every verb validates its options, dispatches to the library, and prints
a deterministic report (text or JSON).  Exit status: 0 when the report
passes, 1 on a computational failure or diagnostic, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .algebra import AlgebraElement, act
from .errors import RejectedInputError, UqwbError
from .projectives import (
    build_projective_cover,
    build_via_tensor_summand,
    certify_projcover_structure,
    verify_dominant_generation,
)
from .repmod import (
    Report,
    build_dual,
    build_generalized_verma,
    build_one_dim,
    build_simple,
    build_tensor,
    dump_module,
    load_module,
    parse_rational,
    verify_relations,
    weight_decomposition,
)
from .session import (
    MAX_ORDER,
    MODE_EXPONENTIAL,
    MODE_PAPER_LITERAL,
    Session,
)
from .structure import (
    FiltrationCertificate,
    _transpose_dual,
    atypical_decompose,
    bgg_table,
    extract_costandard_filtration,
    extract_standard_filtration,
    format_simple_label,
    iso_test,
    jordan_holder,
    socle_counts,
    standard_top_surjection,
    typicality,
    verify_filtration_certificate,
    verma_splitting_section,
)

USAGE_EXIT = 2
FAIL_EXIT = 1


def emit_report(rep, fmt, start):
    """Print the report, with the seconds since start."""
    stream = sys.stdout
    data = dict(rep.as_dict(), seconds=round(time.time() - start, 3))
    if fmt == "json":
        json.dump(data, stream, indent=1)
        stream.write("\n")
    else:
        stream.write("status: %s\n" % data["status"])
        for it in data["items"]:
            mark = "ok  " if it["ok"] else "FAIL"
            line = "  [%s] %s" % (mark, it["check"])
            if not it["ok"] and it["witness"]:
                line += " :: %s" % (it["witness"],)
            stream.write(line + "\n")
        stream.write("seconds: %s\n" % data["seconds"])


def write_artifact(rep, noun, path, data):
    """Write data to path as JSON and report "<noun> written to <path>"."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    rep.add("%s written to %s" % (noun, path), True)


def typical_weights(s):
    """Two typical weights: 1/2 and 5/2 at even ell; at odd ell, where
    lam is typical when 2(lam + 1) is a multiple of r, (r - 2)/2 and
    r - 1.  Those off (1/N)Z give way to 2r - 1, 3r - 1 (typical)."""
    ws = ([Fraction(1, 2), Fraction(5, 2)] if s.ell % 2 == 0
          else [Fraction(s.r - 2, 2), Fraction(s.r - 1)])
    ws = [w for w in ws if s.N % w.denominator == 0]
    return (ws + [Fraction(k * s.r - 1) for k in (2, 3)])[:2]


def default_bgg_weights(s):
    """The default BGG window: the integers -(r-1)..2r-2 plus the two
    typical weights, without repeats (at odd ell the typical r - 1 lies
    in the integer range)."""
    r = s.r
    weights = [Fraction(w) for w in range(-(r - 1), 2 * r - 1)]
    return weights + [w for w in typical_weights(s) if w not in weights]


def make_session(args, ell=None):
    """The session of the flags; ell, if given, stands in for --ell."""
    ell = args.ell if ell is None else ell
    if ell is None:
        raise RejectedInputError("--ell is required for this verb")
    return Session(ell,
                   2 if args.weight_denominator is None
                   else args.weight_denominator,
                   args.mode or MODE_EXPONENTIAL)


def dump_session(data, args):
    """The session a module dump is read in, or None for the dump's own.

    --ell gives the session of the flags.  Without it, --weight-denominator
    or --mode alone gives the session of the flags at the dump's own ell,
    so load_module still compares N, and the flags' mode is the one used.
    A dump whose ell cannot be read is left to load_module to reject.
    """
    if args.ell is not None:
        return make_session(args)
    if args.weight_denominator is None and args.mode is None:
        return None
    cfg = data.get("session") if isinstance(data, dict) else None
    ell = cfg.get("ell") if isinstance(cfg, dict) else None
    if type(ell) is not int:
        return None
    return make_session(args, ell)


def read_json(path):
    """The JSON document at path.  Text that is not JSON raises
    JSONDecodeError (a failed check); text Python cannot read as a
    document (not UTF-8, or an integer longer than
    sys.get_int_max_str_digits()) is a malformed input."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise RejectedInputError("cannot read %s: %s" % (path, exc))


def load_with_optional_session(path, args):
    data = read_json(path)
    return load_module(data, dump_session(data, args))


# ---------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------

def cmd_build(args, rep):
    s = make_session(args)
    if args.kind == "verma":
        lam = parse_rational(args.weight, "weight")
        mod = build_generalized_verma(s, lam, args.degree)
    elif args.kind == "simple":
        mod = build_simple(s, args.i)
    else:
        mod = build_one_dim(s, args.k)
    rep.add("build %s dim %d" % (mod.name, mod.dim), True)
    rep.extend("relations", verify_relations(mod))
    if args.out:
        write_artifact(rep, "dump", args.out, dump_module(mod))


def cmd_verify(args, rep):
    mod = load_with_optional_session(args.module, args)
    rep.add("loaded %s dim %d" % (args.module, mod.dim), True)
    rep.extend("relations", verify_relations(mod))


def cmd_decomp(args, rep):
    mod = load_with_optional_session(args.module, args)
    total = 0
    for w, deg, idx in weight_decomposition(mod):
        rep.add("weight %s: dim %d, degree %d" % (w, len(idx), deg), True)
        total += len(idx)
    rep.add("dimensions sum to %d" % mod.dim, total == mod.dim,
            "sum %d" % total)


def cmd_dual(args, rep):
    mod = load_with_optional_session(args.module, args)
    dual = build_dual(mod)
    rep.extend("relations of the dual", verify_relations(dual))
    if args.out:
        write_artifact(rep, "dump", args.out, dump_module(dual))


def cmd_tensor(args, rep):
    a = load_with_optional_session(args.left, args)
    b = load_module(read_json(args.right), a.session)
    mod = build_tensor(a, b)
    rep.add("tensor dim %d" % mod.dim, mod.dim == a.dim * b.dim)
    rep.extend("relations", verify_relations(mod))
    if args.out:
        write_artifact(rep, "dump", args.out, dump_module(mod))


def cmd_filtration(args, rep):
    mod = load_with_optional_session(args.module, args)
    if args.kind == "standard":
        cert = extract_standard_filtration(mod, args.degree)
    else:
        cert = extract_costandard_filtration(mod, args.degree)
    rep.add("%s filtration found" % args.kind, cert is not None,
            "extraction strategy found nothing at degree %d" % args.degree)
    if cert is None:
        return
    rep.add("quotient weights %s"
            % [str(w) for w in cert.quotient_weights()], True)
    rep.extend("certificate", verify_filtration_certificate(cert))
    if args.out:
        write_artifact(rep, "certificate", args.out, cert.to_json())


def cmd_jh(args, rep):
    mod = load_with_optional_session(args.module, args)
    factors = jordan_holder(mod)
    for lab in sorted(factors, key=str):
        rep.add("factor %s x %d" % (format_simple_label(lab), factors[lab]),
                True)
    total = sum(factors.values())
    rep.add("composition length %d" % total, total > 0 or mod.dim == 0)


def cmd_typical(args, rep):
    s = make_session(args)
    t = typicality(s, parse_rational(args.weight, "weight"))
    rep.add("weight %s is %s" % (args.weight,
                                 "typical" if t.typical else "atypical"),
            True)
    rep.add("criterion: %s" % t.witness, True)


def cmd_bgg(args, rep):
    s = make_session(args)
    if args.weights is not None:
        weights = [parse_rational(w, "weight")
                   for w in args.weights.split(",")]
    else:
        weights = default_bgg_weights(s)
    cells = bgg_table(s, args.m, weights, seed=args.seed)
    for (lam, mu), a, b, ok in cells:
        rep.add("cell (%s, %s): filtration %d, composition %d"
                % (lam, mu, a, b), ok, "counts differ")
    if args.out:
        write_artifact(rep, "table", args.out, [
            {"lam": str(lam), "mu": str(mu), "filtration": a,
             "composition": b, "equal": ok}
            for (lam, mu), a, b, ok in cells
        ])


def cmd_pcover(args, rep):
    s = make_session(args)
    p = build_projective_cover(s, args.i, args.m, args.twist)
    rep.add("built %s dim %d" % (p.name, p.dim), True)
    rep.extend("relations", verify_relations(p))
    rep.extend("generation",
               verify_dominant_generation(s, p, args.i, args.m, args.twist))
    if args.out:
        write_artifact(rep, "dump", args.out, dump_module(p))


def cmd_pcover_certify(args, rep):
    mod = load_with_optional_session(args.module, args)
    s = mod.session
    mod.graded_blocks()  # an ungraded entry is named in mod, not its dual
    tops = socle_counts(_transpose_dual(mod))
    if len(tops) != 1:
        rep.add("module has a unique simple top", False,
                "top data %s" % (tops,))
        return
    lo = next(iter(tops))
    i, twist = atypical_decompose(s, lo)
    m = mod.max_degree
    rep.add("identified as cover (i=%d, m=%d, twist=%d)" % (i, m, twist),
            True)
    rep.extend("relations", verify_relations(mod))
    rep.extend("structure",
               certify_projcover_structure(s, i, m, twist, seed=args.seed,
                                           module=mod))


def cmd_verify_cert(args, rep):
    data = read_json(args.certificate)
    module = data.get("module") if isinstance(data, dict) else None
    cert = FiltrationCertificate.from_json(data, dump_session(module, args))
    rep.add("loaded %s certificate of degree %d"
            % (cert.kind, cert.degree), True)
    rep.extend("certificate", verify_filtration_certificate(cert))


def cmd_act(args, rep):
    mod = load_with_optional_session(args.module, args)
    x = AlgebraElement.parse_word(mod.session, args.word)
    mat = act(x, mod)
    rep.add("word %r evaluated on dim-%d module, %d nonzero entries"
            % (args.word, mod.dim, mat.nnz()), True)
    if args.out:
        s = mod.session
        write_artifact(rep, "matrix", args.out,
                       [[s.format_scalar(v) for v in row]
                        for row in mat.to_dense()])


# ---------------------------------------------------------------------
# the aggregated suite
# ---------------------------------------------------------------------

def cmd_suite(args, rep):
    s = make_session(args)
    r = s.r
    max_i = args.max_i if args.max_i is not None else r - 2
    max_m = args.max_m if args.max_m is not None else 1
    if not 0 <= max_i <= r - 2:
        raise RejectedInputError(
            "max-i %d out of the simple index range {0,...,%d}"
            % (max_i, r - 2))
    if max_m < 0:
        raise RejectedInputError("max-m must be nonnegative")
    top_dim = 2 * (max_m + 1) * r
    if top_dim > 256:
        raise RejectedInputError(
            "predicted top dimension %d exceeds the desk-scale guard 256; "
            "lower --max-m (each unit adds 2r)" % top_dim)

    # scalar properties
    rep.add("q has order ell", all(
        (s.q_power(n) == s.q_power(0)) == (n % s.ell == 0)
        for n in range(1, 2 * s.ell + 1)))
    rep.add("[n] vanishes exactly at multiples of r", all(
        s.quantum_integer(n).is_zero() == (n % r == 0)
        for n in range(1, 2 * r + 1)))

    # relation suites on the constructors
    mods = []
    for k in (0, 1):
        if s.N * k * s.ell % 2 == 0:  # k*ell/2 on the lattice
            mods.append(build_one_dim(s, k))
    for i in range(0, max_i + 1):
        mods.append(build_simple(s, i))
    verma_weights = [Fraction(w) for w in range(-1, 3)]
    for lam in verma_weights:
        for m in range(0, max_m + 1):
            mods.append(build_generalized_verma(s, lam, m))
    for mod in list(mods):
        mods.append(build_dual(mod))
    for mod in mods:
        ok = verify_relations(mod)["status"] == "pass"
        rep.add("relations %s" % mod.name, ok)

    # duality properties
    probe = build_generalized_verma(s, Fraction(1), min(1, max_m))
    rep.add("dual of dual is isomorphic (V(1,%d))" % probe.max_degree,
            iso_test(build_dual(build_dual(probe)), probe,
                     seed=args.seed) is not None)
    li = build_simple(s, min(1, r - 2))
    rep.add("dual simple is isomorphic to the simple",
            iso_test(build_dual(li), li, seed=args.seed) is not None)

    # tensor standard filtrations
    for i in range(0, min(max_i, 2) + 1):
        big = build_tensor(build_generalized_verma(s, Fraction(1), max_m),
                           build_simple(s, i))
        cert = extract_standard_filtration(big, max_m)
        ok = cert is not None and len(cert.claims) == i + 1
        rep.add("standard filtration of V(1,%d) (x) L_%d" % (max_m, i), ok)

    # splitting sections on typical tops
    typ = typical_weights(s)[0]
    base = build_generalized_verma(s, typ, max_m)
    big = build_tensor(base, build_simple(s, 0))
    f, lam = standard_top_surjection(big, max_m)
    try:
        verma_splitting_section(big, f, lam, max_m)
        rep.add("splitting section at typical %s" % lam, True)
    except UqwbError as exc:
        rep.add("splitting section at typical %s" % lam, False, str(exc))

    # projective covers
    for i in range(0, max_i + 1):
        for m in range(0, max_m + 1):
            p = build_projective_cover(s, i, m)
            rep.add("cover relations P(%d,%d)" % (i, m),
                    verify_relations(p)["status"] == "pass")
            rep.add("cover generation P(%d,%d)" % (i, m),
                    verify_dominant_generation(s, p, i, m)["status"]
                    == "pass")
    ci = min(1, max_i)
    cm = min(1, max_m)
    rep.extend("cover structure P(%d,%d)" % (ci, cm),
               certify_projcover_structure(s, ci, cm, seed=args.seed))
    try:
        build_via_tensor_summand(s, ci, cm, seed=args.seed)
        rep.add("tensor summand matches the cover (%d,%d)" % (ci, cm), True)
    except UqwbError as exc:
        rep.add("tensor summand matches the cover (%d,%d)" % (ci, cm),
                False, str(exc))

    # BGG sweep
    weights = default_bgg_weights(s)
    for m in range(0, max_m + 1):
        cells = bgg_table(s, m, weights, seed=args.seed)
        bad = [c for c in cells if not c[3]]
        rep.add("bgg reciprocity m=%d over %d cells" % (m, len(cells)),
                not bad, "failing cells %s" % bad[:3])


# ---------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------

def _shared_flags(suppress):
    """The global flags, usable both before and after the verb."""
    d = argparse.SUPPRESS if suppress else None
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--ell", type=int,
                        default=d,
                        help="order of q (q = exp(2*pi*i/ell)); "
                             "2*N*ell may not exceed %d" % MAX_ORDER)
    # None for both: with no --ell, a dump is read in its own session
    # unless one of them is given (dump_session)
    parent.add_argument("--weight-denominator", type=int,
                        default=d,
                        help="weights live in (1/N)Z (default 2)")
    parent.add_argument("--mode",
                        default=d,
                        choices=[MODE_EXPONENTIAL, MODE_PAPER_LITERAL])
    parent.add_argument("--seed", type=int,
                        default=argparse.SUPPRESS if suppress else 0,
                        help="seed for randomized certifications")
    parent.add_argument("--out",
                        default=d,
                        help="path for the JSON artifact, when the verb "
                             "emits one")
    parent.add_argument("--format",
                        default=argparse.SUPPRESS if suppress else "text",
                        choices=["text", "json"], dest="fmt",
                        help="report format")
    return parent


def build_parser():
    sub_parent = _shared_flags(suppress=True)
    ap = argparse.ArgumentParser(
        prog="uqwb",
        parents=[_shared_flags(suppress=False)],
        description="exact workbench for the unrolled restricted "
                    "quantum sl2 at a root of unity")
    sub = ap.add_subparsers(dest="verb", required=True,
                            parser_class=lambda **kw: argparse.ArgumentParser(
                                parents=[sub_parent], **kw))

    p = sub.add_parser("build", help="build a module and verify it")
    p.add_argument("kind", choices=["verma", "simple", "onedim"])
    p.add_argument("--weight", default="0", help="verma highest weight")
    p.add_argument("--degree", type=int, default=0, help="verma degree m")
    p.add_argument("--i", type=int, default=0, help="simple index")
    p.add_argument("--k", type=int, default=0, help="one-dim twist index")

    p = sub.add_parser("verify", help="re-verify a serialized module")
    p.add_argument("module")

    p = sub.add_parser("decomp", help="generalized weight decomposition")
    p.add_argument("module")

    p = sub.add_parser("dual", help="dual of a serialized module")
    p.add_argument("module")

    p = sub.add_parser("tensor", help="tensor of two serialized modules")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("filtration",
                       help="extract and certify a filtration")
    p.add_argument("module")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--kind", default="standard",
                   choices=["standard", "costandard"])

    p = sub.add_parser("jh", help="composition factors")
    p.add_argument("module")

    p = sub.add_parser("typical", help="typicality of a weight")
    p.add_argument("--weight", required=True)

    p = sub.add_parser("bgg", help="BGG reciprocity table")
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--weights", default=None,
                   help="comma-separated weights (default: the atypical "
                        "integer window plus two typicals)")

    p = sub.add_parser("pcover", help="build a projective cover")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--twist", type=int, default=0)

    p = sub.add_parser("pcover-certify",
                       help="re-certify a serialized cover")
    p.add_argument("module")

    p = sub.add_parser("verify-cert",
                       help="re-check a filtration certificate")
    p.add_argument("certificate")

    p = sub.add_parser("act", help="evaluate a generator word")
    p.add_argument("module")
    p.add_argument("--word", required=True,
                   help="whitespace-separated generators, leftmost "
                        "acts last")

    p = sub.add_parser("suite", help="the aggregated verification suite")
    p.add_argument("--max-i", type=int, default=None)
    p.add_argument("--max-m", type=int, default=None)

    return ap


# options whose value may be a negative fraction such as -3/2
FRACTION_OPTIONS = ("--weight", "--weights")


def _attach_fraction_values(argv):
    """Join "--weight -3/2" into "--weight=-3/2".

    argparse reads a separate token that starts with "-" as a flag unless
    it is a plain negative number, so "-3/2" would be taken for one.
    """
    out = []
    for a in argv:
        if (out and out[-1] in FRACTION_OPTIONS and a.startswith("-")
                and a[1:2].isdigit()):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


_parser = None  # built by the first main() call, then reused


def main(argv=None):
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parser.parse_args(_attach_fraction_values(argv))
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    rep = Report()
    start = time.time()
    try:
        # looked up by name on each call, so a cmd_ function replaced
        # after the parser was built is the one that runs
        globals()["cmd_" + args.verb.replace("-", "_")](args, rep)
    except RejectedInputError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return USAGE_EXIT
    except (UqwbError, OSError, json.JSONDecodeError, KeyError) as exc:
        rep.add("diagnostic: %s" % exc, False, repr(exc))
    try:
        emit_report(rep, args.fmt, start)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (uqwb ... | head -1): what is left of
        # the report goes to devnull, as the signal module's docs advise,
        # and the exit code is still the report's
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if rep.status == "pass" else FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
