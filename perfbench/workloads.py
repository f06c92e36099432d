"""The benchmark's workloads: seeded inputs, one timed round, checks.

A workload is built from a seed and the imported `uqwb` package.  Its
`round()` runs every operation once and returns one Op per operation
plus the outputs to check; `run.py` repeats rounds for the run length.
`verify()` checks one round's outputs against the numeric oracle and the
closed forms, `same()` compares a later round with the first, and
`self_test()` alters one checked value and returns the problems the
checks then report (empty means the checks did not bite).

Every library call goes through an attribute of `uqwb` (or `uqwb.cli`)
at call time, so the traced run's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import time
from collections import namedtuple
from fractions import Fraction

import expect
import oracle

ELLS = (5, 8)
TWISTS = (-2, -1, 1, 2)

Op = namedtuple("Op", ["name", "seconds", "failed"])

# operations are timed with this; a timed run swaps in the clock of a
# speed sampler (speed.py) for its rounds
clock = time.perf_counter


def _blocks(dump):
    """weight -> block dimension, from a dump's labels."""
    out = {}
    for lab in dump["labels"]:
        w = Fraction(lab["weight"])
        out[w] = out.get(w, 0) + 1
    return out


class Workload:
    name = ""

    def __init__(self, uqwb, seed, workdir):
        self.uqwb = uqwb
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.sessions = {}

    def setup(self):
        """Construct the sessions the workload uses."""
        self.sessions = {ell: self.uqwb.Session(ell) for ell in ELLS}

    def _module_problems(self, dump, what, blocks, rebuilt=None):
        """Oracle, closed-form blocks, and exact dump/reload/rebuild."""
        uqwb = self.uqwb
        s = self.sessions[dump["session"]["ell"]]
        probs = oracle.relation_problems(dump, what)
        if _blocks(dump) != blocks:
            probs.append("%s: weight blocks %s, expected %s"
                         % (what, _blocks(dump), blocks))
        if uqwb.dump_module(uqwb.load_module(dump, s)) != dump:
            probs.append("%s: dump -> load -> dump changed it" % what)
        if rebuilt is not None and uqwb.dump_module(rebuilt) != dump:
            probs.append("%s: differs from a fresh rebuild" % what)
        return probs

    @staticmethod
    def _tamper_entry(dump):
        """A copy of dump with its first nonzero E entry increased by 1."""
        bad = copy.deepcopy(dump)
        for row in bad["E"]:
            for j, text in enumerate(row):
                if text != "(0)*t^0":
                    row[j] = text + " + (1)*t^0"
                    return bad
        raise ValueError("module has E = 0")


# ---------------------------------------------------------------------
# cover_certify
# ---------------------------------------------------------------------

class CoverCertify(Workload):
    """Build, generation check and structure certificate of covers.

    Per ell, one round certifies the covers P_i^1 (x) C_{k*ell/2} for
    every i in 0..r-2, one of them (seeded) untwisted and the others with
    k drawn from TWISTS; P_1^2, untwisted at ell 5 and with a drawn twist
    at ell 8; and runs one tensor-summand cross-construction of P_{r-2}^1.
    The seed draws twists and not indices: an m = 2 cover or a summand
    costs up to 1.5x more at one index than at another, so a drawn index
    would move the cost of a round with the seed.
    """

    name = "cover_certify"

    def __init__(self, uqwb, seed, workdir):
        super().__init__(uqwb, seed, workdir)
        self.covers = []
        self.summands = []
        for ell in ELLS:
            r = expect.rank_r(ell)
            untwisted = self.rng.randrange(r - 1)
            for i in range(r - 1):
                twist = 0 if i == untwisted else self.rng.choice(TWISTS)
                self.covers.append((ell, i, 1, twist))
            twist = 0 if ell == 5 else self.rng.choice(TWISTS)
            self.covers.append((ell, 1, 2, twist))
            self.summands.append((ell, r - 2, 1))

    def round(self):
        uqwb = self.uqwb
        ops, out = [], {"covers": [], "summands": []}
        for ell, i, m, twist in self.covers:
            s = self.sessions[ell]
            t0 = clock()
            p = uqwb.build_projective_cover(s, i, m, twist)
            gen = uqwb.verify_dominant_generation(s, p, i, m, twist)
            cert = uqwb.certify_projcover_structure(
                s, i, m, twist, seed=self.seed, module=p)
            ops.append(Op("certify", clock() - t0, False))
            out["covers"].append((p, gen, cert))
        for ell, i, m in self.summands:
            t0 = clock()
            mod = uqwb.build_via_tensor_summand(
                self.sessions[ell], i, m, seed=self.seed)
            ops.append(Op("tensor_summand", clock() - t0, False))
            out["summands"].append(mod)
        return ops, out

    def _dumps(self, out):
        return ([self.uqwb.dump_module(p) for p, _, _ in out["covers"]]
                + [self.uqwb.dump_module(m) for m in out["summands"]])

    def same(self, first, later):
        return self._dumps(first) == self._dumps(later)

    def verify(self, out):
        uqwb = self.uqwb
        probs = []
        sampled = set()
        for (ell, i, m, twist), (p, gen, cert) in zip(self.covers,
                                                      out["covers"]):
            what = "P(%d,%d) x C(%d) at ell %d" % (i, m, twist, ell)
            s = self.sessions[ell]
            for rep, kind in ((gen, "generation"), (cert, "certificate")):
                bad = [it["check"] for it in rep["items"] if not it["ok"]]
                if rep["status"] != "pass" or bad:
                    probs.append("%s: %s failed %s" % (what, kind, bad))
            if p.dim != expect.cover_dim(ell, m):
                probs.append("%s: dim %d" % (what, p.dim))
            probs += self._module_problems(
                uqwb.dump_module(p), what, expect.cover_blocks(ell, i, m,
                                                               twist),
                uqwb.build_projective_cover(s, i, m, twist))
            if m == 1 and twist and ell not in sampled:
                sampled.add(ell)
                for kind, cert_of, want in (
                        ("standard", uqwb.extract_standard_filtration,
                         expect.standard_weights(ell, i, twist)),
                        ("costandard", uqwb.extract_costandard_filtration,
                         expect.costandard_weights(ell, i, twist))):
                    got = cert_of(p, m)
                    got = None if got is None else got.quotient_weights()
                    if got != want:
                        probs.append("%s: %s quotient weights %s"
                                     % (what, kind, got))
        for (ell, i, m), mod in zip(self.summands, out["summands"]):
            what = "tensor summand P(%d,%d) at ell %d" % (i, m, ell)
            if mod.dim != expect.cover_dim(ell, m):
                probs.append("%s: dim %d" % (what, mod.dim))
            probs += self._module_problems(
                uqwb.dump_module(mod), what, expect.cover_blocks(ell, i, m,
                                                                 0))
        return probs

    def self_test(self, out):
        dump = self.uqwb.dump_module(out["covers"][0][0])
        return oracle.relation_problems(self._tamper_entry(dump), "tampered")


# ---------------------------------------------------------------------
# bgg_degree0
# ---------------------------------------------------------------------

SHIFTS = (-4, -3, -2, 2, 3, 4)


def _window(ell, shift, rng):
    """The CLI default's integer range moved by shift*r, plus two typical
    weights off the integers drawn from that range."""
    r = expect.rank_r(ell)
    lo, hi = -(r - 1) + shift * r, 2 * r - 2 + shift * r
    ints = [Fraction(w) for w in range(lo, hi + 1)]
    halves = [Fraction(2 * w + 1, 2) for w in range(lo, hi)]
    typical = [w for w in halves if expect.atypical_pair(ell, w) is None]
    return ints + sorted(rng.sample(typical, 2))


class BggDegree0(Workload):
    """Degree-0 BGG tables over three weight windows per ell: the CLI
    default's range and two copies moved by seeded multiples of r (from
    SHIFTS, where every atypical weight carries a nonzero twist)."""

    name = "bgg_degree0"

    def __init__(self, uqwb, seed, workdir):
        super().__init__(uqwb, seed, workdir)
        self.windows = []
        for ell in ELLS:
            for shift in [0] + self.rng.sample(SHIFTS, 2):
                self.windows.append((ell, _window(ell, shift, self.rng)))

    def round(self):
        ops, tables = [], []
        for ell, weights in self.windows:
            t0 = clock()
            cells = self.uqwb.bgg_table(self.sessions[ell], 0, weights,
                                        seed=self.seed)
            ops.append(Op("bgg_table", clock() - t0, False))
            tables.append(cells)
        return ops, tables

    def same(self, first, later):
        return first == later

    @staticmethod
    def cell_problems(ell, weights, cells):
        want = [(lam, mu) for lam in weights for mu in weights]
        if [c[0] for c in cells] != want:
            return ["ell %d: table cells are not the window's pairs" % ell]
        probs = []
        for (lam, mu), a, b, ok in cells:
            e = expect.bgg_cell(ell, lam, mu)
            if (a, b, ok) != (e, e, True):
                probs.append("ell %d cell (%s, %s): filtration %s, "
                             "composition %s, expected %d"
                             % (ell, lam, mu, a, b, e))
        return probs

    def verify(self, tables):
        uqwb = self.uqwb
        probs = []
        for (ell, weights), cells in zip(self.windows, tables):
            probs += self.cell_problems(ell, weights, cells)
        seen = set()
        for ell, weights in self.windows:
            s = self.sessions[ell]
            for mu in weights:
                if (ell, mu) in seen:
                    continue
                seen.add((ell, mu))
                factors = uqwb.jordan_holder(
                    uqwb.build_generalized_verma(s, mu, 0))
                total = sum(n * expect.simple_dim(ell, lab)
                            for lab, n in factors.items())
                if total != expect.rank_r(ell):
                    probs.append("ell %d: factors of V(%s,0) fill %d"
                                 % (ell, mu, total))
        return probs

    def self_test(self, tables):
        ell, weights = self.windows[0]
        cells = list(tables[0])
        (pair, a, b, ok) = cells[0]
        cells[0] = (pair, a + 1, b, ok)
        return self.cell_problems(ell, weights, cells)


# ---------------------------------------------------------------------
# cli_artifacts
# ---------------------------------------------------------------------

WORD_LETTERS = ("E", "F", "H", "K", "Kinv")
# per ell: verma, simple, cover, dual, tensor, and the two act matrices
STEMS = ("v", "s", "p", "d", "t", "ap", "av")

# L_1 at ell 5 as `build simple --i 1 --out` writes it; the malformed
# dumps below are edits of it that do not depend on the seed.
_SIMPLE_L1 = {
    "E": [["(0)*t^0", "(1)*t^0"], ["(0)*t^0", "(0)*t^0"]],
    "F": [["(0)*t^0", "(0)*t^0"], ["(1)*t^0", "(0)*t^0"]],
    "H": [["(1)*t^0", "(0)*t^0"], ["(0)*t^0", "(-1)*t^0"]],
    "dim": 2,
    "labels": [{"degree": 0, "tag": "s0", "weight": "1"},
               {"degree": 0, "tag": "s1", "weight": "-1"}],
    "max_degree": 0,
    "session": {"M": 20, "N": 2, "ell": 5, "mode": "exponential", "r": 5},
}


def _malformed():
    """name -> a dump that `verify` must reject with exit code 1 or 2."""
    out = {}
    d = copy.deepcopy(_SIMPLE_L1)
    d["session"]["ell"] = "x"
    out["bad_ell"] = d
    d = copy.deepcopy(_SIMPLE_L1)
    d["E"].append(["(0)*t^0", "(0)*t^0"])
    out["extra_row"] = d
    d = copy.deepcopy(_SIMPLE_L1)
    d["E"][0][1] = "(1/0)*t^0"
    out["zero_denominator"] = d
    d = copy.deepcopy(_SIMPLE_L1)
    for row in d["E"]:
        row.append("(0)*t^0")
    d["E"][0][2] = "(1)*t^0"
    out["extra_column"] = d
    return out


class CliArtifacts(Workload):
    """The artifact verbs of `uqwb.cli.main`, in-process, at degree 2.

    Per ell: `build verma` (seeded weight), `build simple --i 1` and
    `pcover --i 1` (seeded nonzero twist) with --out; then `verify`,
    `decomp`, `dual --out`, `tensor --out` and `act --word --out`
    (seeded words) on those files.  Four malformed dumps go to `verify`.
    """

    name = "cli_artifacts"

    def __init__(self, uqwb, seed, workdir):
        super().__init__(uqwb, seed, workdir)
        self.plans = []
        for ell in ELLS:
            r = expect.rank_r(ell)
            weights = [Fraction(w, 2) for w in range(-2 * (r - 1),
                                                     4 * r - 3)]
            self.plans.append({
                "ell": ell,
                "weight": self.rng.choice(weights),
                # not drawn: the cost of an m = 2 cover varies with i
                "i": 1,
                "twist": self.rng.choice((-1, 1, 2)),
                "words": [" ".join(self.rng.choice(WORD_LETTERS)
                                   for _ in range(3)) for _ in range(2)],
            })
        self.bad = {}
        for name, dump in _malformed().items():
            path = os.path.join(workdir, name + ".json")
            with open(path, "w") as fh:
                json.dump(dump, fh)
            self.bad[name] = path

    def _path(self, stem, ell):
        return os.path.join(self.workdir, "%s%d.json" % (stem, ell))

    def _argvs(self, plan):
        ell = plan["ell"]
        f = {k: self._path(k, ell) for k in STEMS}
        g = ["--seed", str(self.seed), "--format", "json"]
        e = ["--ell", str(ell)] + g
        return [
            # "--weight=-3/2": argparse takes a separate "-3/2" for a flag
            e + ["build", "verma", "--weight=%s" % plan["weight"],
                 "--degree", "2", "--out", f["v"]],
            e + ["build", "simple", "--i", "1", "--out", f["s"]],
            e + ["pcover", "--i", str(plan["i"]), "--m", "2", "--twist",
                 str(plan["twist"]), "--out", f["p"]],
            g + ["verify", f["v"]],
            g + ["verify", f["p"]],
            g + ["decomp", f["p"]],
            g + ["dual", f["p"], "--out", f["d"]],
            g + ["verify", f["d"]],
            g + ["tensor", f["v"], f["s"], "--out", f["t"]],
            g + ["verify", f["t"]],
            g + ["act", f["p"], "--word", plan["words"][0], "--out",
                 f["ap"]],
            g + ["act", f["v"], "--word", plan["words"][1], "--out",
                 f["av"]],
        ]

    def _call(self, argv):
        """(exit code or None, stdout, uncaught exception or None, s)."""
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc, exc = self.uqwb.cli.main(argv), None
        except Exception as e:  # an uncaught exception is the fault counted
            rc, exc = None, e
        return rc, buf.getvalue(), exc, clock() - t0

    def round(self):
        ops, out = [], {"reports": [], "files": {}}
        for plan in self.plans:
            for argv in self._argvs(plan):
                rc, text, exc, dt = self._call(argv)
                ops.append(Op(argv[argv.index("--format") + 2], dt,
                              rc != 0 or exc is not None))
                out["reports"].append((argv, rc, text, exc))
        for name, path in sorted(self.bad.items()):
            rc, text, exc, dt = self._call(["--format", "json", "verify",
                                            path])
            ops.append(Op("malformed_" + name, dt,
                          rc not in (1, 2) or exc is not None))
        for plan in self.plans:
            for stem in STEMS:
                path = self._path(stem, plan["ell"])
                if os.path.exists(path):
                    with open(path) as fh:
                        out["files"][os.path.basename(path)] = json.load(fh)
        return ops, out

    @staticmethod
    def _report(text):
        rep = json.loads(text)
        rep.pop("seconds", None)
        return rep

    def same(self, first, later):
        if first["files"] != later["files"]:
            return False
        return all(a[1] == b[1] and self._report(a[2]) == self._report(b[2])
                   for a, b in zip(first["reports"], later["reports"]))

    def verify(self, out):
        uqwb = self.uqwb
        probs = []
        for argv, rc, text, exc in out["reports"]:
            if rc != 0 or exc is not None:
                continue  # counted as a failed operation
            if self._report(text)["status"] != "pass":
                probs.append("%s: report did not pass" % " ".join(argv))
        files = out["files"]
        missing = [n for n in ("%s%d.json" % (stem, ell) for ell in ELLS
                               for stem in STEMS) if n not in files]
        if missing:
            return probs + ["files not written: %s" % missing]
        for plan in self.plans:
            ell, w, i, tw = (plan["ell"], plan["weight"], plan["i"],
                             plan["twist"])
            s = self.sessions[ell]
            v = uqwb.build_generalized_verma(s, w, 2)
            simple = uqwb.build_simple(s, 1)
            p = uqwb.build_projective_cover(s, i, 2, tw)
            pb = expect.cover_blocks(ell, i, 2, tw)
            tb = {}
            for a, na in expect.verma_blocks(ell, w, 2).items():
                for b in (Fraction(1), Fraction(-1)):
                    tb[a + b] = tb.get(a + b, 0) + na
            for stem, blocks, rebuilt in (
                    ("v", expect.verma_blocks(ell, w, 2), v),
                    ("s", {Fraction(1): 1, Fraction(-1): 1}, simple),
                    ("p", pb, p),
                    ("d", pb, uqwb.build_dual(p)),
                    ("t", tb, uqwb.build_tensor(v, simple))):
                name = "%s%d.json" % (stem, ell)
                probs += self._module_problems(files[name], name, blocks,
                                               rebuilt)
            for stem, src, word in (("ap", "p", plan["words"][0]),
                                    ("av", "v", plan["words"][1])):
                probs += oracle.word_problems(
                    files["%s%d.json" % (src, ell)], word,
                    files["%s%d.json" % (stem, ell)], "act %r" % word)
            decomp = [json.loads(text) for argv, rc, text, exc
                      in out["reports"]
                      if "decomp" in argv and rc == 0 and exc is None
                      and argv[-1] == self._path("p", ell)]
            got = {}
            for it in decomp[0]["items"] if decomp else []:
                if it["check"].startswith("weight "):
                    head, dims = it["check"][7:].split(": dim ")
                    got[Fraction(head)] = int(dims.split(",")[0])
            if got != pb:
                probs.append("decomp p%d.json: blocks %s, expected %s"
                             % (ell, got, pb))
        return probs

    def self_test(self, out):
        name = "p%d.json" % ELLS[0]
        return oracle.relation_problems(
            self._tamper_entry(out["files"][name]), "tampered")


WORKLOADS = {w.name: w for w in (CoverCertify, BggDegree0, CliArtifacts)}
