"""The command-line front end: verbs, exit codes, artifacts,
round-trips, and determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import tau_conjugated

import uqwb
from uqwb import (
    Session,
    build_generalized_verma,
    dump_module,
    extract_standard_filtration,
    typicality,
)
from uqwb.cli import default_bgg_weights, main, typical_weights
from uqwb.projectives import build_projective_cover
from uqwb.session import MAX_ORDER


# more digits than int() reads by default (sys.get_int_max_str_digits())
LONG_DIGITS = "1" * 4301


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_verma_emits_dump(tmp_path, capsys):
    out = tmp_path / "v.json"
    code, text = run(capsys, "--ell", "8", "build", "verma",
                     "--weight", "1", "--degree", "1",
                     "--out", str(out))
    assert code == 0
    assert "status: pass" in text
    data = json.loads(out.read_text())
    assert data["dim"] == 8


def test_verify_round_trip_report(tmp_path, capsys):
    """build -> dump -> load -> verify matches in-memory verification."""
    out = tmp_path / "v.json"
    code, text = run(capsys, "--ell", "5", "--format", "json",
                     "build", "verma", "--weight", "2", "--degree", "1",
                     "--out", str(out))
    assert code == 0
    built = json.loads(text)
    code, text = run(capsys, "--format", "json", "verify", str(out))
    assert code == 0
    verified = json.loads(text)
    built_rel = [it for it in built["items"]
                 if it["check"].startswith("relations")]
    verified_rel = [it for it in verified["items"]
                    if it["check"].startswith("relations")]
    assert built_rel == verified_rel


def test_typical_verb(capsys):
    code, text = run(capsys, "--ell", "8", "typical", "--weight", "1/2")
    assert code == 0
    assert "typical" in text
    code, text = run(capsys, "--ell", "8", "typical", "--weight", "0")
    assert code == 0
    assert "atypical" in text


def test_weight_text_forms(capsys):
    """A weight is an integer, p/q or a plain decimal.  An exponent form
    exits 2 before Fraction would expand 10**exponent."""
    for text in ("1/2", "0.5", ".5", "+1/2"):
        code, out = run(capsys, "--ell", "8", "typical", "--weight", text)
        assert code == 0 and "weight %s is typical" % text in out
    for text in ("5e-1", "1e99999999", "1E5", "1_0", "1/-2", "", "3/0",
                 LONG_DIGITS, "0." + LONG_DIGITS, "1/" + LONG_DIGITS):
        assert run(capsys, "--ell", "8", "typical", "--weight", text)[0] == 2
    for bad in ("1e0", LONG_DIGITS):
        assert run(capsys, "--ell", "8", "build", "verma",
                   "--weight", bad)[0] == 2
        assert run(capsys, "--ell", "8", "bgg", "--weights",
                   "0," + bad)[0] == 2


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "nonsense-verb")
    assert code == 2
    code, _ = run(capsys, "typical", "--weight", "1")  # missing --ell
    assert code == 2
    code, _ = run(capsys, "--ell", "3", "suite", "--max-i", "5")
    assert code == 2


def test_session_above_the_ceiling_exits_2(capsys, tmp_path):
    # M = 2*N*ell: 2*2*1025 and 2*410*5 both exceed 4096
    code, _ = run(capsys, "--ell", "1025", "typical", "--weight", "1")
    assert code == 2
    code, _ = run(capsys, "--ell", "5", "--weight-denominator", "410",
                  "typical", "--weight", "1")
    assert code == 2
    data = copy.deepcopy(SIMPLE_L1)
    data["session"]["ell"] = 1025
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "verify", str(bad))
    assert code == 2


def test_missing_file_exits_1(capsys):
    code, text = run(capsys, "verify", "no-such-file.json")
    assert code == 1
    assert "FAIL" in text


def test_pcover_and_certify(tmp_path, capsys):
    out = tmp_path / "p.json"
    code, text = run(capsys, "--ell", "8", "pcover", "--i", "1",
                     "--m", "1", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 16
    code, text = run(capsys, "pcover-certify", str(out))
    assert code == 0
    assert "identified as cover (i=1, m=1, twist=0)" in text


def test_pcover_certify_builds_no_theta_dual(tmp_path, capsys,
                                            monkeypatch):
    """pcover-certify reads the cover's top on the transpose dual, the
    dual the certification reads too, and never calls build_dual: with
    build_dual made to raise, P(1,2) at ell 5 gives the same report, and
    under paper-literal it still fails with derive_K's diagnostic."""
    import uqwb.cli as cli

    out = tmp_path / "p.json"
    assert run(capsys, "--ell", "5", "pcover", "--i", "1", "--m", "2",
               "--out", str(out))[0] == 0

    def report():
        code, text = run(capsys, "pcover-certify", str(out))
        return code, text[:text.rindex("seconds:")]

    want = report()

    def refuse(mod):
        raise AssertionError("build_dual called on %s" % mod.name)

    monkeypatch.setattr(cli, "build_dual", refuse)
    assert report() == want
    assert want[0] == 0 and "identified as cover (i=1, m=2" in want[1]
    code, text = run(capsys, "--mode", "paper-literal", "pcover-certify",
                     str(out))
    assert code == 1
    assert "[FAIL] diagnostic: paper-literal coefficients" in text


def test_filtration_and_verify_cert(tmp_path, capsys):
    vout = tmp_path / "v.json"
    run(capsys, "--ell", "5", "build", "verma", "--weight", "1",
        "--degree", "0", "--out", str(vout))
    cout = tmp_path / "c.json"
    code, text = run(capsys, "filtration", str(vout), "--degree", "0",
                     "--out", str(cout))
    assert code == 0
    code, text = run(capsys, "verify-cert", str(cout))
    assert code == 0
    assert "status: pass" in text


def test_verify_cert_reads_the_session_flags(tmp_path, capsys):
    """verify-cert loads the certificate's module in the session of the
    flags when --ell is given, as verify loads a dump: a certificate of
    another ell is a usage error naming both, and under paper-literal a
    degree-2 certificate fails with that mode's diagnostic, exit code 1,
    as verify of its module does."""
    vout, cout = tmp_path / "v.json", tmp_path / "c.json"
    assert run(capsys, "--ell", "5", "build", "verma", "--weight", "1",
               "--degree", "2", "--out", str(vout))[0] == 0
    assert run(capsys, "filtration", str(vout), "--degree", "2",
               "--out", str(cout))[0] == 0
    assert run(capsys, "--ell", "5", "verify-cert", str(cout))[0] == 0
    code = main(["--ell", "8", "verify-cert", str(cout)])
    assert code == 2
    assert ("the dump is for ell 5, N 2, not the session's ell 8, N 2"
            in capsys.readouterr().err)
    literal = ("--ell", "5", "--mode", "paper-literal")
    for verb, path in (("verify", vout), ("verify-cert", cout)):
        code, text = run(capsys, *literal, verb, str(path))
        assert code == 1, verb
        assert "[FAIL] diagnostic: paper-literal coefficients" in text, verb


def _verma_and_certificate(tmp_path, capsys):
    """V(1, 2) at ell 5, N 2, dumped, and its standard certificate."""
    vout, cout = tmp_path / "v.json", tmp_path / "c.json"
    assert run(capsys, "--ell", "5", "build", "verma", "--weight", "1",
               "--degree", "2", "--out", str(vout))[0] == 0
    assert run(capsys, "filtration", str(vout), "--degree", "2",
               "--out", str(cout))[0] == 0
    return vout, cout


def test_mode_without_ell_reads_the_dump_in_that_mode(tmp_path, capsys):
    """--mode alone reads a dump at its own ell in the flag's mode: under
    paper-literal, V(1, 2) and its certificate fail with that mode's
    diagnostic, exit code 1, as with --ell 5; with no flag, the dump's
    own exponential mode passes."""
    paths = _verma_and_certificate(tmp_path, capsys)
    for verb, path in zip(("verify", "verify-cert"), paths):
        assert run(capsys, verb, str(path))[0] == 0, verb
        code, text = run(capsys, "--mode", "paper-literal", verb, str(path))
        assert code == 1, verb
        assert "[FAIL] diagnostic: paper-literal coefficients" in text, verb


def test_weight_denominator_without_ell_is_compared(tmp_path, capsys):
    """--weight-denominator alone reads a dump at its own ell with the
    flag's N: an N 2 dump under --weight-denominator 4 is a usage error
    naming both, exit code 2, and under --weight-denominator 2 it
    passes."""
    paths = _verma_and_certificate(tmp_path, capsys)
    for verb, path in zip(("verify", "verify-cert"), paths):
        assert run(capsys, "--weight-denominator", "2", verb,
                   str(path))[0] == 0, verb
        code = main(["--weight-denominator", "4", verb, str(path)])
        assert code == 2, verb
        assert ("the dump is for ell 5, N 2, not the session's ell 5, N 4"
                in capsys.readouterr().err), verb


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    fileno() is a file of the test's, which main points at devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("argv, want", [
    (("verify",), 0),
    (("--mode", "paper-literal", "verify"), 1),
])
def test_closed_stdout_keeps_the_report_exit_code(tmp_path, capsys,
                                                  monkeypatch, argv, want):
    """uqwb ... | head -1: a reader that closes stdout early raises
    BrokenPipeError on the report's write; main returns the report's own
    exit code, 0 for a pass and 1 for a failure, and stdout is then
    devnull."""
    vout = _verma_and_certificate(tmp_path, capsys)[0]
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        assert main([*argv, str(vout)]) == want
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_tensor_and_jh_and_decomp(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "--ell", "5", "build", "verma", "--weight", "1",
        "--degree", "0", "--out", str(a))
    run(capsys, "--ell", "5", "build", "simple", "--i", "1",
        "--out", str(b))
    t = tmp_path / "t.json"
    code, _ = run(capsys, "tensor", str(a), str(b), "--out", str(t))
    assert code == 0
    assert json.loads(t.read_text())["dim"] == 10
    code, text = run(capsys, "jh", str(t))
    assert code == 0
    code, text = run(capsys, "decomp", str(t))
    assert code == 0
    assert "dimensions sum to 10" in text


def test_act_verb(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "--ell", "8", "build", "simple", "--i", "2",
        "--out", str(a))
    m = tmp_path / "m.json"
    code, text = run(capsys, "act", str(a), "--word", "E F", "--out",
                     str(m))
    assert code == 0
    mat = json.loads(m.read_text())
    assert len(mat) == 3


def test_dual_verb(tmp_path, capsys):
    a = tmp_path / "a.json"
    run(capsys, "--ell", "8", "build", "verma", "--weight", "0",
        "--degree", "1", "--out", str(a))
    d = tmp_path / "d.json"
    code, _ = run(capsys, "dual", str(a), "--out", str(d))
    assert code == 0
    assert json.loads(d.read_text())["dim"] == 8


def test_bgg_verb_and_determinism(tmp_path, capsys):
    outs = []
    for name in ("t1.json", "t2.json"):
        out = tmp_path / name
        code, _ = run(capsys, "--ell", "8", "bgg", "--m", "0",
                      "--weights", "0,1", "--seed", "7",
                      "--out", str(out))
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_paper_literal_mode_diagnostic(capsys):
    code, text = run(capsys, "--ell", "5", "--mode", "paper-literal",
                     "build", "verma", "--weight", "1", "--degree", "2")
    assert code == 1
    assert "paper-literal" in text


def test_suite_small(capsys):
    code, text = run(capsys, "--ell", "8", "suite", "--max-i", "1",
                     "--max-m", "0")
    assert code == 0
    assert "status: pass" in text


# L_1 at ell 5 as `build simple --i 1 --out` writes it
SIMPLE_L1 = {
    "E": [["(0)*t^0", "(1)*t^0"], ["(0)*t^0", "(0)*t^0"]],
    "F": [["(0)*t^0", "(0)*t^0"], ["(1)*t^0", "(0)*t^0"]],
    "H": [["(1)*t^0", "(0)*t^0"], ["(0)*t^0", "(-1)*t^0"]],
    "dim": 2,
    "labels": [{"degree": 0, "tag": "s0", "weight": "1"},
               {"degree": 0, "tag": "s1", "weight": "-1"}],
    "max_degree": 0,
    "session": {"M": 20, "N": 2, "ell": 5, "mode": "exponential", "r": 5},
}


def _bad_ell(d):
    d["session"]["ell"] = "x"


def _extra_row(d):
    d["E"].append(["(0)*t^0", "(0)*t^0"])


def _zero_denominator(d):
    d["E"][0][1] = "(1/0)*t^0"


def _zero_polynomial_denominator(d):
    d["E"][0][1] = "(1) / (0)"


def _empty_denominator(d):
    d["E"][0][1] = "(1)*t^0 /"


def _extra_column(d):
    for row in d["E"]:
        row.append("(0)*t^0")
    d["E"][0][2] = "(1)*t^0"


def _extra_zero_column(d):
    for row in d["E"]:
        row.append("(0)*t^0")


def _off_lattice_weight(d):
    d["labels"][0]["weight"] = "1/3"


def _negative_max_degree(d):
    d["max_degree"] = -1


def _label_degree_above_max(d):
    # dual would write the degree max_degree - 1 = -1 for this label
    d["labels"][0]["degree"] = 1


def _exponent_weight(d):
    # the value 1, in the exponent form that Fraction would expand
    d["labels"][0]["weight"] = "1e0"


def _long_weight(d):
    d["labels"][0]["weight"] = LONG_DIGITS


def _long_coefficient(d):
    d["E"][0][1] = "(%s)*t^0" % LONG_DIGITS


def _long_denominator(d):
    d["E"][0][1] = "(1/%s)*t^0" % LONG_DIGITS


def _long_zeta_exponent(d):
    d["E"][0][1] = "(z^%s)*t^0" % LONG_DIGITS


def _long_tau_exponent(d):
    d["E"][0][1] = "(1)*t^" + LONG_DIGITS


def _huge_tau_exponent(d):
    # refused before a billion-entry coefficient tuple is built
    d["E"][0][1] = "(1)*t^1000000000"


@pytest.mark.parametrize("edit", [_bad_ell, _extra_row, _zero_denominator,
                                  _zero_polynomial_denominator,
                                  _empty_denominator, _extra_column,
                                  _extra_zero_column, _off_lattice_weight, _negative_max_degree,
                                  _label_degree_above_max,
                                  _exponent_weight, _long_weight,
                                  _long_coefficient, _long_denominator,
                                  _long_zeta_exponent, _long_tau_exponent,
                                  _huge_tau_exponent],
                         ids=lambda f: f.__name__[1:])
def test_malformed_dump_rejected(tmp_path, capsys, edit):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SIMPLE_L1))
    assert run(capsys, "verify", str(good))[0] == 0
    data = copy.deepcopy(SIMPLE_L1)
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "verify", str(bad))
    assert code == 2


def test_tau_conjugated_dump_loads(tmp_path, capsys):
    """V(1, 1) conjugated by diag(tau^5, 1, ...) has max_degree 1 and a
    tau^6 entry: a valid dump that the exponent ceiling keeps."""
    mod = tau_conjugated(build_generalized_verma(Session(5), 1, 1), 5)
    path = tmp_path / "conj.json"
    path.write_text(json.dumps(dump_module(mod)))
    assert mod.max_degree == 1 and "t^6" in path.read_text()
    assert run(capsys, "verify", str(path))[0] == 0


def test_unreadable_json_rejected(tmp_path, capsys, verma_certificate):
    """A file Python cannot read as a JSON document exits 2: an integer
    longer than int() reads, or bytes that are not UTF-8.  Text that is
    not JSON at all stays a failed check, exit 1."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SIMPLE_L1))
    text = json.dumps(SIMPLE_L1).replace('"dim": 2', '"dim": ' + LONG_DIGITS)
    assert text != json.dumps(SIMPLE_L1)
    long_int = tmp_path / "long.json"
    long_int.write_text(text)
    text = json.dumps(verma_certificate)
    cert = tmp_path / "cert.json"
    cert.write_text(text.replace('"degree": 0', '"degree": ' + LONG_DIGITS))
    assert cert.read_text() != text
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe{}")
    for argv in (["verify", str(long_int)], ["verify", str(raw)],
                 ["tensor", str(good), str(long_int)],
                 ["verify-cert", str(cert)], ["verify-cert", str(raw)]):
        assert run(capsys, *argv)[0] == 2, argv
    (tmp_path / "text.json").write_text("not json")
    assert run(capsys, "verify", str(tmp_path / "text.json"))[0] == 1


def test_same_bad_text_in_two_entries_rejected(tmp_path, capsys):
    data = copy.deepcopy(SIMPLE_L1)
    data["E"][0][1] = data["F"][1][0] = "(1/0)*t^0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(capsys, "verify", str(bad))[0] == 2
    data["E"][0][1] = data["F"][1][0] = "(1)*u^0"
    bad.write_text(json.dumps(data))
    assert run(capsys, "verify", str(bad))[0] == 2


@pytest.mark.parametrize("value", [1, 1.0, True, None, ["(1)*t^0"]],
                         ids=["int", "float", "bool", "null", "list"])
def test_non_string_entry_after_equal_string_rejected(tmp_path, capsys,
                                                      value):
    """E[0][1] is the text "(1)*t^0"; a later F entry that looks like it
    but is not a string is still refused."""
    data = copy.deepcopy(SIMPLE_L1)
    data["F"][1][0] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert run(capsys, "verify", str(bad))[0] == 2


@pytest.fixture
def dumps_5_and_8(tmp_path, capsys):
    """Paths of L_1 at ell 5 and V(1,1) at ell 8, written by `build`."""
    s5, v8 = tmp_path / "s5.json", tmp_path / "v8.json"
    assert run(capsys, "--ell", "5", "build", "simple", "--i", "1",
               "--out", str(s5))[0] == 0
    assert run(capsys, "--ell", "8", "build", "verma", "--weight", "1",
               "--degree", "1", "--out", str(v8))[0] == 0
    return s5, v8


@pytest.mark.parametrize("argv", [
    ["tensor", "v8", "s5"],
    ["--ell", "8", "verify", "s5"],
    ["--ell", "5", "verify", "v8"],
    ["--ell", "5", "--weight-denominator", "4", "verify", "s5"],
], ids=["tensor", "ell8_s5", "ell5_v8", "n4_s5"])
def test_dump_of_another_session_rejected(tmp_path, capsys, dumps_5_and_8,
                                          argv):
    paths = dict(zip(("s5", "v8"), map(str, dumps_5_and_8)))
    out = tmp_path / "out.json"
    argv = [paths.get(a, a) for a in argv] + ["--out", str(out)]
    assert run(capsys, *argv)[0] == 2
    assert not out.exists()


def test_dump_of_the_same_session_accepted(capsys, dumps_5_and_8):
    s5, v8 = map(str, dumps_5_and_8)
    assert run(capsys, "--ell", "5", "verify", s5)[0] == 0
    assert run(capsys, "--ell", "8", "verify", v8)[0] == 0
    # the coefficient mode is not compared
    assert run(capsys, "--ell", "5", "--mode", "paper-literal",
               "verify", s5)[0] == 0


def _dropper(*path):
    """An edit deleting the key at the end of path (keys and indices)."""
    def edit(d):
        for k in path[:-1]:
            d = d[k]
        del d[path[-1]]
    edit.__name__ = "_" + "_".join(str(k) for k in path)
    return edit


@pytest.mark.parametrize("edit", [_dropper(k) for k in
                                  ("session", "dim", "max_degree", "labels",
                                   "E", "F", "H")]
                         + [_dropper("session", "ell"),
                            _dropper("labels", 0, "weight"),
                            _dropper("labels", 0, "degree")],
                         ids=lambda f: f.__name__[1:])
def test_dump_missing_key_rejected(tmp_path, capsys, edit):
    data = copy.deepcopy(SIMPLE_L1)
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "verify", str(bad))
    assert code == 2


@pytest.mark.parametrize("argv", [["jh"], ["filtration", "--degree", "0"],
                                  ["pcover-certify"]],
                         ids=lambda a: a[0])
def test_ungraded_module_reported(tmp_path, capsys, argv):
    """E[0][0] = 1 maps weight 1 to weight 1: every structural verb must
    say so, not answer."""
    data = copy.deepcopy(SIMPLE_L1)
    data["E"][0][0] = "(1)*t^0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, text = run(capsys, argv[0], str(bad), *argv[1:])
    assert code == 1
    assert "ModuleInvalidError" in text
    assert "entry (0,0)" in text
    assert "of loaded" in text
    assert "maps weight 1 to weight 1" in text


# SHA-256 of the --format json report, "seconds" removed, of each verb run
# in a scratch directory: at ell 5, P(1,1) is built, certified and given a
# standard filtration certificate, and an L_1 dump with E entry (0,1)
# doubled fails exactly one relation, with a witness; at ell 8, the
# degree-0 BGG table over the default window
CLI_REPORT_SHA256 = {
    "pcover":
        "d9911bc2728b91b81c9342adb7fa99d1c39b3a266b68acefdfab45895bfd77bb",
    "pcover-certify":
        "6440d56536443261b8ee7a92dd395ca4655e314a9ba90bafc5cc6dfb4596598d",
    "filtration":
        "45466fec8983a303b158cf1a5b55f5f92d7757c74ce51a442b5388f57b42b6be",
    "verify-cert":
        "388945a82d7abd2fe80ee87ba2bffea02619ae8dd953eb835c9fcb46811a0ceb",
    "verify":
        "43c50e3e3f72a9b7018aa90e3484bf71850d5b421a182153e44e80f3189bc1ba",
    "bgg":
        "bfc3d7ea9cdb4df84b362645309a2c327cfe9a26e02eef5dfb672ff50ea3dedb",
}


def test_json_report_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = copy.deepcopy(SIMPLE_L1)
    data["E"][0][1] = "(2)*t^0"
    (tmp_path / "tampered.json").write_text(json.dumps(data))
    runs = [
        (0, ["--ell", "5", "pcover", "--i", "1", "--m", "1",
             "--out", "p.json"]),
        (0, ["pcover-certify", "p.json"]),
        (0, ["filtration", "p.json", "--degree", "1", "--out", "c.json"]),
        (0, ["verify-cert", "c.json"]),
        (1, ["verify", "tampered.json"]),
        (0, ["--ell", "8", "bgg", "--m", "0"]),
    ]
    digests = {}
    for code, argv in runs:
        got, text = run(capsys, "--format", "json", *argv)
        assert got == code, text
        rep = json.loads(text)
        del rep["seconds"]
        verb = argv[2] if argv[0] == "--ell" else argv[0]
        digests[verb] = hashlib.sha256(
            json.dumps(rep, indent=1).encode()).hexdigest()
    assert digests == CLI_REPORT_SHA256


def test_parser_built_once_per_process(monkeypatch, capsys):
    import uqwb.cli as cli

    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["--ell", "5", "typical", "--weight", "1/2"],
                 ["--ell", "5", "build", "simple", "--i", "1"],
                 ["--ell", "8", "typical", "--weight", "1"]):
        assert run(capsys, *argv)[0] == 0
    assert built == [1]
    # verbs are dispatched by name, so a cmd_ function replaced after the
    # parser was built is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_typical",
                        lambda args, rep: seen.append(args.weight))
    assert run(capsys, "--ell", "5", "typical", "--weight", "3")[0] == 0
    assert seen == ["3"] and built == [1]


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(uqwb.__file__))
    code = "import uqwb.cli as c\nassert c._parser is None\n"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    assert run(capsys, "--ell", "5", "build", "nope")[0] == 2
    assert run(capsys, "--ell", "5", "typical")[0] == 2
    code, text = run(capsys, "--ell", "8", "typical", "--weight", "1/2")
    assert code == 0
    assert "weight 1/2 is typical" in text
    out = tmp_path / "v.json"
    code, text = run(capsys, "--ell", "5", "build", "verma", "--weight=3",
                     "--degree", "1")
    assert code == 0 and "V(3,1)" in text
    code, text = run(capsys, "--ell", "8", "build", "verma",
                     "--out", str(out))
    assert code == 0 and "V(0,0)" in text
    data = json.loads(out.read_text())
    assert data["session"]["ell"] == 8
    assert data["labels"][0]["weight"] == "0"
    assert data["max_degree"] == 0


def test_default_bgg_window_has_no_repeats():
    for ell in (5, 8):
        weights = default_bgg_weights(Session(ell))
        assert len(weights) == len(set(weights))
    assert len(default_bgg_weights(Session(5))) ** 2 == 196


@pytest.mark.parametrize("ell", [3, 4, 5, 6, 7, 8, 9, 12])
def test_typical_weights_are_typical(ell):
    """The suite's splitting section and the default BGG window take
    their typical weights from typical_weights; at ell 3 and 7 the
    weight 3/2 they used to take is atypical."""
    s = Session(ell)
    weights = typical_weights(s)
    assert len(set(weights)) == 2
    assert all(typicality(s, w).typical for w in weights)
    assert set(weights) <= set(default_bgg_weights(s))


def test_suite_at_ell_3_passes(capsys):
    code, text = run(capsys, "--ell", "3", "suite")
    assert code == 0, text
    assert "splitting section at typical 1/2" in text


def test_negative_fraction_weight_as_separate_token(tmp_path, capsys):
    outs = []
    for argv in (["--weight", "-3/2"], ["--weight=-3/2"]):
        out = tmp_path / "v.json"
        code, _ = run(capsys, "--ell", "5", "build", "verma", *argv,
                      "--out", str(out))
        assert code == 0
        outs.append(json.loads(out.read_text()))
    assert outs[0] == outs[1]
    assert outs[0]["labels"][0]["weight"] == "-3/2"
    code, text = run(capsys, "--ell", "5", "bgg", "--weights",
                     "-3/2,1/2")
    assert code == 0
    assert "cell (-3/2, 1/2)" in text


def test_bgg_empty_weights_exit_2(capsys, monkeypatch):
    """An empty --weights list is a bad weight, not the default window."""
    import uqwb.cli as cli

    tables = []
    monkeypatch.setattr(cli, "bgg_table",
                        lambda *args, **kwargs: tables.append(args) or [])
    code = main(["--ell", "5", "bgg", "--weights", ""])
    captured = capsys.readouterr()
    assert (code, tables) == (2, [])
    assert "bad weight ''" in captured.out + captured.err


def _cert_kind_x(d):
    d["kind"] = "x"


def _cert_kind_null(d):
    d["kind"] = None


def _cert_chain_int(d):
    d["chain"] = 3


def _cert_claims_int(d):
    d["claims"] = 3


def _cert_degree_str(d):
    d["degree"] = "a"


def _cert_degree_bool(d):
    d["degree"] = True


def _cert_chain_row_not_string(d):
    d["chain"][0][0][0] = 5


def _cert_chain_row_empty_denominator(d):
    d["chain"][0][0][0] = "(1)*t^0 /"


def _cert_claim_kind_x(d):
    d["claims"][0]["kind"] = "x"


def _cert_claim_weight_str(d):
    d["claims"][0]["weight"] = "x"


def _cert_claim_weight_bool(d):
    d["claims"][0]["weight"] = True


def _cert_claim_degree_str(d):
    d["claims"][0]["degree"] = "a"


def _cert_claim_weight_exponent(d):
    d["claims"][0]["weight"] = d["claims"][0]["weight"] + "e0"


def _cert_claim_weight_long(d):
    d["claims"][0]["weight"] = LONG_DIGITS


@pytest.fixture(scope="module")
def verma_certificate():
    """The standard filtration certificate of V(1, 0) at ell 5."""
    mod = build_generalized_verma(Session(5), 1, 0)
    return extract_standard_filtration(mod, 0).to_json()


@pytest.mark.parametrize("edit", [_cert_kind_x, _cert_kind_null,
                                  _cert_chain_int, _cert_claims_int,
                                  _cert_degree_str, _cert_degree_bool,
                                  _cert_chain_row_not_string,
                                  _cert_chain_row_empty_denominator,
                                  _cert_claim_kind_x, _cert_claim_weight_str,
                                  _cert_claim_weight_bool,
                                  _cert_claim_degree_str,
                                  _cert_claim_weight_exponent,
                                  _cert_claim_weight_long],
                         ids=lambda f: f.__name__[6:])
def test_malformed_certificate_rejected(tmp_path, capsys, verma_certificate,
                                        edit):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(verma_certificate))
    assert run(capsys, "verify-cert", str(good))[0] == 0
    data = copy.deepcopy(verma_certificate)
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "verify-cert", str(bad))
    assert code == 2


def test_certificate_chain_longer_than_claims_fails(tmp_path, capsys,
                                                     verma_certificate):
    data = copy.deepcopy(verma_certificate)
    data["claims"] = []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, text = run(capsys, "verify-cert", str(bad))
    assert code == 1
    assert "[FAIL] certificate: chain length * block dim = dim" in text


def test_certificate_member_not_closed_fails(tmp_path, capsys):
    """A member that is not a submodule fails its check, and the
    quotients over it fail, instead of stopping the verification."""
    s = Session(5)
    data = extract_standard_filtration(build_projective_cover(s, 1, 1),
                                       1).to_json()
    del data["chain"][0][0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, text = run(capsys, "verify-cert", str(bad))
    assert code == 1
    assert "[FAIL] certificate: member 0 closed" in text
    assert "[FAIL] certificate: quotient 1 is verma" in text


def test_negative_degree_rejected(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SIMPLE_L1))
    assert run(capsys, "--ell", "5", "build", "verma", "--degree", "-1")[0] \
        == 2
    for kind in ("standard", "costandard"):
        code, _ = run(capsys, "filtration", str(good), "--degree", "-1",
                      "--kind", kind)
        assert code == 2


@pytest.mark.parametrize("edit", [_dropper(k) for k in
                                  ("kind", "degree", "module", "claims",
                                   "chain")]
                         + [_dropper("claims", 0, k)
                            for k in ("kind", "weight", "degree")],
                         ids=lambda f: f.__name__[1:])
def test_certificate_missing_key_rejected(tmp_path, capsys,
                                          verma_certificate, edit):
    data = copy.deepcopy(verma_certificate)
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _ = run(capsys, "verify-cert", str(bad))
    assert code == 2


# ---------------------------------------------------------------------
# input-contract fuzzing: a mutated dump or certificate may pass, fail or
# be rejected, but every verb must end in exit code 0, 1 or 2
# ---------------------------------------------------------------------

# characters of the scalar grammar, so edits reach the parser's branches
SCALAR_CHARS = "()*/+-^tz 0123456789"
# small integers only: a large ell or N makes a legitimately huge session
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-2, 12),
                   st.floats(-4, 4), st.text(SCALAR_CHARS, max_size=8),
                   st.just(LONG_DIGITS), st.just("(%s)*t^0" % LONG_DIGITS),
                   st.just([]), st.just({}))


def _dump_verbs(degree):
    """The verbs that read a module dump, filtration at the given degree."""
    return [["verify"], ["decomp"], ["jh"], ["dual"],
            ["filtration", "--degree", str(degree)], ["pcover-certify"],
            ["act", "--word", "E F K"]]


def _mutate(data, doc):
    """One drawn edit (delete, replace, or a one-character or +-2 change)
    at a drawn place inside the JSON document doc."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = parent[key]
        if data.draw(st.booleans()):
            break
    if parent is None:
        return
    op = data.draw(st.sampled_from(["delete", "replace", "edit"]))
    if op == "delete":
        del parent[key]
    elif op == "edit" and isinstance(node, str):
        i = data.draw(st.integers(0, len(node)))
        cut = data.draw(st.integers(0, 1))
        c = data.draw(st.sampled_from([""] + list(SCALAR_CHARS)))
        parent[key] = node[:i] + c + node[i + cut:]
    elif op == "edit" and type(node) is int:
        parent[key] = node + data.draw(st.integers(-2, 2))
    else:
        parent[key] = data.draw(LEAVES)


@pytest.fixture(scope="module")
def fuzz_inputs(verma_certificate):
    """(document, verbs) pairs: the L_1 and V(1,1) dumps at ell 5 with
    the verbs that read a module, and a certificate with verify-cert."""
    v11 = dump_module(build_generalized_verma(Session(5), 1, 1))
    return [(SIMPLE_L1, _dump_verbs(0)), (v11, _dump_verbs(1)),
            (verma_certificate, [["verify-cert"]])]


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(tmp_path_factory, fuzz_inputs, data):
    doc, verbs = data.draw(st.sampled_from(fuzz_inputs))
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, doc)
    verb = data.draw(st.sampled_from(verbs))
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([verb[0], str(path)] + verb[1:])
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------
# argv fuzzing: any command line ends in exit code 0, 1 or 2, with no
# uncaught exception
# ---------------------------------------------------------------------

# the verbs that read files, with the number of paths each takes
FILE_VERBS = {"verify": 1, "decomp": 1, "dual": 1, "tensor": 2,
              "filtration": 1, "jh": 1, "pcover-certify": 1,
              "verify-cert": 1, "act": 1}
# each verb's own options, the required ones first
VERB_FLAGS = {"build": ("--weight", "--degree", "--i", "--k"),
              "filtration": ("--degree", "--kind"),
              "typical": ("--weight",),
              "bgg": ("--m", "--weights"),
              "pcover": ("--i", "--m", "--twist"),
              "act": ("--word",),
              "suite": ("--max-i", "--max-m")}
REQUIRED = {"filtration": 1, "typical": 1, "pcover": 2, "act": 1}
VERBS = sorted(set(FILE_VERBS) | set(VERB_FLAGS))
GLOBAL_FLAGS = ("--ell", "--weight-denominator", "--mode", "--seed",
                "--out", "--format")
# ell and N stay below MAX_ORDER; 4095 is refused for every N >= 1
SESSION_INTS = st.sampled_from(["5", "8", "3", "4", "6", "2", "1", "0",
                                "-1", str(MAX_ORDER - 1)])
WEIGHTS = st.sampled_from(["0", "1", "-3/2", "5/2", "1/3", "0.5", "1e3",
                           "3/0", "x", "", LONG_DIGITS])
# a stray token: a verb, a choice value, a number or garbage
TOKENS = st.sampled_from(VERBS + ["verma", "simple", "onedim", "standard",
                                  "-", "--", "-3/2", "2", "--help",
                                  "--nope", "x"])


def _flag(data, name, paths):
    """The option name with a drawn value, as argv tokens."""
    if name in ("--ell", "--weight-denominator"):
        value = data.draw(SESSION_INTS)
    elif name == "--weight":
        value = data.draw(WEIGHTS)
    elif name == "--weights":
        value = ",".join(data.draw(st.lists(WEIGHTS, min_size=1,
                                            max_size=3)))
    elif name == "--mode":
        value = data.draw(st.sampled_from(["exponential", "paper-literal",
                                           "x"]))
    elif name == "--format":
        value = data.draw(st.sampled_from(["text", "json", "x"]))
    elif name == "--kind":
        value = data.draw(st.sampled_from(["standard", "costandard", "x"]))
    elif name == "--word":
        value = data.draw(st.sampled_from(["E F K", "Kinv H", "", "E X"]))
    elif name == "--out":
        value = data.draw(st.sampled_from(paths["out"]))
    else:
        value = str(data.draw(st.integers(-2, 3)))
    if data.draw(st.booleans()):
        return [name + "=" + value]
    return [name, value]


@pytest.fixture(scope="module")
def argv_paths(tmp_path_factory, verma_certificate):
    """Paths a drawn command line may name.  "in": module dumps at ell 5
    and 8, a certificate, text that is not JSON, a dump with an integer
    too long for int(), bytes that are not UTF-8, a directory and a
    missing file; "out": a new file, the directory and a file in a
    missing directory, so no input is overwritten."""
    root = tmp_path_factory.mktemp("argv")
    files = {"l1_5.json": SIMPLE_L1,
             "v11_5.json": dump_module(build_generalized_verma(Session(5),
                                                               1, 1)),
             "v01_8.json": dump_module(build_generalized_verma(Session(8),
                                                               0, 1)),
             "cert.json": verma_certificate}
    for name, doc in files.items():
        (root / name).write_text(json.dumps(doc))
    (root / "text.json").write_text("not json")
    (root / "long.json").write_text(json.dumps(SIMPLE_L1).replace(
        '"max_degree": 0', '"max_degree": ' + LONG_DIGITS))
    (root / "raw.json").write_bytes(b"\xff\xfe{}")
    (root / "dir").mkdir()
    return {"in": [str(root / n) for n in
                   sorted(files) + ["text.json", "long.json", "raw.json",
                                    "dir", "missing.json"]],
            "out": [str(root / n) for n in
                    ("out.json", "dir", "missing/out.json")]}


@settings(derandomize=True, database=None, max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(argv_paths, data):
    """Drawn command lines: global options (usually --ell) before the
    verb, its paths, then its own options (usually the required ones),
    global options and now and then a stray token."""
    verb = data.draw(st.sampled_from(VERBS))
    own = VERB_FLAGS.get(verb, ())
    argv = []
    if data.draw(st.integers(0, 4)):
        argv += _flag(data, "--ell", argv_paths)
    for _ in range(data.draw(st.integers(0, 2))):
        argv += _flag(data, data.draw(st.sampled_from(GLOBAL_FLAGS)),
                      argv_paths)
    argv.append(verb)
    if verb == "build":
        argv.append(data.draw(st.sampled_from(["verma", "simple", "onedim",
                                               "x"])))
    for _ in range(FILE_VERBS.get(verb, 0)):
        if data.draw(st.integers(0, 9)):
            argv.append(data.draw(st.sampled_from(argv_paths["in"])))
    for name in own[:REQUIRED.get(verb, 0)]:
        if data.draw(st.integers(0, 9)):
            argv += _flag(data, name, argv_paths)
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.integers(0, 9))
        if kind < 6 and own:
            argv += _flag(data, data.draw(st.sampled_from(own)), argv_paths)
        elif kind < 9:
            argv += _flag(data, data.draw(st.sampled_from(GLOBAL_FLAGS)),
                          argv_paths)
        else:
            argv.append(data.draw(TOKENS))
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
