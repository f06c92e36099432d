"""The command-line front end: verbs, exit codes, artifacts,
round-trips, and determinism."""

import copy
import json

import pytest

from uqwb import Session, build_generalized_verma, extract_standard_filtration
from uqwb.cli import default_bgg_weights, main


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


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _ = run(capsys, "nonsense-verb")
    assert code == 2
    code, _ = run(capsys, "typical", "--weight", "1")  # missing --ell
    assert code == 2
    code, _ = run(capsys, "--ell", "3", "suite", "--max-i", "5")
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


def _extra_column(d):
    for row in d["E"]:
        row.append("(0)*t^0")
    d["E"][0][2] = "(1)*t^0"


def _extra_zero_column(d):
    for row in d["E"]:
        row.append("(0)*t^0")


def _off_lattice_weight(d):
    d["labels"][0]["weight"] = "1/3"


@pytest.mark.parametrize("edit", [_bad_ell, _extra_row, _zero_denominator,
                                  _extra_column, _extra_zero_column,
                                  _off_lattice_weight],
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
    assert "maps weight 1 to weight 1" in text


def test_default_bgg_window_has_no_repeats():
    for ell in (5, 8):
        weights = default_bgg_weights(Session(ell))
        assert len(weights) == len(set(weights))
    assert len(default_bgg_weights(Session(5))) ** 2 == 196


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


def _cert_claim_kind_x(d):
    d["claims"][0]["kind"] = "x"


def _cert_claim_weight_str(d):
    d["claims"][0]["weight"] = "x"


def _cert_claim_weight_bool(d):
    d["claims"][0]["weight"] = True


def _cert_claim_degree_str(d):
    d["claims"][0]["degree"] = "a"


@pytest.fixture(scope="module")
def verma_certificate():
    """The standard filtration certificate of V(1, 0) at ell 5."""
    mod = build_generalized_verma(Session(5), 1, 0)
    return extract_standard_filtration(mod, 0).to_json()


@pytest.mark.parametrize("edit", [_cert_kind_x, _cert_kind_null,
                                  _cert_chain_int, _cert_claims_int,
                                  _cert_degree_str, _cert_degree_bool,
                                  _cert_chain_row_not_string,
                                  _cert_claim_kind_x, _cert_claim_weight_str,
                                  _cert_claim_weight_bool,
                                  _cert_claim_degree_str],
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
