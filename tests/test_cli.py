import json

import pytest

from leibnizx import cli, envelope, io
from leibnizx.cli import main
from leibnizx.xrep import zero_xmod_rep

from conftest import CORPUS, HSD_PARAMS, corpus_path, hemisemidirect_xmod
from test_golden import CASES, GOLDEN, _run
from test_io import shape_cases


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_check_pass(capsys):
    rc, out, _ = run(capsys, "check", corpus_path("l2.json"))
    assert rc == 0
    assert "status: pass" in out


def test_check_fail_with_witness(capsys):
    rc, out, _ = run(capsys, "check", corpus_path("bad-leibniz.json"))
    assert rc == 1
    assert "witness" in out


def test_check_kind_mismatch(capsys):
    rc, _, err = run(capsys, "check", corpus_path("l2.json"),
                     "--kind", "xmod")
    assert rc == 2
    assert "not xmod" in err


def test_check_every_corpus_kind(capsys):
    for name, want in (("assoc2.json", 0), ("xmod-id-l2.json", 0),
                       ("rep-adj-r2.json", 0), ("xrep-id-a1.json", 0),
                       ("module-a1-r.json", 0), ("bad-rep-a1.json", 1),
                       ("bad-xrep-a1.json", 1)):
        rc, _, _ = run(capsys, "check", corpus_path(name))
        assert rc == want, name


def test_check_module_builds_no_envelope(monkeypatch):
    """check on a module file reads only the file: with ul and presented
    made to raise, it exits 0 with its golden's bytes."""
    def no_envelope(*args, **kwargs):
        raise AssertionError("check built an envelope")

    monkeypatch.setattr(cli, "ul", no_envelope)
    monkeypatch.setattr(envelope, "presented", no_envelope)
    name = "check-module-a1-r"
    want = json.loads((GOLDEN / (name + ".json")).read_text("utf-8"))
    assert want["exit"] == 0
    assert _run(CASES[name]) == want


def test_malformed_input_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"kind": "leibniz_algebra", "name": "x", "basis": ["e"], '
                 '"bracket": [{"left": "e", "right": "e", '
                 '"value": {"e": "1/0"}}]}')
    rc, _, err = run(capsys, "check", str(p))
    assert rc == 2
    assert "1/0" in err
    p.write_text('{"kind": "xmod", "q": {"name": "Q", "basis": ["e"]}, '
                 '"p": {"name": "P", "basis": ["e"]}, "action": []}')
    rc, out, err = run(capsys, "check", str(p))
    assert rc == 2
    assert "'action' must be a JSON object" in err
    assert "Traceback" not in err + out


SELF_REFERENCE = {"kind": "xmod", "q": "bad.json", "p": "bad.json"}


@pytest.mark.parametrize("doc", list(shape_cases()) + [SELF_REFERENCE])
@pytest.mark.parametrize("cmd", [["check"], ["ul", "--degree", "2"],
                                 ["xul", "--degree", "2"],
                                 ["lm", "--degree", "2"]])
def test_malformed_shape_exit_2(capsys, tmp_path, cmd, doc):
    """A document of the wrong JSON shape, or one that names itself as a
    sub-object, is malformed input for every command: exit 2 with an error
    line, no traceback."""
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    rc, out, err = run(capsys, cmd[0], str(p), *cmd[1:])
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err + out


def test_report_degree_validation(capsys):
    rc, _, err = run(capsys, "xul", corpus_path("xmod-id-a1.json"),
                     "--degree", "3", "--report-degree", "2")
    assert rc == 2
    assert "report degree" in err


def test_ul_json_output(capsys):
    rc, out, _ = run(capsys, "ul", corpus_path("a1.json"),
                     "--degree", "3", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["records"][0]["dims_by_degree"] == [1, 3, 5, 7]


def test_ul_dump_basis(capsys):
    rc, out, _ = run(capsys, "ul", corpus_path("a1.json"),
                     "--degree", "2", "--dump-basis", "--format", "json")
    doc = json.loads(out)
    classes = doc["records"][-1]["classes"]
    assert classes[0] == "1"
    assert "a_l" in classes and "a_r" in classes


def test_xul_pass_and_fail(capsys, tmp_path):
    rc, out, _ = run(capsys, "xul", corpus_path("xmod-id-a1.json"),
                     "--degree", "3")
    assert rc == 0
    # a non-crossed-module input fails at the check_xmod stage
    bad = {"kind": "xmod",
           "q": {"name": "L2", "basis": ["a", "b"],
                 "bracket": [{"left": "a", "right": "a",
                              "value": {"b": "1"}}]},
           "p": {"name": "L2", "basis": ["a", "b"],
                 "bracket": [{"left": "a", "right": "a",
                              "value": {"b": "1"}}]},
           "eta": {"a": {"a": "1"}, "b": {"b": "1"}},
           "action": {"left": [], "right": []}}
    p = tmp_path / "bad-xmod.json"
    p.write_text(json.dumps(bad))
    rc, out, _ = run(capsys, "xul", str(p), "--degree", "3")
    assert rc == 1
    assert "check_xmod" in out


def test_non_xmod_fails_check_xmod_in_every_builder(capsys, tmp_path):
    """(p, p, id) with the adjoint action of badEE ([e,e] = e, which fails
    the Leibniz identity) is no crossed module.  Every command that builds
    from a crossed module refuses it with the same check_xmod record; lemma41
    once passed it with empty kernels."""
    p = {"kind": "leibniz_algebra", "name": "badEE", "basis": ["e"],
         "bracket": [{"left": "e", "right": "e", "value": {"e": "1"}}]}
    adjoint = [{"p": "e", "q": "e", "value": {"e": "1"}}]
    path = tmp_path / "xmod-id-badee.json"
    path.write_text(json.dumps({"kind": "xmod", "q": p, "p": p,
                                "eta": {"e": {"e": "1"}},
                                "action": {"left": adjoint,
                                           "right": adjoint}}))
    records = []
    for cmd in (("xul",), ("lm",), ("verify", "lemma41"),
                ("verify", "theta")):
        rc, out, _ = run(capsys, *cmd, str(path), "--degree", "3",
                         "--format", "json")
        assert rc == 1, cmd
        doc = json.loads(out)
        assert doc["verdict"] == "fail", cmd
        rec, = doc["records"]
        assert (rec["name"], rec["stage"]) == ("check_xmod", "check_xmod")
        records.append(rec)
    assert all(rec == records[0] for rec in records)


def test_xul_construction_error_is_not_an_axiom_failure(capsys,
                                                        monkeypatch):
    """Only the crossed-module axiom failure becomes a check_xmod record;
    any other construction error is reported as such, with its text."""
    import leibnizx.cli as cli
    from leibnizx.freealg import HomomorphismError

    def broken(*args, **kwargs):
        raise HomomorphismError("images do not preserve the ideal")

    monkeypatch.setattr(cli, "xul", broken)
    rc, out, _ = run(capsys, "xul", corpus_path("xmod-id-a1.json"),
                     "--degree", "3", "--format", "json")
    assert rc == 1
    rec, = json.loads(out)["records"]
    assert rec["name"] == "construction" and rec["name"] != "check_xmod"
    assert rec["verdict"] == "fail"
    assert rec["witness"] == "images do not preserve the ideal"


def test_lm_command(capsys):
    rc, out, _ = run(capsys, "lm", corpus_path("xmod-zero-a1.json"),
                     "--degree", "3")
    assert rc == 0
    assert "crossed_module_identities" in out


def test_verify_subcommands(capsys):
    cases = [
        (("verify", "lemma41", corpus_path("xmod-id-a1.json"),
          "--degree", "3"), 0),
        (("verify", "prop42", corpus_path("a1.json"), "--degree", "3"), 0),
        (("verify", "squares", corpus_path("l2.json"), "--degree", "3"), 0),
        (("verify", "theta", corpus_path("xmod-zero-a1.json"),
          "--degree", "3"), 0),
        (("verify", "thm5", corpus_path("xrep-id-a1.json"),
          "--degree", "3"), 0),
        (("verify", "thm5", corpus_path("bad-xrep-a1.json"),
          "--degree", "3"), 1),
    ]
    for argv, want in cases:
        rc, _, _ = run(capsys, *argv)
        assert rc == want, argv


def test_deterministic_output(capsys):
    argv = ("xul", corpus_path("xmod-id-a1.json"), "--degree", "3",
            "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2
    argv = ("check", corpus_path("r2.json"))
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize("cmd,name,flags", [
    # a negative slack is not an ambiguity window (it once certified the
    # free algebra's dimensions)
    (("ul",), "a1.json", ("--degree", "2", "--slack", "-3")),
    (("ul",), "a1.json", ("--degree", "0")),
    (("verify", "theta"), "xmod-id-a1.json", ("--degree", "1")),
    (("xul",), "xmod-id-a1.json", ("--report-degree", "-1")),
])
def test_bad_flags_exit_2(capsys, cmd, name, flags):
    rc, out, err = run(capsys, *cmd, corpus_path(name), *flags)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_lm_bottom_lift_stays_in_degree(capsys):
    # the bottom quotient once lifted a degree-2 class to filtration degree
    # 4, so a product in the identity check exceeded the working degree
    rc, out, _ = run(capsys, "lm", corpus_path("xmod-id-r2.json"),
                     "--degree", "4", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    dims = doc["records"][0]
    assert (dims["top_dim"], dims["bottom_dim"],
            dims["b_ker_dim_upto_d"]) == (29, 40, 6)


def test_bad_leibniz_is_refused_with_a_report(capsys):
    """Commands that need a Leibniz algebra refuse one that fails the
    identity with a fail report, not a traceback or a pass."""
    path = corpus_path("bad-leibniz.json")
    rc, out, _ = run(capsys, "ul", path, "--format", "json")
    assert rc == 1
    rec, = json.loads(out)["records"]
    assert (rec["name"], rec["verdict"]) == ("leibniz_identity", "fail")
    for what in ("prop42", "squares"):
        rc, out, _ = run(capsys, "verify", what, path, "--degree", "3",
                         "--format", "json")
        assert rc == 1
        rec, = json.loads(out)["records"]
        assert (rec["name"], rec["verdict"]) == ("check_xmod", "fail")


GRID_COMMANDS = [("check",), ("ul",), ("xul",), ("lm",)] + [
    ("verify", what)
    for what in ("lemma41", "prop42", "thm5", "theta", "squares")]
GRID_FLAGS = [
    ("--degree", "2", "--slack", "0", "--format", "json"),
    # the text renderer and the basis dump
    ("--degree", "3", "--slack", "0", "--report-degree", "0",
     "--format", "text", "--dump-basis"),
    # the default slack
    ("--degree", "3", "--format", "json"),
]


@pytest.mark.parametrize("cmd", GRID_COMMANDS, ids="-".join)
def test_every_command_on_every_corpus_file(capsys, cmd):
    """Each command ends in a report or a rejection on every corpus file,
    whatever its kind and for each row of flags: an exit code in 0..3 and
    never an exception."""
    for flags in GRID_FLAGS:
        for name in sorted(p.name for p in CORPUS.glob("*.json")):
            rc, _, _ = run(capsys, *cmd, corpus_path(name), *flags)
            assert rc in (0, 1, 2, 3), (cmd, name, flags)


SWEEP_COMMANDS = {
    "a1": [("check",), ("ul",), ("verify", "prop42"), ("verify", "squares")],
    "l2": [("check",), ("ul",), ("verify", "prop42"), ("verify", "squares")],
    "xmod-id-a1": [("check",), ("xul",), ("lm",), ("verify", "lemma41"),
                   ("verify", "theta")],
}


def test_flag_sweep_exits_cleanly_and_slack_changes_only_params(capsys):
    """Every command on a1, l2 and xmod-id-a1 at degree 2–4, report degree
    -1..D and slack -1..3 ends in exit 0, 1 or 2, never an exception (the
    certificates hold, so never 3 either); a rejection writes only an
    error line.  --slack is accepted and ignored: slack -1 exits 2, and
    slack 0..3 give byte-identical stdout and the same exit code."""
    for stem, commands in SWEEP_COMMANDS.items():
        for cmd in commands:
            for D in (2, 3, 4):
                for rd in range(-1, D + 1):
                    runs = set()
                    for slack in range(-1, 4):
                        rc, out, err = run(
                            capsys, *cmd, corpus_path(stem + ".json"),
                            "--degree", str(D), "--report-degree", str(rd),
                            "--slack", str(slack), "--format", "json")
                        where = (stem, cmd, D, rd, slack)
                        assert rc in (0, 1, 2), where
                        if rc == 2:
                            assert out == "" and err.startswith("error: "), \
                                where
                        if slack < 0:
                            assert rc == 2, where
                        else:
                            runs.add((rc, out))
                    assert len(runs) == 1, (stem, cmd, D, rd)


HALF = {"kind": "leibniz_algebra", "name": "half", "basis": ["x", "y"],
        "bracket": [{"left": "x", "right": "x",
                     "value": {"x": "1", "y": "1/2"}}]}

HALF_JSON = """\
{
  "certificates": {},
  "command": "check",
  "params": {
    "kind": "leibniz_algebra",
    "path": "half.json"
  },
  "records": [
    {
      "name": "leibniz_identity",
      "verdict": "fail",
      "violations": 1,
      "witness": [
        [
          0,
          0,
          0,
          {
            "0": "1",
            "1": "1/2"
          },
          {
            "0": "2",
            "1": "1"
          }
        ]
      ]
    }
  ],
  "status": 1,
  "verdict": "fail"
}
"""

HALF_TEXT = """\
command: check
params:  path=half.json kind=leibniz_algebra
  leibniz_identity  fail         violations=1 \
witness=[[0, 0, 0, {"0": "1", "1": "1/2"}, {"0": "2", "1": "1"}]]
status: fail (1)
"""


@pytest.mark.parametrize("fmt,want", [("json", HALF_JSON),
                                      ("text", HALF_TEXT)])
def test_non_integral_witness_rendering(capsys, tmp_path, monkeypatch,
                                        fmt, want):
    """Witness coefficients print as strings, "n" when integral and "n/d"
    otherwise; indices stay numbers.  [x,x] = x + y/2 fails the identity
    with [[x,x],x] = x + y/2 against 2x + y."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "half.json").write_text(json.dumps(HALF))
    rc, out, _ = run(capsys, "check", "half.json", "--format", fmt)
    assert rc == 1
    assert out == want


@pytest.mark.parametrize("a", HSD_PARAMS)
def test_thm5_round_trip_of_a_zero_representation(capsys, tmp_path, a):
    """verify thm5 on the zero representation (N = K², M = K) of the
    identity crossed module of a hemisemidirect algebra: the module
    identities hold and the representation comes back unchanged."""
    path = tmp_path / "xrep.json"
    path.write_text(io.dumps(zero_xmod_rep(
        hemisemidirect_xmod(a, "identity"), 2, 1)))
    rc, out, _ = run(capsys, "verify", "thm5", str(path), "--degree", "3",
                     "--slack", "1", "--format", "json")
    doc = json.loads(out)
    assert rc == 0 and doc["verdict"] == "pass"
    assert [(r["name"], r["verdict"]) for r in doc["records"]][:3] == [
        ("xmod_rep_axioms", "pass"), ("module_identities", "pass"),
        ("round_trip", "pass")]
