import json
import os

import pytest

from leibnizx import io

from conftest import CORPUS, corpus_path

ALL_CORPUS = sorted(os.listdir(CORPUS))


def test_corpus_is_complete():
    assert len(ALL_CORPUS) >= 20
    for required in ("a1.json", "l2.json", "r2.json", "bad-leibniz.json",
                     "bad-rep-a1.json", "bad-xrep-a1.json",
                     "xmod-zero-a1.json", "xmod-id-a1.json",
                     "xmod-incl-l2.json"):
        assert required in ALL_CORPUS


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_roundtrip_bit_exact(name):
    path = corpus_path(name)
    obj = io.load_path(path)
    with open(path, encoding="utf-8") as f:
        on_disk = f.read()
    assert io.dumps(obj) == on_disk
    # load -> dump -> load is the identity
    again = io.load_data(json.loads(io.dumps(obj)), str(CORPUS))
    assert io.dumps(again) == on_disk


def test_rationals_as_strings_everywhere():
    for name in ALL_CORPUS:
        with open(corpus_path(name), encoding="utf-8") as f:
            data = f.read()
        assert "e-" not in data and ".0" not in data

    def walk(node):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "value":
                    assert all(isinstance(s, str) for s in v.values())
                else:
                    walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(json.loads(open(corpus_path("xmod-id-l2.json")).read()))


def test_module_file_pairs_with_envelope(load):
    mod = load("module-a1-r.json")
    from leibnizx.envelope import check_module
    assert not check_module(mod)


def bad_cases():
    yield {"kind": "martian"}
    yield {"kind": "leibniz_algebra", "name": "x"}  # no basis
    yield {"kind": "leibniz_algebra", "name": "x", "basis": ["a", "a"]}
    yield {"kind": "leibniz_algebra", "name": "x", "basis": ["a"],
           "bracket": [{"left": "a", "right": "z", "value": {}}]}
    yield {"kind": "leibniz_algebra", "name": "x", "basis": ["a"],
           "bracket": [{"left": "a", "right": "a", "value": {"a": "1/0"}}]}
    yield {"kind": "leibniz_algebra", "name": "x", "basis": ["a"],
           "bracket": [{"left": "a", "right": "a", "value": {"a": 1}}]}
    yield {"kind": "rep", "name": "x", "algebra": 7, "module": []}
    yield from shape_cases()


ALG = {"kind": "leibniz_algebra", "name": "A", "basis": ["e"], "bracket": []}


def shape_cases():
    """Documents of the wrong JSON shape: a table that is no array, an
    entry that is no object, a basis that is no array of names,
    sub-objects of the wrong type, and a name that is no string."""
    for table in (5, {"left": "e"}, ["left"]):
        yield {"kind": "leibniz_algebra", "name": "x", "basis": ["e"],
               "bracket": table}
    for basis in (7, [["e"]]):
        yield {"kind": "leibniz_algebra", "name": "x", "basis": basis}
    yield {"kind": "rep", "algebra": ALG, "module": 3}
    yield {"kind": "xmod", "q": ALG, "p": ALG, "eta": {}, "action": []}
    yield {"kind": "module", "algebra": ALG, "module": ["m"],
           "generators": []}
    for name in ({"a": 1}, None, ["x"], 5):
        yield {"kind": "leibniz_algebra", "name": name, "basis": ["e"]}


@pytest.mark.parametrize("data", list(bad_cases()))
def test_malformed_inputs_rejected(data):
    with pytest.raises(io.FormatError):
        io.load_data(data, ".")


def test_load_by_path_reference(tmp_path):
    ref = {"kind": "xmod", "q": "q.json", "p": "p.json", "eta": {},
           "action": {"left": [], "right": []}}
    q = {"kind": "leibniz_algebra", "name": "Q", "basis": ["m"],
         "bracket": []}
    p = {"kind": "leibniz_algebra", "name": "P", "basis": ["a"],
         "bracket": []}
    for fname, doc in (("x.json", ref), ("q.json", q), ("p.json", p)):
        (tmp_path / fname).write_text(json.dumps(doc))
    x = io.load_path(str(tmp_path / "x.json"))
    assert x.q.name == "Q" and x.p.name == "P"
    # a reference of the wrong kind is an error
    ref["q"] = "x.json"
    (tmp_path / "x2.json").write_text(json.dumps(ref))
    with pytest.raises(io.FormatError):
        io.load_path(str(tmp_path / "x2.json"))
    # a file that references itself, directly or through another file, is
    # a cycle, named in the error
    ref["q"] = "x3.json"
    (tmp_path / "x3.json").write_text(json.dumps(ref))
    with pytest.raises(io.FormatError, match=r"cycle: .*x3\.json -> .*"
                                             r"x3\.json"):
        io.load_path(str(tmp_path / "x3.json"))
    ref["q"] = "x5.json"
    (tmp_path / "x4.json").write_text(json.dumps(ref))
    (tmp_path / "x5.json").write_text(json.dumps(dict(ref, q="x4.json")))
    with pytest.raises(io.FormatError, match=r"x4\.json -> .*x5\.json -> "
                                             r".*x4\.json"):
        io.load_path(str(tmp_path / "x4.json"))
    # a failed load forgets the files it was loading: x4.json, mended,
    # loads
    (tmp_path / "x4.json").write_text(json.dumps(dict(ref, q="q.json")))
    assert io.load_path(str(tmp_path / "x4.json")).q.name == "Q"


def test_missing_file_is_format_error():
    with pytest.raises(io.FormatError):
        io.load_path("/nonexistent/never.json")
