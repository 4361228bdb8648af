import json
import os
import random
from fractions import Fraction

import pytest

from dconvex import core, documents, lab
from dconvex.classes import ClassLabel, check
from dconvex.cli import main
from dconvex.core import LatticeFn, LatticeSet, Window, are_points
from dconvex.documents import DocumentError
from dconvex.network import Arc, ArcCost, Network
from dconvex.ops import PartitionSpec, SplitSpec

F = Fraction


def roundtrip(obj):
    return documents.parse_text(documents.to_text(obj))


def test_set_roundtrip():
    s = LatticeSet.of([(0, 1), (2, -3)])
    assert roundtrip(s) == s
    lifted = LatticeSet(2, frozenset({(1, 0)}), lifted=True)
    assert roundtrip(lifted) == lifted


def test_fn_roundtrip():
    f = LatticeFn.of({(0, 0): F(1, 2), (1, 2): -3})
    assert roundtrip(f) == f
    lf = LatticeFn(2, {(1, 0): F(5, 4)}, lifted=True, ramp=F(-2, 3))
    assert roundtrip(lf) == lf


def test_document_points_are_checked_once(monkeypatch):
    # the constructor's bulk check of a document's points, as tuples, is
    # the only one
    calls = []

    def counted(pts, dim):
        calls.append(set(map(type, pts)))
        return are_points(pts, dim)

    f = LatticeFn.of({(i, j): F(i - j, 2) for i in range(4) for j in range(3)})
    texts = [documents.to_text(obj) for obj in (LatticeSet(2, frozenset(f.values)), f)]
    monkeypatch.setattr(core, "are_points", counted)
    for text in texts:
        assert documents.to_text(documents.parse_text(text)) == text
        assert calls == [{tuple}]
        calls.clear()


def test_window_and_spec_roundtrips():
    w = Window((-1, 0), (2, 3))
    assert roundtrip(w) == w
    assert roundtrip(SplitSpec((2, 1))) == SplitSpec((2, 1))
    assert roundtrip(PartitionSpec(((0, 2), (1,)))) == PartitionSpec(((0, 2), (1,)))


def test_network_roundtrip():
    net = Network(
        ("u", "w"),
        (Arc("u", "w", -2, 2, ArcCost.from_callable(-2, 2, abs)),),
        ("u",),
        ("w",),
    )
    assert roundtrip(net) == net


def _verdict(obj, label):
    """The payload ``dconvex check`` writes, with the witness left as tuples."""
    v = check(obj, ClassLabel(label))
    payload = {"type": "verdict", "class": label, "member": v.member}
    if v.witness is not None:
        payload["witness"] = {"kind": v.witness.kind, "points": v.witness.points, "indices": v.witness.indices}
    return payload


def _emitted_objects(rng):
    """Seeded objects of every kind the writer meets."""
    objs = [LatticeSet(2, frozenset())]
    for d in range(1, 7):
        pts = {tuple(rng.randint(-12, 12) for _ in range(d)) for _ in range(rng.randint(1, 9))}
        objs.append(LatticeSet(d, frozenset(pts)))
        objs.append(LatticeFn(d, {p: F(rng.randint(-40, 40), rng.randint(1, 9)) for p in pts}))
    a, b = rng.randint(1, 4), F(rng.randint(-9, 9), rng.randint(1, 5))
    pts = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(40)]
    equal = LatticeFn(3, {p: F(-5, 3) for p in pts})  # equal values, one Fraction object each
    assert len(set(map(id, equal.values.values()))) == len(equal) > 1
    big = 10**20
    objs += [
        LatticeSet(1, frozenset()),
        LatticeSet(1, frozenset({(-4,), (0,), (7,)})),
        LatticeFn(1, {(-4,): F(-1, 2), (0,): F(0), (7,): F(9)}),
        equal,
        LatticeFn(3, dict.fromkeys(pts, F(7, 2))),  # one shared object
        LatticeFn(2, {(big, -big): F(10**30, 7), (-big, big): F(-(10**30), 7), (0, big): F(10**30)}),
        LatticeSet(2, frozenset({(big, -big), (-big, big), (0, 0)})),
        LatticeSet(3, frozenset({(1, 0, 2), (-2, 0, 5)}), lifted=True),
        LatticeFn(2, {(1, 0): F(5, 4), (0, -3): F(-7)}, lifted=True, ramp=F(-2, 3)),
        LatticeFn(3, {(p[0], p[1], 0): F(p[2], 4) for p in pts}, lifted=True, ramp=F(11, 6)),
        LatticeSet(3, frozenset(tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(1500))),
        Window((-3, 0, 2), (1, 4, 2)),
        SplitSpec((2, 1, 3)),
        PartitionSpec(((0, 2), (1,), (3, 4))),
        Network(("u", "w"), (Arc("u", "w", -1, 2),), ("u",), ("w",)),
        Network(
            ("u", "\u00e9t\u00e9", "w\u2082", "\U0001d54c"),
            (
                Arc("u", "\u00e9t\u00e9", -2, 2, ArcCost.from_callable(-2, 2, lambda t: a * t * t + b * t)),
                Arc("\u00e9t\u00e9", "w\u2082", 0, 3),
                Arc("\u00e9t\u00e9", "\U0001d54c", -1, 1, ArcCost.from_table({-1: F(1, 2), 0: 0, 1: 3})),
            ),
            ("u",),
            ("w\u2082", "\U0001d54c"),
        ),
        _verdict(LatticeSet.of([(0, 0), (2, 0)]), "lnat-set"),
        _verdict(LatticeFn.of({(0,): 0, (1,): 5, (2,): 0}), "lnat-fn"),
        _verdict(LatticeSet.of([(0, 0), (1, 1)]), "m-set"),
        _verdict(LatticeSet.of([(0, 1), (1, 0)]), "m-set"),
        {"t": (1, "\"quoted\"\n"), "none": None, "half": 0.5, "empty": {}, "list": []},
        {"caf\u00e9": [True, False], "ints": {10: "a", 2: 3}},
    ]
    return objs


def test_to_text_is_json_dumps_indent_2_sort_keys():
    """The writer against its contract, json.dumps(indent=2, sort_keys=True)."""
    objs = _emitted_objects(random.Random(20261019)) + [lab.run_closure_matrix(1, "9").to_payload()]
    assert any(isinstance(o, dict) and "witness" in o for o in objs)
    for obj in objs:
        want = json.dumps(documents.to_document(obj), indent=2, sort_keys=True) + "\n"
        assert documents.to_text(obj) == want, type(obj).__name__


def test_document_text_is_canonical():
    s = LatticeSet.of([(0, 1), (2, -3)])
    assert documents.to_text(roundtrip(s)) == documents.to_text(s)


def test_parse_rejects_bad_documents():
    with pytest.raises(DocumentError):
        documents.parse_text("{not json")
    with pytest.raises(DocumentError):
        documents.parse_text(json.dumps({"kind": "set", "version": 99, "dim": 1, "points": []}))
    with pytest.raises(DocumentError):
        documents.parse_text(
            json.dumps({"kind": "set", "version": 1, "dim": 2, "points": [[1]]})
        )
    with pytest.raises(DocumentError):
        documents.parse_text(
            json.dumps(
                {
                    "kind": "network",
                    "version": 1,
                    "vertices": ["u", "w"],
                    "entrance": ["u"],
                    "exit": ["w"],
                    "arcs": [{"tail": "u", "head": "w", "lower": "-inf", "upper": 1, "cost": "zero"}],
                }
            )
        )


@pytest.mark.parametrize("version", [True, 1.0])
def test_version_must_be_the_integer_1(tmp_path, version):
    doc = {"kind": "set", "version": version, "dim": 1, "points": [[0]]}
    with pytest.raises(DocumentError, match=f"unsupported document version {version!r}$"):
        documents.from_document(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--class", "l-set"]) == 2


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
def test_lifted_flag_must_be_a_json_boolean(tmp_path, flag):
    set_doc = {"kind": "set", "version": 1, "dim": 2, "points": [[0, 0]], "lifted": flag}
    fn_doc = {"kind": "fn", "version": 1, "dim": 2, "entries": [{"x": [0, 0], "v": "1"}], "lifted": flag}
    for doc in (set_doc, fn_doc):
        with pytest.raises(DocumentError):
            documents.from_document(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(set_doc))
    assert main(["check", str(path), "--class", "l-set"]) == 2
    set_doc["lifted"] = False
    assert documents.from_document(set_doc).lifted is False


def test_ramp_on_a_finite_function_is_a_document_error(tmp_path):
    doc = {"kind": "fn", "version": 1, "dim": 1, "entries": [{"x": [0], "v": "1"}], "ramp": "3"}
    with pytest.raises(DocumentError):
        documents.from_document(doc)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--class", "lnat-fn"]) == 2
    doc["lifted"] = True
    assert documents.from_document(doc).ramp == 3


@pytest.mark.parametrize("bad", [0.5, True])
def test_float_or_bool_coordinates_are_rejected(tmp_path, bad):
    doc = {"kind": "set", "version": 1, "dim": 2, "points": [[bad, 0]]}
    with pytest.raises(DocumentError):
        documents.from_document(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--class", "lnat-set"]) == 2


def test_cli_op_rejects_a_set_with_a_function(docs, tmp_path, capsys):
    documents.dump(LatticeFn.of({(0,): 1}), tmp_path / "f.json")
    rc = main(["op", "direct-sum", str(docs / "origin.json"), str(tmp_path / "f.json")])
    assert rc == 2
    assert "set with a function" in capsys.readouterr().err


def test_nonconvex_cost_rejected_at_parse(tmp_path):
    doc = {
        "kind": "network",
        "version": 1,
        "vertices": ["u", "w"],
        "entrance": ["u"],
        "exit": ["w"],
        "arcs": [
            {
                "tail": "u",
                "head": "w",
                "lower": 0,
                "upper": 2,
                "cost": [{"t": 0, "v": "0"}, {"t": 1, "v": "3"}, {"t": 2, "v": "4"}],
            }
        ],
    }
    with pytest.raises(ValueError):
        documents.from_document(doc)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture()
def docs(tmp_path):
    t = LatticeSet.of([(0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 2, 1)])
    documents.dump(t, tmp_path / "t.json")
    documents.dump(LatticeSet.of([(4, 2)]), tmp_path / "point.json")
    s4 = LatticeSet.of([(0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1)])
    documents.dump(s4, tmp_path / "s4.json")
    documents.dump(PartitionSpec(((0, 2), (1, 3))), tmp_path / "pairs.json")
    documents.dump(SplitSpec((2,)), tmp_path / "blocks.json")
    documents.dump(Window((-2, -2), (2, 2)), tmp_path / "win2.json")
    documents.dump(LatticeSet.of([(0,)]), tmp_path / "origin.json")
    return tmp_path


def test_cli_check_exit_codes(docs, capsys):
    assert main(["check", str(docs / "t.json"), "--class", "lnat-set"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["payload"]["member"] is False
    assert out["payload"]["witness"]["kind"] == "midpoint"
    assert main(["check", str(docs / "point.json"), "--class", "m-set"]) == 0
    assert main(["check", str(docs / "t.json"), "--class", "bogus"]) == 2
    assert main(["check", str(docs / "missing.json"), "--class", "m-set"]) == 2
    assert main(["check", str(docs / "pairs.json"), "--class", "m-set"]) == 2


def test_cli_answers_the_same_around_a_rejected_call(docs, capsys):
    # the parser is built once per process, so a call that argparse rejects
    # must leave it as it was for the next call
    def answers(tag):
        outs = [docs / f"{tag}-{k}.json" for k in range(2)]
        codes = [
            main(["check", str(docs / "t.json"), "--class", "lnat-set", "--out", str(outs[0])]),
            main(["check", str(docs / "point.json"), "--class", "m-set", "--out", str(outs[1])]),
        ]
        return codes, [out.read_bytes() for out in outs]

    before = answers("before")
    for bad in (
        ["check", str(docs / "t.json")],
        ["check", str(docs / "t.json"), "--class", "m-set", "--bogus"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
    assert answers("after") == before
    assert before[0] == [1, 0]
    assert json.loads(before[1][0])["payload"]["witness"]["kind"] == "midpoint"


# ---------------------------------------------------------------------------
# the writer: outputs are rewritten in place and cut to length


def _checked_text(docs, capsys, name, label):
    """The exit code and standard output of a check without --out."""
    code = main(["check", str(docs / name), "--class", label])
    return code, capsys.readouterr().out


@pytest.mark.skipif(os.devnull != "/dev/null", reason="needs /dev/null")
def test_cli_out_to_a_device_that_cannot_be_truncated(docs, capsys):
    # ftruncate on /dev/null fails with EINVAL, so the writer cuts only a
    # regular file
    for name, label, code in (("t.json", "lnat-set", 1), ("point.json", "m-set", 0)):
        assert main(["check", str(docs / name), "--class", label, "--out", os.devnull]) == code
        assert capsys.readouterr() == ("", "")
    assert main(["op", "direct-sum", str(docs / "t.json"), str(docs / "point.json"), "--out", os.devnull]) == 0
    assert main(["matrix", "--trials", "1", "--seed", "3", "--out", os.devnull]) == 0


def test_cli_rewrites_are_whole_and_leave_no_stale_tail(docs, capsys):
    long_code, long_text = _checked_text(docs, capsys, "t.json", "lnat-set")
    short_code, short_text = _checked_text(docs, capsys, "point.json", "m-set")
    assert (long_code, short_code) == (1, 0) and len(short_text) < len(long_text)
    out = docs / "verdict.json"
    out.write_bytes(b"x" * 10_000)
    for name, label, code, text in (
        ("t.json", "lnat-set", long_code, long_text),
        ("point.json", "m-set", short_code, short_text),
        ("t.json", "lnat-set", long_code, long_text),
    ):
        assert main(["check", str(docs / name), "--class", label, "--out", str(out)]) == code
        assert out.read_bytes() == text.encode("utf-8")


def test_dump_writes_to_text_in_place(tmp_path, monkeypatch):
    objects = [
        LatticeFn.of({(i, j): F(i * j, 3) for i in range(9) for j in range(9)}),
        LatticeSet.of([(0, 1), (2, -3)]),
        {"name": "café", "n": 1},
        LatticeFn.of({(i, j): F(i * j, 3) for i in range(9) for j in range(9)}),
    ]
    path = tmp_path / "out.json"
    inode = None
    for obj in objects:
        documents.dump(obj, path)
        assert path.read_bytes() == documents.to_text(obj).encode("utf-8")
        inode = inode or path.stat().st_ino
        assert path.stat().st_ino == inode
    # a write the system takes only in part is continued until every byte
    # is written
    write = os.write
    with monkeypatch.context() as m:
        m.setattr(documents.os, "write", lambda fd, data: write(fd, data[:7]))
        documents.dump(objects[0], tmp_path / "short-writes.json")
    assert (tmp_path / "short-writes.json").read_bytes() == documents.to_text(objects[0]).encode("utf-8")


def test_dump_of_an_unserializable_object_leaves_the_file(tmp_path):
    path = tmp_path / "out.json"
    documents.dump(LatticeSet.of([(0, 1)]), path)
    before = path.read_bytes()
    with pytest.raises(DocumentError, match="cannot serialize object of type object"):
        documents.dump(object(), path)
    assert path.read_bytes() == before
    with pytest.raises(DocumentError):
        documents.dump(object(), tmp_path / "never.json")
    assert not (tmp_path / "never.json").exists()


def test_cli_op_aggregate(docs, capsys):
    rc = main(
        ["op", "aggregate", str(docs / "s4.json"), "--spec", str(docs / "pairs.json")]
    )
    assert rc == 0
    got = documents.parse_text(capsys.readouterr().out)
    assert got == LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)])


def test_cli_op_split_and_identity(docs, capsys):
    rc = main(
        [
            "op",
            "split",
            str(docs / "origin.json"),
            "--spec",
            str(docs / "blocks.json"),
            "--window",
            str(docs / "win2.json"),
        ]
    )
    assert rc == 0
    got = documents.parse_text(capsys.readouterr().out)
    assert got == LatticeSet.of([(t, -t) for t in range(-2, 3)])


def test_cli_op_minkowski(docs, tmp_path, capsys):
    a = LatticeSet.of([(0, 0), (1, 1)])
    b = LatticeSet.of([(1, 0), (0, 1)])
    documents.dump(a, tmp_path / "a.json")
    documents.dump(b, tmp_path / "b.json")
    rc = main(["op", "minkowski", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert rc == 0
    got = documents.parse_text(capsys.readouterr().out)
    assert got == LatticeSet.of([(1, 0), (0, 1), (2, 1), (1, 2)])


def test_cli_induce_identity(docs, tmp_path, capsys):
    net = Network(("u", "w"), (Arc("u", "w", -5, 5),), ("u",), ("w",))
    documents.dump(net, tmp_path / "net.json")
    s = LatticeSet.of([(1,), (3,)])
    documents.dump(s, tmp_path / "s.json")
    rc = main(["induce", "--network", str(tmp_path / "net.json"), "--input", str(tmp_path / "s.json")])
    assert rc == 0
    assert documents.parse_text(capsys.readouterr().out) == s


def test_cli_empty_set_operands_give_empty_sets(tmp_path, capsys):
    net = Network(("u", "w0", "w1"), (Arc("u", "w0", 0, 1), Arc("u", "w1", 0, 1)), ("u",), ("w0", "w1"))
    documents.dump(net, tmp_path / "net.json")
    documents.dump(LatticeSet(1, frozenset()), tmp_path / "empty1.json")
    documents.dump(LatticeSet.of([(0,), (2,)]), tmp_path / "s.json")
    rc = main(["induce", "--network", str(tmp_path / "net.json"), "--input", str(tmp_path / "empty1.json")])
    out = capsys.readouterr()
    assert rc == 0 and "empty" in out.err
    assert documents.parse_text(out.out) == LatticeSet(2, frozenset())
    rc = main(["op", "minkowski", str(tmp_path / "s.json"), str(tmp_path / "empty1.json")])
    assert rc == 0
    assert documents.parse_text(capsys.readouterr().out) == LatticeSet(1, frozenset())


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("entrance", ["u", "u"], "entrance list repeats a vertex"),
        ("exit", ["w", "w"], "exit list repeats a vertex"),
        ("arcs", [{"tail": "u", "head": "w", "lower": 2, "upper": 0}], "lower > upper"),
    ],
)
def test_invalid_network_document_exits_2(tmp_path, capsys, field, value, message):
    doc = documents.to_document(Network(("u", "w"), (Arc("u", "w", 0, 2),), ("u",), ("w",)))
    doc[field] = value
    with pytest.raises(DocumentError, match=message):
        documents.from_document(doc)
    (tmp_path / "net.json").write_text(json.dumps(doc))
    documents.dump(LatticeSet.of([(0,), (1,)]), tmp_path / "s.json")
    assert main(["induce", "--network", str(tmp_path / "net.json"), "--input", str(tmp_path / "s.json")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_check_jump_fn_member(tmp_path):
    # minimum subgraph weight by degree sequence: a member of jump-m-fn
    vals = {}
    for a in range(4):
        for b in range(4):
            if (a + b) % 2 == 0:
                vals[(a, b)] = F(1) if a % 2 else F(0)
    documents.dump(LatticeFn(2, vals), tmp_path / "f.json")
    assert main(["check", str(tmp_path / "f.json"), "--class", "jump-m-fn"]) == 0


def test_cli_examples_single(capsys):
    assert main(["examples", "--run", "EX3.6"]) == 0
    out = capsys.readouterr().out
    assert "EX3.6: pass" in out
    assert main(["examples", "--run", "EX9.9"]) == 2


def test_cli_matrix_deterministic(tmp_path, capsys):
    rc = main(["matrix", "--trials", "1", "--seed", "9", "--out", str(tmp_path / "r1.json")])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc = main(["matrix", "--trials", "1", "--seed", "9", "--out", str(tmp_path / "r2.json")])
    out2 = capsys.readouterr().out
    assert rc == 0
    assert out1 == out2
    assert (tmp_path / "r1.json").read_text() == (tmp_path / "r2.json").read_text()


@pytest.mark.parametrize("max_dim", [0, 1, 2])
def test_matrix_below_three_dimensions_is_an_input_error(capsys, max_dim):
    with pytest.raises(ValueError, match="max_dim must be at least 3"):
        lab.run_closure_matrix(1, 7, max_dim)
    assert main(["matrix", "--trials", "1", "--seed", "7", "--max-dim", str(max_dim)]) == 2
    assert capsys.readouterr().err == "error: max_dim must be at least 3, not %d\n" % max_dim


# ---------------------------------------------------------------------------
# malformed documents: exit 2 with an error line, never a traceback


def test_deeply_nested_document_exits_2(tmp_path, capsys):
    # nesting deeper than the JSON parser recurses is a malformed document,
    # not a RecursionError that would read as check's non-member exit 1
    text = "[" * 5000 + "]" * 5000
    with pytest.raises(DocumentError, match="^malformed document: "):
        documents.parse_text(text)
    (tmp_path / "deep.json").write_text(text)
    assert main(["check", str(tmp_path / "deep.json"), "--class", "lnat-set"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed document: ") and err.count("\n") == 1


# spellings Fraction() reads but the 'p' or 'p/q' grammar does not
_LOOSE_VALUES = ("1.5", "1e3", "+3", "1_000", "3/-2", "1/0", " - 3", "٣")


@pytest.mark.parametrize("text", _LOOSE_VALUES)
def test_loose_value_spellings_exit_2(tmp_path, capsys, text):
    fn = documents.to_document(LatticeFn.of({(0,): F(1), (1,): F(2)}))
    fn["entries"][1]["v"] = text
    net = documents.to_document(Network(("u", "w"), (Arc("u", "w", 0, 1, ArcCost.from_table({0: 0, 1: 1})),), ("u",), ("w",)))
    net["arcs"][0]["cost"][1]["v"] = text
    for doc, what in ((fn, "stored function value"), (net, "arc cost value")):
        with pytest.raises(DocumentError, match=what):
            documents.from_document(doc)
    (tmp_path / "f.json").write_text(json.dumps(fn))
    assert main(["check", str(tmp_path / "f.json"), "--class", "lnat-fn"]) == 2
    (tmp_path / "net.json").write_text(json.dumps(net))
    documents.dump(LatticeSet.of([(0,), (1,)]), tmp_path / "s.json")
    assert main(["induce", "--network", str(tmp_path / "net.json"), "--input", str(tmp_path / "s.json")]) == 2
    assert all(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


@pytest.mark.parametrize("repeat", ["5", "1"])
def test_repeated_function_entries_exit_2(tmp_path, capsys, repeat):
    entries = [{"x": [0], "v": "1"}, {"x": [1], "v": "0"}, {"x": [0], "v": repeat}]
    doc = {"kind": "fn", "version": 1, "dim": 1, "entries": entries}
    with pytest.raises(DocumentError, match=r"repeat the point \[0\]"):
        documents.from_document(doc)
    (tmp_path / "f.json").write_text(json.dumps(doc))
    assert main(["check", str(tmp_path / "f.json"), "--class", "lnat-fn"]) == 2
    assert "repeat the point [0]" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", ["0", "3"])
def test_repeated_cost_abscissas_exit_2(tmp_path, capsys, repeat):
    net = documents.to_document(Network(("u", "w"), (Arc("u", "w", 0, 1, ArcCost.from_table({0: 0, 1: 1})),), ("u",), ("w",)))
    net["arcs"][0]["cost"].append({"t": 0, "v": repeat})
    with pytest.raises(DocumentError, match="u->w cost repeats the abscissa 0"):
        documents.from_document(net)
    (tmp_path / "net.json").write_text(json.dumps(net))
    documents.dump(LatticeSet.of([(0,), (1,)]), tmp_path / "s.json")
    assert main(["induce", "--network", str(tmp_path / "net.json"), "--input", str(tmp_path / "s.json")]) == 2
    assert "repeats the abscissa 0" in capsys.readouterr().err


def test_repeated_set_points_exit_2(tmp_path, capsys):
    doc = {"kind": "set", "version": 1, "dim": 1, "points": [[0], [0], [1]]}
    with pytest.raises(DocumentError, match=r"points repeat the point \[0\]"):
        documents.from_document(doc)
    (tmp_path / "s.json").write_text(json.dumps(doc))
    assert main(["check", str(tmp_path / "s.json"), "--class", "lnat-set"]) == 2
    assert "repeat the point [0]" in capsys.readouterr().err
    # a lifted set's distinct points that name one line are not a repeat
    doc = {"kind": "set", "version": 1, "dim": 2, "lifted": True, "points": [[0, 0], [1, 1]]}
    assert documents.from_document(doc) == LatticeSet(2, frozenset({(0, 0)}), lifted=True)


def test_value_strings_round_trip():
    rng = random.Random(2024)
    values = [F(0), F(-9), F(10**30 + 1, 7)] + [F(rng.randint(-50, 50), rng.randint(1, 40)) for _ in range(200)]
    f = LatticeFn(1, {(k,): v for k, v in enumerate(values)})
    assert documents.parse_text(documents.to_text(f)) == f
    doc = documents.to_document(f)
    doc["entries"][0]["v"] = " -4/6\t"
    assert documents.from_document(doc).values[(0,)] == F(-2, 3)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"kind": "set", "version": 1, "dim": 1, "points": 5}, "points"),
        ({"kind": "set", "version": 1, "points": [[0]]}, "dim"),
        ({"kind": "fn", "version": 1, "dim": 1, "entries": [{"x": [0], "v": 3}]}, "entries.v"),
        ({"kind": "fn", "version": 1, "dim": 1, "entries": [5]}, "entry"),
        ({"kind": "fn", "version": 1, "dim": 1, "entries": [{"v": "3"}]}, "entries.x"),
        ({"kind": "fn", "version": 1, "dim": 1, "entries": [{"x": [0], "v": "1/0"}]}, "value"),
        ({"kind": "window", "version": 1, "dim": 1, "lo": 0, "hi": [1]}, "lo"),
        ({"kind": "network", "version": 1, "vertices": [["u"]], "entrance": [], "exit": [], "arcs": []}, "vertices"),
        ({"kind": "report", "version": 1, "payload": [1]}, "payload"),
    ],
)
def test_malformed_document_names_the_field(tmp_path, capsys, doc, field):
    with pytest.raises(DocumentError, match=field):
        documents.from_document(doc)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path), "--class", "lnat-set"]) == 2
    assert capsys.readouterr().err.startswith("error:")


_JUNK = (5, -1, 0, 2, "x", "1/0", "3/2", "inf", None, True, 1.5, [], {}, [5], ["u"], {"x": 1})


def _nodes(tree, path=()):
    """Every (container, key) slot in a JSON tree, in a fixed order."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, child in items:
        yield tree, key
        if isinstance(child, (dict, list)):
            yield from _nodes(child)


def _mutate(doc, rng):
    """doc with one slot deleted, replaced, wrapped in an array or renamed,
    or the whole document replaced."""
    doc = json.loads(json.dumps(doc))
    slots = list(_nodes(doc))
    if not slots or rng.random() < 0.05:
        return rng.choice(_JUNK)
    parent, key = rng.choice(slots)
    how = rng.randrange(4)
    if how == 0:
        del parent[key]
    elif how == 1:
        parent[key] = rng.choice(_JUNK)
    elif how == 2:
        parent[key] = [parent[key]]
    elif isinstance(parent, dict):
        parent[key + "_"] = parent.pop(key)
    else:
        parent.append(parent[key])
    return doc


def _fuzz_cases(tmp_path):
    """(kind, valid document, argv reading it from the path '{}')."""
    base = tmp_path / "base"
    base.mkdir()
    fixed = {
        "set2": LatticeSet.of([(0, 0), (1, 1), (1, 0)]),
        "set1": LatticeSet.of([(0,), (2,)]),
        "win2": Window((-1, -1), (2, 2)),
        "win3": Window((-1, -1, -1), (2, 2, 2)),
        "pairs": PartitionSpec(((0,), (1,))),
    }
    for name, obj in fixed.items():
        documents.dump(obj, base / f"{name}.json")
    b = lambda name: str(base / f"{name}.json")  # noqa: E731
    net = Network(
        ("u", "z", "w"),
        (Arc("u", "z", -2, 2), Arc("z", "w", -2, 2, ArcCost.from_callable(-2, 2, lambda t: t * t))),
        ("u",),
        ("w",),
    )
    return [
        (LatticeSet.of([(0, 0), (1, 1), (2, 1)]), ["check", "{}", "--class", "lnat-set"]),
        (LatticeSet(2, frozenset({(0, 0), (1, 0)}), lifted=True), ["check", "{}", "--class", "l-set"]),
        (LatticeFn.of({(0, 0): F(1, 2), (1, 0): 2, (1, 1): -1}), ["check", "{}", "--class", "integrally-convex-fn"]),
        (LatticeFn(2, {(0, 0): F(1), (1, 0): F(2)}, lifted=True, ramp=F(1, 3)), ["check", "{}", "--class", "l-fn"]),
        (Window((0, 0), (1, 1)), ["check", b("set2"), "--class", "mnat-set", "--window", "{}"]),
        (SplitSpec((1, 2)), ["op", "split", b("set2"), "--spec", "{}", "--window", b("win3")]),
        (PartitionSpec(((0, 1),)), ["op", "aggregate", b("set2"), "--spec", "{}"]),
        (net, ["induce", "--network", "{}", "--input", b("set1")]),
        ({"type": "verdict", "member": True}, ["check", "{}", "--class", "m-set"]),
    ]


def test_fuzzed_documents_exit_2_or_answer(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "doc.json"
    cases = _fuzz_cases(tmp_path)
    for round_ in range(40):
        for obj, argv in cases:
            doc = _mutate(documents.to_document(obj), rng)
            path.write_text(json.dumps(doc))
            args = [str(path) if a == "{}" else a for a in argv]
            rc = main(args)
            err = capsys.readouterr().err
            if rc == 2:
                assert err.startswith("error:"), (doc, err)
            else:
                assert rc in ((0, 1) if argv[0] == "check" else (0,)), (doc, rc)
