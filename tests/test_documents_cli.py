import json
from fractions import Fraction

import pytest

from dconvex import documents
from dconvex.cli import main
from dconvex.core import LatticeFn, LatticeSet, Window
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
