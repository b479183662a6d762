"""End-to-end checks of the command line interface (in-process)."""

import json

import pytest

import zoo
from setrep import format_graph
from setrep.cli import main


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return _write


@pytest.fixture
def p4(write):
    return write("p4.graph", "4 3\na b\nb c\nc d\n")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_json(capsys, p4):
    code, out, _ = run(capsys, "analyze", p4, "--category", "sd", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["classification"]["kind"] == "generic"
    assert data["classification"]["gamma"] == 2
    (report,) = data["reports"]
    assert report["category"] == "sd"
    assert report["theta"] == {"exact": 2}
    assert report["tau"] == {"exact": 1}


def test_analyze_human_table(capsys, p4):
    code, out, _ = run(capsys, "analyze", p4)
    assert code == 0
    assert "sd" in out and "sa" in out and "sdu" in out
    assert "generic" in out


def test_analyze_all_oracle_needed_exits_2(capsys, write):
    k4 = write("k4.graph", format_graph(zoo.build("complete_graph(4)")))
    code, out, _ = run(capsys, "analyze", k4, "--category", "sdu")
    assert code == 2
    assert "oracle" in out  # hints at the oracle subcommand


def test_analyze_rejects_disconnected(capsys, write):
    path = write("disc.graph", "4 2\na b\nc d\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 1
    assert "connected" in err


def test_linegraph_json(capsys, p4):
    code, out, _ = run(capsys, "linegraph", p4, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["a-b", "b-c", "c-d"]
    assert data["edges"] == [["a-b", "b-c"], ["b-c", "c-d"]]
    assert data["baseEdges"]["a-b"] == ["a", "b"]


def test_linegraph_text_parses_back(capsys, p4, write):
    code, out, _ = run(capsys, "linegraph", p4)
    assert code == 0
    lg = write("lg.graph", out)
    code, out2, _ = run(capsys, "analyze", lg, "--category", "sd", "--json")
    assert code == 0


def test_witness_and_verify(capsys, p4, write):
    code, out, _ = run(capsys, "witness", p4, "--category", "sa", "--json")
    assert code == 0
    rep = write("p4sa.rep", out)
    lgtext = run(capsys, "linegraph", p4)[1]
    lg = write("p4lg.graph", lgtext)
    code, out, _ = run(capsys, "verify", lg, rep, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["represents"] is True
    assert data["simple"] is True and data["antichain"] is True


def test_verify_reports_failing_pair(capsys, write):
    g = write("k2.graph", "2 1\na b\n")
    rep = write("bad.rep", json.dumps(
        {"universe": [1, 2], "sets": {"a": [1], "b": [2]}}))
    code, out, _ = run(capsys, "verify", g, rep, "--json")
    assert code == 0  # verify reports, it does not fail the process
    data = json.loads(out)
    assert data["represents"] is False
    assert set(data["failingPair"]) == {"a", "b"}


def test_witness_not_applicable_exits_2(capsys, write):
    k4 = write("k4.graph", format_graph(zoo.build("complete_graph(4)")))
    code, _, err = run(capsys, "witness", k4, "--category", "sd")
    assert code == 2
    assert "oracle" in err


def test_oracle_direct(capsys, write):
    k4 = write("k4.graph", format_graph(zoo.build("complete_graph(4)")))
    code, out, _ = run(capsys, "oracle", k4, "--category", "sd", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == 4
    assert data["classCount"] == 2
    assert data["labeledSolutions"] == 8
    assert data["exhausted"] is True
    assert len(data["classes"]) == 2


def test_oracle_linegraph_pedigree(capsys, write):
    f3 = write("f3.graph", format_graph(zoo.friendship3()))
    code, out, _ = run(capsys, "oracle", "--line-graph-of", f3,
                       "--category", "sd", "--max-universe", "7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["theta"] == 7 and data["classCount"] == 2
    assert data["labeledSolutions"] == 3


def test_oracle_budget_exhaustion_exits_3(capsys, write):
    k4 = write("k4.graph", format_graph(zoo.build("complete_graph(4)")))
    code, out, _ = run(capsys, "oracle", k4, "--category", "sd",
                       "--max-universe", "3", "--json")
    assert code == 3
    assert json.loads(out)["theta"] is None


def test_oracle_reports_stop_reason(capsys, write):
    k4 = write("k4.graph", format_graph(zoo.build("complete_graph(4)")))
    for extra, reason in (((), None),
                          (("--max-universe", "3"), "max_universe"),
                          (("--node-limit", "2"), "node_limit")):
        code, out, _ = run(capsys, "oracle", k4, "--category", "sd",
                           "--json", *extra)
        assert code == (0 if reason is None else 3)
        assert json.loads(out)["stopReason"] == reason
    code, out, _ = run(capsys, "oracle", k4, "--category", "sd",
                       "--node-limit", "2")
    assert code == 3
    assert "stop reason  node_limit" in out


def test_oracle_requires_exactly_one_input(capsys, p4):
    code, _, err = run(capsys, "oracle", "--category", "sd")
    assert code == 1
    code, _, err = run(capsys, "oracle", p4, "--line-graph-of", p4,
                       "--category", "sd")
    assert code == 1


def test_planes(capsys):
    code, out, _ = run(capsys, "planes", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["points"] == 7 and len(data["lines"]) == 7


def test_planes_no_such_order(capsys):
    code, _, err = run(capsys, "planes", "--order", "6")
    assert code == 1
    assert "order 6" in err


def test_planes_punctured(capsys):
    code, out, _ = run(capsys, "planes", "--order", "2", "--puncture", "1",
                       "--json")
    assert code == 0
    assert json.loads(out)["points"] == 6


def test_egp_round_trip(capsys, write):
    cover = {
        "graph": "3 3\na b\na c\nb c\n",
        "cliques": [["a", "b", "c"]],
    }
    path = write("tri.cover", json.dumps(cover))
    code, out, _ = run(capsys, "egp", "--to-set", path, "--json")
    assert code == 0
    rep = write("tri.rep", out)
    g = write("tri.graph", "3 3\na b\na c\nb c\n")
    code, out, _ = run(capsys, "egp", "--to-cover", rep, "--graph", g, "--json")
    assert code == 0
    data = json.loads(out)
    assert sorted(map(sorted, data["cliques"])) == [["a", "b", "c"]]


def test_egp_to_cover_needs_graph(capsys, write):
    rep = write("r.rep", json.dumps({"universe": [1], "sets": {"a": [1]}}))
    code, _, err = run(capsys, "egp", "--to-cover", rep)
    assert code == 1


def test_dbe(capsys):
    code, out, _ = run(capsys, "dbe", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["boundHolds"] is True and data["complete"] is True
    assert data["minimumNontrivialPartition"] == 4
    assert data["nearPencilsAtN"] == 4 and data["otherAtN"] == 0


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/path.graph")
    assert code == 1


def test_malformed_graph_exits_1(capsys, write):
    bad = write("bad.graph", "not a graph\n")
    code, _, err = run(capsys, "analyze", bad)
    assert code == 1


def test_console_script_is_wired():
    # the entry point target must stay importable under this exact name
    from setrep import cli
    assert callable(cli.main)
