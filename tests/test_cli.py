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


def test_verify_names_the_failing_pair_in_text(capsys, write):
    g = write("k2.graph", "2 1\na b\n")
    rep = write("bad.rep", json.dumps(
        {"universe": [1, 2], "sets": {"a": [1], "b": [2]}}))
    code, out, _ = run(capsys, "verify", g, rep)
    assert code == 0
    assert out.startswith("represents   false\nfailing pair a, b\n")


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


def test_oracle_default_cap_reaches_theta(capsys, write):
    """Without --max-universe, s, sd and sa search up to m + n, where one
    element per edge and one per vertex always give a solution: F3 under
    sa has theta 9, past n + 1 = 8.  u categories keep the cap n + 1."""
    f3 = write("f3.graph", format_graph(zoo.friendship3()))
    code, out, _ = run(capsys, "oracle", f3, "--category", "sa", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["theta"], data["classCount"], data["labeledSolutions"],
            data["exhausted"]) == (9, 4, 8, True)
    code, out, _ = run(capsys, "oracle", f3, "--category", "sdu", "--json")
    assert code == 3
    data = json.loads(out)
    assert (data["searchedTo"], data["stopReason"]) == (8, "max_universe")


def test_oracle_requires_exactly_one_input(capsys, p4):
    """No input and two inputs are refused with exit 1, each with a
    message that names its own mistake."""
    code, _, err = run(capsys, "oracle", "--category", "sd")
    assert code == 1
    assert err == "error: give a graph file or --line-graph-of\n"
    code, _, err = run(capsys, "oracle", p4, "--line-graph-of", p4,
                       "--category", "sd")
    assert code == 1
    assert err == \
        "error: give either a graph file or --line-graph-of, not both\n"


def test_oracle_default_cap_fits_the_assignment_search(capsys, write):
    """The plain categories' default cap is n + 1, but no more than the
    assignment search takes: K_{1,5} has 6 vertices, and under d it is
    searched to universe 6, where theta is 5.  Its one labelled solution
    gives the centre every element and each leaf its own: the orders of
    the elements are one multiset of element groups."""
    star = write("k15.graph", format_graph(zoo.build("star_graph(5)")))
    code, out, err = run(capsys, "oracle", star, "--category", "d", "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert (data["theta"], data["classCount"], data["labeledSolutions"],
            data["exhausted"]) == (5, 1, 1, True)


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


def test_egp_human_form(capsys, write, p4):
    """Without --json, egp prints a representation as witness prints one
    and a cover as one line of vertex labels per clique."""
    code, witness, _ = run(capsys, "witness", p4, "--category", "sd")
    assert code == 0
    _, out, _ = run(capsys, "witness", p4, "--category", "sd", "--json")
    rep = write("p4.rep", out)
    _, out, _ = run(capsys, "linegraph", p4)
    lg = write("lg.graph", out)
    code, out, _ = run(capsys, "egp", "--to-cover", rep, "--graph", lg)
    assert (code, out) == (0, "a-b b-c\nb-c c-d\n")
    _, out, _ = run(capsys, "egp", "--to-cover", rep, "--graph", lg,
                    "--json")
    assert json.loads(out)["cliques"] == [["a-b", "b-c"], ["b-c", "c-d"]]
    cover = write("lg.cover", out)
    code, out, _ = run(capsys, "egp", "--to-set", cover)
    assert (code, out) == (0, witness)
    assert out.startswith("universe: 2 elements\n  a-b: {0}\n")


def test_egp_to_cover_needs_graph(capsys, write):
    rep = write("r.rep", json.dumps({"universe": [1], "sets": {"a": [1]}}))
    code, _, err = run(capsys, "egp", "--to-cover", rep)
    assert code == 1


TRIANGLE = "3 3\na b\na c\nb c\n"


@pytest.mark.parametrize("command,data,field", [
    ("verify", [], "object"),
    ("verify", {"universe": [1]}, '"sets"'),
    ("verify", {"sets": {"a": [1], "b": [1], "c": [1]}}, '"universe"'),
    ("verify", {"universe": [1], "sets": {"a": 1, "b": [1], "c": [1]}},
     "the set of 'a'"),
    ("verify", {"universe": [1, 2], "sets": {"a": [1.5], "b": [1],
                                             "c": [1]}}, "the set of 'a'"),
    ("verify", {"universe": [1.5], "sets": {"a": [1], "b": [1], "c": [1]}},
     '"universe"'),
    ("to-cover", [], "object"),
    ("to-set", [], "object"),
    ("to-set", {"cliques": [["a", "b", "c"]], "graph": 5}, '"graph"'),
    ("to-set", {"cliques": "abc", "graph": TRIANGLE}, '"cliques"'),
    ("to-set", {"cliques": ["abc"], "graph": TRIANGLE}, '"cliques"'),
    ("to-set", {"cliques": [[["a"]]], "graph": TRIANGLE}, '"cliques"'),
], ids=["rep-list", "rep-no-sets", "rep-no-universe", "rep-set-not-list",
        "rep-fraction", "rep-fraction-universe", "to-cover-list",
        "cover-list", "cover-graph-number", "cover-cliques-string",
        "cover-clique-string", "cover-label-list"])
def test_malformed_json_exits_1(capsys, write, command, data, field):
    """JSON of the wrong shape is bad input: exit 1 and a one-line error
    that names the field, never a traceback."""
    g = write("tri.graph", TRIANGLE)
    path = write("bad.json", json.dumps(data))
    argv = (("verify", g, path) if command == "verify"
            else ("egp", f"--{command}", path, "--graph", g)
            if command == "to-cover" else ("egp", f"--{command}", path))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and field in err, err
    assert "Traceback" not in err


def test_dbe(capsys):
    code, out, _ = run(capsys, "dbe", "--n", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["boundHolds"] is True and data["complete"] is True
    assert data["minimumNontrivialPartition"] == 4
    assert data["nearPencilsAtN"] == 4 and data["otherAtN"] == 0


def test_dbe_incomplete_census_claims_no_bound(capsys):
    code, out, _ = run(capsys, "dbe", "--n", "6", "--node-limit", "10",
                       "--json")
    assert code == 3
    data = json.loads(out)
    assert data["complete"] is False
    assert data["boundHolds"] is None
    assert data["minimumNontrivialPartition"] is None
    code, out, _ = run(capsys, "dbe", "--n", "6", "--node-limit", "10")
    assert code == 3
    assert "bound holds       unknown (the census is incomplete)" in out


@pytest.mark.parametrize("argv", [
    ("dbe", "--n", "6", "--node-limit", "-5"),
    ("oracle", "K4", "--category", "sd", "--node-limit", "-5"),
    ("oracle", "K4", "--category", "sd", "--time-limit", "-1"),
    ("oracle", "K4", "--category", "sd", "--time-limit", "nan"),
], ids=["dbe-nodes", "oracle-nodes", "oracle-seconds", "oracle-nan-seconds"])
def test_negative_limits_exit_1(capsys, write, argv):
    k4 = write("k4.graph", format_graph(zoo.build("complete_graph(4)")))
    code, out, err = run(capsys, *(k4 if a == "K4" else a for a in argv))
    assert code == 1 and out == ""
    assert "must not be negative" in err


def test_witness_variants_text(capsys, write):
    g = write("asym.graph", format_graph(zoo.asym_wing()))
    code, out, _ = run(capsys, "witness", g, "--category", "sd",
                       "--variants")
    assert code == 0
    assert out.count("variant ") == 2
    assert out.startswith("variant 1 of 2\nuniverse: 5 elements\n")
    assert "variant 2 of 2\nuniverse: 5 elements\n" in out


def pendant_site(m):
    """One sa site: the vertex v with m pendants and the stem v - u - w."""
    return zoo.from_edges([("v", "u"), ("u", "w")]
                          + [("v", f"p{i}") for i in range(m)])


@pytest.mark.parametrize("m", [90, 132])
def test_witness_site_without_all_planes_exits_2(capsys, write, m):
    """The bundles of an sa site with m + 1 = 91 points include 4 plane
    classes, more than the package builds; with 133 points the plane
    census is open.  Both refuse the variants with the oracle hint."""
    g = write("site.graph", format_graph(pendant_site(m)))
    code, out, err = run(capsys, "witness", g, "--category", "sa",
                         "--variants")
    assert code == 2 and out == ""
    assert "oracle" in err


def test_analyze_site_without_all_planes_keeps_its_notes(capsys, write):
    g = write("site.graph", format_graph(pendant_site(90)))
    code, out, _ = run(capsys, "analyze", g, "--category", "sa")
    assert code == 0
    assert "sa        93            7" in out
    assert "note (sa): cannot construct all 4 plane classes on 91 points" \
        in out
    assert "note (sa): 7 classes exist but only 1 have constructions " \
        "available here" in out


def test_analyze_prints_symbolic_and_unknown_tau(capsys, write):
    g = write("site.graph", format_graph(pendant_site(132)))
    code, out, _ = run(capsys, "analyze", g, "--category", "sa")
    assert code == 0
    assert "sa        135           (3 + N_PP(133))" in out
    star = write("star.graph", format_graph(zoo.from_edges(
        [("c", f"l{i}") for i in range(157)])))
    code, out, _ = run(capsys, "analyze", star, "--category", "sdu")
    assert code == 2
    assert "sdu       needs oracle  unknown" in out
    assert "note (sdu): existence of a projective plane of order 12 is " \
        "open" in out


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
