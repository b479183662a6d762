"""Exhaustive-search oracle: frozen results, the kernel, budgets."""

import itertools
import random
import time
import types

import pytest

import zoo
from setrep import (
    Graph,
    SearchBudget,
    SetRepresentation,
    category_flags,
    complete_graph,
    cycle_graph,
    line_graph,
    oracle_search,
    path_graph,
    represents,
    star_graph,
)
from setrep.partitions import enumerate_edge_partitions
from setrep import oracle
from setrep.oracle import _ClassKeyer, _masks, automorphisms, verify_dbe


def run(graph, category, cap, base=None):
    return oracle_search(graph, category, SearchBudget(max_universe=cap), base=base)


# -- complete graphs -----------------------------------------------------------

COMPLETE = [
    (1, "sd", 1, 1), (1, "sa", 1, 1), (1, "sdu", 1, 1),
    (2, "sd", 2, 1), (2, "sa", 3, 1), (2, "sdu", 3, 1),
    (3, "sd", 3, 2), (3, "sa", 3, 1), (3, "sdu", 3, 1),
    (4, "sd", 4, 2), (4, "sa", 4, 1), (4, "sdu", 5, 1),
    (5, "sd", 5, 2), (5, "sa", 5, 1), (5, "sdu", 6, 1),
]


@pytest.mark.parametrize("n,cat,theta,classes", COMPLETE)
def test_complete_frozen(n, cat, theta, classes):
    r = run(complete_graph(n), cat, theta)
    assert r.exhausted
    assert r.theta == theta
    assert len(r.classes) == classes


def test_complete_labeled_counts():
    assert run(complete_graph(3), "sd", 3).labeled_solutions == 4
    assert run(complete_graph(4), "sd", 4).labeled_solutions == 8
    assert run(complete_graph(5), "sd", 5).labeled_solutions == 10


# -- line graphs, base symmetry included ---------------------------------------

@pytest.mark.parametrize("name,cat", sorted(zoo.LINEGRAPH_EXPECTED))
def test_linegraph_frozen(name, cat):
    theta, classes = zoo.LINEGRAPH_EXPECTED[(name, cat)]
    base = zoo.build(name)
    lg, _ = line_graph(base)
    r = run(lg, cat, theta, base=base)
    assert r.exhausted
    assert (r.theta, len(r.classes)) == (theta, classes)
    # every reported class representative really is a minimum representation
    for rep in r.classes:
        assert represents(rep, lg)
        assert rep.universe_size == theta
        flags = category_flags(rep)
        assert flags.simple
        if "d" in cat:
            assert flags.distinct
        if "a" in cat:
            assert flags.antichain
        if "u" in cat:
            assert flags.uniform


def test_linegraph_labeled_counts():
    cases = [
        ("plumed_triangle(2)", "sd", 4),
        ("plumed_triangle(2)", "sa", 3),
        ("friendship3()", "sd", 3),
        ("bridged_triangles()", "sd", 4),
        ("dumbbell()", "sa", 4),
        ("spider()", "sa", 5),
        ("asym_wing()", "sd", 4),
    ]
    for name, cat, labeled in cases:
        base = zoo.build(name)
        lg, _ = line_graph(base)
        theta, _ = zoo.LINEGRAPH_EXPECTED[(name, cat)]
        assert run(lg, cat, theta, base=base).labeled_solutions == labeled


# -- plain categories against an in-test brute force ---------------------------

def brute_theta(g, category):
    """Minimum universe by raw enumeration of set assignments."""
    want = {"d": "distinct", "a": "antichain", "u": "uniform", "s": "simple"}
    for p in range(1, 6):
        subsets = [frozenset(c)
                   for size in range(1, p + 1)
                   for c in itertools.combinations(range(p), size)]
        for choice in itertools.product(subsets, repeat=g.n):
            ok = True
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if bool(choice[u] & choice[v]) != g.has_edge(u, v):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            rep = SetRepresentation(tuple(range(p)), choice)
            flags = category_flags(rep)
            if all(getattr(flags, want[c]) for c in category):
                return p
    raise AssertionError("no representation within universe 5")


@pytest.mark.parametrize("cat", ["d", "a", "u", "s", "sd", "sa"])
@pytest.mark.parametrize("gname", ["path_graph(3)", "path_graph(4)", "complete_graph(3)"])
def test_oracle_matches_brute_force(gname, cat):
    g = zoo.build(gname)
    expect = brute_theta(g, cat)
    r = run(g, cat, expect)
    assert r.exhausted and r.theta == expect


# -- kernels and budgets --------------------------------------------------------

def brute_partitions(g, q):
    """Edge clique partitions of ``g`` into at most ``q`` cliques, as the
    kernel reports them: every set partition of the edge set whose blocks
    are exactly the edge sets of cliques, blocks as vertex bitmasks."""
    edges = list(g.edges)

    def set_partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in set_partitions(rest):
            yield [[first]] + part
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]

    found = set()
    for part in set_partitions(edges):
        if len(part) > q:
            continue
        masks = []
        for block in part:
            verts = {v for e in block for v in e}
            if len(block) != len(verts) * (len(verts) - 1) // 2:
                break
            masks.append(sum(1 << v for v in verts))
        else:
            found.add(tuple(sorted(masks)))
    return found


def kernel_inputs():
    """Seeded random graphs with at most 8 edges, each with every q up to
    its edge count."""
    rng = random.Random(2013)
    for _ in range(30):
        n = rng.randint(2, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(0, min(8, len(pairs)))))
        g = Graph(tuple(range(n)), tuple(edges))
        for q in range(len(edges) + 1):
            yield g, q


def test_pure_kernel_agrees():
    """The kernel finds exactly the brute-force partitions, once each."""
    for g, q in kernel_inputs():
        parts, _, complete = enumerate_edge_partitions(g.n, _masks(g), q)
        assert complete
        assert len(parts) == len(set(parts))
        assert set(parts) == brute_partitions(g, q), (g.edges, q)


def test_census_node_ceiling():
    """Fail-first branching keeps the K8 census small (28,546 nodes when
    branching on the least uncovered edge)."""
    report = verify_dbe(8)
    assert report.complete and report.bound_holds
    assert report.nodes <= 25_000


@pytest.mark.parametrize("runs", [1, 2])
def test_pooled_node_budget(runs):
    """The K7 census takes 2,135 nodes: complete at that budget, not at
    one node fewer. The budget is per call, so repeating the census in the
    same process gives the same answer."""
    for _ in range(runs):
        assert verify_dbe(7, node_limit=2135).complete
        assert not verify_dbe(7, node_limit=2134).complete


@pytest.mark.parametrize("graph,category,cap", [
    (complete_graph(4), "sd", 4),
    (complete_graph(5), "sa", 5),
    (path_graph(4), "sd", 4),
    (complete_graph(4), "sd", 3),
    (path_graph(4), "a", 5),
], ids=["K4-sd", "K5-sa", "P4-sd", "K4-sd-cap3", "P4-a"])
def test_node_budget_is_inclusive(graph, category, cap):
    """A search that needs exactly ``node_limit`` nodes is exhausted, with
    the unlimited search's answer; one node fewer is not enough."""
    free = run(graph, category, cap)
    assert free.exhausted

    def answer(r):
        return r.theta, r.classes, r.labeled_solutions

    exact = oracle_search(graph, category, SearchBudget(
        max_universe=cap, node_limit=free.nodes))
    assert exact.exhausted and exact.nodes == free.nodes
    assert answer(exact) == answer(free)
    short = oracle_search(graph, category, SearchBudget(
        max_universe=cap, node_limit=free.nodes - 1))
    assert not short.exhausted


def friendship(k):
    """k triangles sharing the hub z."""
    return zoo.from_edges([edge for i in range(k) for edge in (
        ("z", f"a{i}"), ("z", f"b{i}"), (f"a{i}", f"b{i}"))])


@pytest.mark.parametrize("limit", [1_000, 10_000])
def test_node_budget_bounds_padding(limit):
    """F4 sdu within 15 elements is almost all padding (439,830 nodes
    unlimited); the node limit stops the placements, not just the kernel,
    at the first node past it."""
    r = oracle_search(friendship(4), "sdu",
                      SearchBudget(max_universe=15, node_limit=limit))
    assert r.nodes == limit + 1
    assert not r.exhausted and r.theta is None
    assert r.stop_reason == "node_limit"


def test_deadline_bounds_padding(monkeypatch):
    """The oracle's clock jumps past the deadline after the padding at
    universe size 12 (28,033 placements) first looks at it, on its first
    placement: the padding stops at its next check, at most 4,096 nodes
    later, instead of trying every placement of the level."""
    g, level = friendship(4), 12
    before = run(g, "sdu", level - 1).nodes
    kernel_nodes = []
    looks = []

    def kernel(n, adj, q, **limits):
        out = enumerate_edge_partitions(n, adj, q, **limits)
        if q == level:
            kernel_nodes.append(out[1])
        return out

    def clock():
        if kernel_nodes:
            looks.append(1)
        return time.monotonic() + (3600.0 if len(looks) > 1 else 0.0)

    monkeypatch.setattr(oracle, "enumerate_edge_partitions", kernel)
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(monotonic=clock))
    r = oracle_search(g, "sdu", SearchBudget(max_universe=15, time_limit=60))
    placements = r.nodes - before - kernel_nodes[0]
    assert 0 < placements <= 4096
    assert not r.exhausted and r.theta is None
    assert r.searched_to == level - 1
    assert r.stop_reason == "time_limit"


@pytest.mark.parametrize("graph,category", [
    (complete_graph(4), "sd"),
    (complete_graph(3), "d"),
], ids=["K4-sd-partition", "K3-d-assignment"])
def test_cut_short_level_reports_theta(graph, category):
    """A node limit that stops the search inside theta's level, after it
    found solutions, reports theta with the classes found so far (a prefix
    of the full list), not exhausted; every smaller size was searched."""
    free = run(graph, category, 5)
    theta = free.theta
    floor = run(graph, category, theta - 1).nodes
    partial = 0
    for limit in range(floor, free.nodes):
        r = oracle_search(graph, category, SearchBudget(
            max_universe=5, node_limit=limit))
        assert not r.exhausted and r.stop_reason == "node_limit"
        assert r.searched_to == theta - 1
        if not r.labeled_solutions:
            assert r.theta is None and r.classes == ()
            continue
        assert r.theta == theta
        assert r.classes == free.classes[:len(r.classes)]
        assert r.labeled_solutions <= free.labeled_solutions
        partial += r.labeled_solutions < free.labeled_solutions
    assert partial


def test_stop_reason():
    """None when theta's level was searched in full, "max_universe" when
    the cap was reached without a solution."""
    assert run(complete_graph(4), "sd", 4).stop_reason is None
    assert run(path_graph(4), "a", 5).stop_reason is None
    assert run(complete_graph(4), "sd", 3).stop_reason == "max_universe"
    r = oracle_search(complete_graph(4), "sd",
                      SearchBudget(max_universe=4, node_limit=2))
    assert r.stop_reason == "node_limit"


def test_budget_cap_below_theta():
    r = run(complete_graph(4), "sd", 3)
    assert r.exhausted and r.theta is None and r.searched_to == 3


def test_budget_node_limit():
    r = oracle_search(complete_graph(4), "sd",
                      SearchBudget(max_universe=4, node_limit=2))
    assert not r.exhausted and r.theta is None


def test_budget_time_limit():
    r = oracle_search(complete_graph(4), "sd",
                      SearchBudget(max_universe=4, time_limit=0.0))
    assert not r.exhausted


# -- automorphisms helper --------------------------------------------------------

@pytest.mark.parametrize("gname,count", [
    ("path_graph(4)", 2),
    ("cycle_graph(5)", 10),
    ("star_graph(4)", 24),
    ("dumbbell()", 8),
    ("spider()", 6),
    ("bridged_triangles()", 8),
    ("asym_wing()", 4),  # wing tips swap, pendant pair swaps
])
def test_automorphism_counts(gname, count):
    g = zoo.build(gname)
    perms = automorphisms(g)
    assert len(perms) == count
    for p in perms:  # each really is an automorphism
        for u, v in g.edges:
            assert g.has_edge(p[u], p[v])


# -- direct input: keyed by canonical form, not by a listed Aut(H) -----------------

def multipartite(*sizes):
    parts = [(i, j) for i, size in enumerate(sizes) for j in range(size)]
    return zoo.from_edges([(f"p{a}_{x}", f"p{b}_{y}")
                           for n, (a, x) in enumerate(parts)
                           for b, y in parts[n + 1:] if a != b])


DIRECT = [
    pytest.param(zoo.friendship3(), "sa", id="F3-sa"),
    pytest.param(multipartite(2, 2, 2), "sd", id="K222-sd"),
    pytest.param(multipartite(1, 1, 3), "sd", id="K113-sd"),
    pytest.param(star_graph(5), "sd", id="star5-sd"),
    pytest.param(path_graph(5), "sd", id="P5-sd"),
    pytest.param(path_graph(5), "sa", id="P5-sa"),
    pytest.param(cycle_graph(6), "sd", id="C6-sd"),
    pytest.param(cycle_graph(6), "sa", id="C6-sa"),
]


@pytest.mark.parametrize("g,cat", DIRECT)
def test_direct_keyer_matches_listed_automorphisms(g, cat, monkeypatch):
    """Keying direct input by canonical form gives the classes that
    minimising over an explicitly listed Aut(H) gives."""
    cap = g.n + g.m
    got = run(g, cat, cap)
    monkeypatch.setattr(oracle, "_symmetry_keyer",
                        lambda graph, base: _ClassKeyer(graph.n,
                                                        automorphisms(graph)))
    want = run(g, cat, cap)
    assert got.exhausted and want.exhausted
    assert (got.theta, len(got.classes), got.labeled_solutions,
            got.classes) == (want.theta, len(want.classes),
                             want.labeled_solutions, want.classes)


def test_direct_input_lists_no_automorphisms(monkeypatch):
    """star_graph(9) has 9! automorphisms; direct input never lists them."""
    def refuse(graph):
        raise AssertionError("automorphisms listed for direct input")

    monkeypatch.setattr(oracle, "automorphisms", refuse)
    r = run(star_graph(9), "sd", 9)
    assert r.exhausted and r.theta == 9 and len(r.classes) == 1
