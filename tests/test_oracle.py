"""Exhaustive-search oracle: frozen results, kernels, budgets."""

import itertools
import random

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
from setrep._partition_py import enumerate_edge_partitions as pure_kernel
from setrep.oracle import _masks, automorphisms, verify_dbe


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
    """The pure kernel finds exactly the brute-force partitions, once each."""
    for g, q in kernel_inputs():
        parts, _, complete = pure_kernel(g.n, _masks(g), q)
        assert complete
        assert len(parts) == len(set(parts))
        assert set(parts) == brute_partitions(g, q), (g.edges, q)


def test_root_slices_add_up():
    """Slices of the root split partition the search: their partitions and
    node counts add up to the whole search's, the shared root counted once."""
    for g, q in kernel_inputs():
        whole, nodes, _ = pure_kernel(g.n, _masks(g), q)
        parts, total = [], 0
        for offset in range(3):
            sub, n_sub, _ = pure_kernel(g.n, _masks(g), q,
                                        root_stride=3, root_offset=offset)
            parts += sub
            total += n_sub
        assert sorted(parts) == sorted(whole) and total == nodes


def test_census_node_ceiling():
    """Fail-first branching keeps the K8 census small (28,546 nodes when
    branching on the least uncovered edge)."""
    report = verify_dbe(8)
    assert report.complete and report.bound_holds
    assert report.nodes <= 25_000


def test_compiled_kernel_agrees():
    """The compiled twin returns the pure kernel's partitions, in the same
    order, with the same node count."""
    compiled = pytest.importorskip(
        "setrep._partition_c",
        reason="compiled kernel not built; nothing to compare the pure "
               "kernel with")
    graphs = [(complete_graph(n), n) for n in (4, 5, 6, 7)]
    for name in ("bridged_triangles()", "dumbbell()", "spider()",
                 "asym_wing()"):
        lg, _ = line_graph(zoo.build(name))
        graphs += [(lg, q) for q in range(2, 7)]
    for g, q in graphs:
        for stride, offset in ((1, 0), (2, 0), (2, 1)):
            args = (g.n, _masks(g), q)
            kwargs = dict(root_stride=stride, root_offset=offset)
            assert compiled.enumerate_edge_partitions(*args, **kwargs) == \
                pure_kernel(*args, **kwargs)


def test_threaded_search_agrees(monkeypatch):
    base = zoo.bridged_triangles()
    lg, _ = line_graph(base)
    solo = run(lg, "sd", 6, base=base)
    monkeypatch.setenv("SETREP_THREADS", "4")
    multi = run(lg, "sd", 6, base=base)
    assert (multi.theta, len(multi.classes), multi.labeled_solutions) == (
        solo.theta, len(solo.classes), solo.labeled_solutions)
    assert multi.nodes == solo.nodes


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
