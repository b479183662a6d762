"""Exhaustive-search oracle: frozen results, the kernel, budgets."""

import collections
import dataclasses
import gc
import importlib
import itertools
import pkgutil
import random
import threading
import time
import types

import pytest

import zoo
from setrep import (
    Graph,
    SearchBudget,
    SetRepresentation,
    category_flags,
    classify,
    complete_graph,
    cycle_graph,
    canonical_form,
    line_graph,
    near_pencil,
    oracle_search,
    path_graph,
    projective_plane,
    represents,
    star_graph,
    theta_tau_linegraph,
    witness_sd_variants,
)
from setrep.errors import SetrepError
from zoo import automorphisms
from setrep.partitions import enumerate_edge_partitions
import setrep
from setrep import oracle, partitions, representations
from setrep.oracle import _ClassKeyer, _masks, verify_dbe


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


def random_base(rng):
    """A seeded connected graph on three to eight vertices with 3 to 11
    edges."""
    while True:
        n = rng.randint(3, 8)
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        for _ in range(rng.randint(0, n)):
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
        if 3 <= len(edges) <= 11:
            return Graph(tuple(range(n)), tuple(sorted(edges)))


def twin_swaps(g, closed):
    """The transpositions of twins of ``g``: true twins (equal closed
    neighbourhoods) if ``closed``, false twins (equal open ones) if not."""
    swaps = []
    for u, v in itertools.combinations(range(g.n), 2):
        if g.adj[u] - {v} == g.adj[v] - {u} and g.has_edge(u, v) == closed:
            sigma = list(range(g.n))
            sigma[u], sigma[v] = v, u
            swaps.append(tuple(sigma))
    return swaps


def test_line_graph_twin_swaps_are_base_symmetries():
    """The kernel prunes by swaps of true twins.  On line-graph input
    classes are keyed by Aut(base) alone, so every such swap must be
    induced by an automorphism of the base: it is on every zoo base and
    on 300 seeded random bases.  False twins are not safe: the three
    antipodal pairs of L(K4) are false twins, and no relabelling of K4
    swaps just one of them."""
    rng = random.Random(2026)
    names = {k for k, _ in zoo.LINEGRAPH_EXPECTED} | {"cornered_triangle()"}
    bases = [zoo.build(name) for name in sorted(names)]
    bases += [random_base(rng) for _ in range(300)]
    swaps = 0
    for base in bases:
        induced = set(automorphisms(base, points=base.edges))
        for sigma in twin_swaps(line_graph(base)[0], closed=True):
            assert sigma in induced, (base.edges, sigma)
            swaps += 1
    assert swaps >= 100
    k4 = complete_graph(4)
    false = twin_swaps(line_graph(k4)[0], closed=False)
    assert len(false) == 3
    assert not set(false) & set(automorphisms(k4, points=k4.edges))


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


def blow_up(rng):
    """A seeded graph with forced true twins: each vertex of a random graph
    on two to four vertices becomes a clique of one to three vertices,
    joined to the cliques of its neighbours.  At most 8 edges."""
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
        blobs = [range(a, b) for a, b in zip(starts, starts[1:])]
        edges = {e for blob in blobs for e in itertools.combinations(blob, 2)}
        for a, b in itertools.combinations(blobs, 2):
            if rng.random() < 0.5:
                edges |= {(u, v) for u in a for v in b}
        if len(edges) <= 8:
            return Graph(tuple(range(starts[-1])), tuple(sorted(edges)))


def kernel_inputs():
    """Seeded random graphs and blow-ups with at most 8 edges, each with
    every q up to its edge count."""
    rng = random.Random(2013)
    graphs = []
    for _ in range(30):
        n = rng.randint(2, 6)
        pairs = list(itertools.combinations(range(n), 2))
        edges = sorted(rng.sample(pairs, rng.randint(0, min(8, len(pairs)))))
        graphs.append(Graph(tuple(range(n)), tuple(edges)))
    graphs += [blow_up(rng) for _ in range(30)]
    for g in graphs:
        for q in range(len(g.edges) + 1):
            yield g, q


def twin_orbit(g):
    """A function taking each partition of ``g`` to the least partition of
    its orbit under the product of the symmetric groups on the true-twin
    classes of ``g``."""
    classes = {}
    for v in range(g.n):
        classes.setdefault(g.adj[v] | {v}, []).append(v)
    classes = [c for c in classes.values() if len(c) > 1]
    perms = []
    for images in itertools.product(*map(itertools.permutations, classes)):
        sigma = list(range(g.n))
        for cls, image in zip(classes, images):
            for v, w in zip(cls, image):
                sigma[v] = w
        perms.append(sigma)
    return lambda part: min(
        tuple(sorted(sum(1 << sigma[v] for v in oracle._bits(cl))
                     for cl in part))
        for sigma in perms)


def test_pure_kernel_agrees():
    """The kernel returns brute-force partitions, once each, and meets
    every orbit of them under twin swaps: the weights of the partitions it
    returns in one orbit sum to the orbit's size."""
    for g, q in kernel_inputs():
        pairs, _, complete = enumerate_edge_partitions(g.n, _masks(g), q)
        assert complete
        parts = [part for part, _weight in pairs]
        assert len(parts) == len(set(parts))
        brute = brute_partitions(g, q)
        assert set(parts) <= brute, (g.edges, q)
        orbit = twin_orbit(g)
        size = collections.Counter(map(orbit, brute))
        weights = collections.Counter()
        for part, weight in pairs:
            weights[orbit(part)] += weight
        assert weights == size, (g.edges, q)


def at_most_two_cliques(n, masks):
    """Brute force: some clique C of the graph, possibly empty, leaves
    outside its edges the edges of one clique or none."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if masks[u] >> v & 1]
    for c in range(1 << n):
        inside = [(u, v) for u, v in pairs if c >> u & c >> v & 1]
        k = c.bit_count()
        if k > 1 and len(inside) != k * (k - 1) // 2:
            continue
        outside = [e for e in pairs if e not in inside]
        k2 = len({v for e in outside for v in e})
        if len(outside) == k2 * (k2 - 1) // 2:
            return True
    return False


def edge_masks(n, edges):
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def two_clique_inputs():
    """Every labelled graph with an edge on at most 5 vertices, and 300
    seeded graphs on 6 to 8 vertices: the edges of two random vertex sets
    with up to two pairs toggled.  Each as (n, adjacency masks)."""
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1, 1 << len(pairs)):
            yield n, edge_masks(n, [e for i, e in enumerate(pairs)
                                    if chosen >> i & 1])
    rng = random.Random(1948)
    for _ in range(300):
        n = rng.randint(6, 8)
        edges = set()
        for _clique in range(2):
            verts = rng.sample(range(n), rng.randint(2, n))
            edges |= set(itertools.combinations(sorted(verts), 2))
        for _toggle in range(rng.randint(0, 2)):
            edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
        if edges:
            yield n, edge_masks(n, edges)


def test_two_clique_rule_is_exact():
    """The kernel's two-clique test says that the uncovered edges are the
    edges of at most two cliques exactly when a brute force over vertex
    sets finds such cliques, and both answers occur on 4 to 8 vertices (on
    fewer, every graph is two cliques).  The test stays well under 1 s."""
    outcomes = collections.defaultdict(set)
    start = time.monotonic()
    for n, masks in two_clique_inputs():
        active = sum(1 << v for v in range(n) if masks[v])
        total = sum(mask.bit_count() for mask in masks)
        got = partitions._two_cliques(masks, active, total)
        assert got == at_most_two_cliques(n, masks), masks
        outcomes[n].add(got)
    assert time.monotonic() - start < 1.0
    assert all(outcomes[n] == {True, False} for n in range(4, 9)), outcomes
    assert outcomes[2] == outcomes[3] == {True}


def budget_inputs():
    """K4-K7 up to q = n, and the line graph of each zoo base up to one
    more than its largest frozen theta."""
    for n in range(4, 8):
        yield complete_graph(n), n
    thetas = {}
    for (name, _cat), (theta, _classes) in zoo.LINEGRAPH_EXPECTED.items():
        thetas[name] = max(theta, thetas.get(name, 0))
    for name, theta in sorted(thetas.items()):
        yield line_graph(zoo.build(name))[0], theta + 1


def test_budget_prunes_no_partition():
    """A smaller clique budget only drops the partitions it cannot afford:
    the (partition, weight) pairs with at most q cliques are those of the
    largest budget with at most q cliques, in the same sorted order."""
    for g, top in budget_inputs():
        masks = _masks(g)
        full, _, complete = enumerate_edge_partitions(g.n, masks, top)
        assert complete and full == sorted(full)
        for q in range(top):
            parts, _, complete = enumerate_edge_partitions(g.n, masks, q)
            assert complete
            assert parts == [(p, w) for p, w in full if len(p) <= q], \
                (g.edges, q)


def connected_base(rng):
    """A seeded connected graph with 6 to 12 edges on 6 to 13 vertices: a
    random spanning tree plus random chords."""
    m = rng.randint(6, 12)
    n = rng.randint(6, m + 1)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(tuple(range(n)), tuple(sorted(edges)))


def resume_inputs():
    """budget_inputs(), the line graphs of K_{1,3}-K_{1,7}, K4-K8 and the
    line graphs of 200 seeded random connected bases, each with the
    largest budget to search it to."""
    yield from budget_inputs()
    for k in range(3, 8):
        yield line_graph(star_graph(k))[0], k
    for n in range(4, 9):
        yield complete_graph(n), n
    rng = random.Random(1985)
    for _ in range(200):
        lg = line_graph(connected_base(rng))[0]
        yield lg, lg.n


def resumed_levels(g, budgets):
    """One run of the kernel over ``budgets`` that resumes its frontier:
    ``(q, pairs, nodes)`` per call."""
    masks = _masks(g)
    frontier = partitions.Frontier()
    for q in budgets:
        pairs, nodes, complete = enumerate_edge_partitions(
            g.n, masks, q, frontier=frontier)
        assert complete
        yield q, pairs, nodes


def test_resumed_levels_match_one_call():
    """A run that resumes its frontier returns at each budget only the
    partitions new there, never one twice, and the pairs merged over the
    budgets up to q are one call's at q, in the same sorted order.  Budgets
    may also skip or repeat; a repeated one finds nothing new."""
    for g, top in resume_inputs():
        masks = _masks(g)
        for budgets in (range(1, top + 1), [0, 0, 2, 2] + [top, top]):
            merged = []
            for q, pairs, _nodes in resumed_levels(g, budgets):
                assert pairs == sorted(pairs)
                assert not {p for p, _w in pairs} & {p for p, _w in merged}, \
                    (g.edges, q)
                merged = sorted(merged + pairs)
                assert merged == enumerate_edge_partitions(
                    g.n, masks, q)[0], (g.edges, q)


def test_resumed_levels_spend_no_more_nodes():
    """A resumed node is counted once per run: the nodes of the budgets
    1..q together are at most those of one call at q.  The K7 oracle under
    sd spends 181 nodes (170 in the kernel; 353 when every level searched
    the kernel from its root)."""
    for g, top in resume_inputs():
        masks = _masks(g)
        spent = 0
        for q, _pairs, nodes in resumed_levels(g, range(1, top + 1)):
            spent += nodes
            assert spent <= enumerate_edge_partitions(g.n, masks, q)[1], \
                (g.edges, q)
    assert run(complete_graph(7), "sd", 7).nodes == 181


def test_levels_pad_the_partitions_of_one_call(monkeypatch):
    """Each level p of an oracle run pads exactly the partitions of one
    kernel call at p whose clique count plus least pad count is p, with
    their weights and in their sorted order: filing the resumed levels'
    partitions keeps the padding order, so the class representatives are
    those of a kernel restarted at every level.  On the zoo and 60 seeded
    random bases in sd, sa and sdu, and on K3-K7."""
    rng = random.Random(1984)
    names = sorted({k for k, _ in zoo.LINEGRAPH_EXPECTED})
    bases = [zoo.build(name) for name in names]
    bases += [random_base(rng) for _ in range(60)]
    cases = [(line_graph(base)[0], base, cat)
             for base in bases for cat in ("sd", "sa", "sdu")]
    cases += [(complete_graph(n), None, cat)
              for n in range(3, 8) for cat in ("sd", "sa", "sdu")]
    padded = []
    pad = oracle._solutions_at_level

    def record(category, batch, p, counter):
        padded.append((p, [(part, weight)
                           for (part, _member, _facts), weight in batch]))
        return pad(category, batch, p, counter)

    monkeypatch.setattr(oracle, "_solutions_at_level", record)
    for g, base, cat in cases:
        del padded[:]
        run(g, cat, g.n + 2, base=base)
        assert padded
        for p, pairs in padded:
            assert pairs == [
                (part, weight) for part, weight
                in enumerate_edge_partitions(g.n, _masks(g), p)[0]
                if len(part) + generic_pad_facts(
                    oracle._memberships(g.n, part), cat)[0] == p], \
                (g.edges, cat, p)


# -- the partition record: runs on one graph share its partitions ------------

def generic_pad_facts(member, category):
    """The padding facts by their definition, one pair of vertices at a
    time: the reference for ``oracle._pad_facts``.  Outside u the least
    count is one pad for each vertex that must hold one or has a later
    twin; under u it fills every set to the least size at which the bare
    vertices are nonempty and, under d, pairwise distinct."""
    n = len(member)
    if "u" in category:
        counts = [m.bit_count() for m in member]
        size = max(counts)
        while True:
            bare = [v for v in range(n) if counts[v] == size]
            if all(member[v] for v in bare) and not (
                    "d" in category and any(member[u] == member[v]
                                            for u in bare for v in bare
                                            if u < v)):
                break
            size += 1
        placement = tuple(v for v in range(n)
                          for _ in range(size - counts[v]))
        return len(placement), placement
    want_a = "a" in category
    want_d = "d" in category and not want_a
    must = [not m or want_a and any(u != v and m & member[u] == m
                                     for u in range(n))
            for v, m in enumerate(member)]
    twin = [want_d and m != 0 and m in member[v + 1:]
            for v, m in enumerate(member)]
    return sum(must) + sum(twin), must, twin


def test_pad_facts_read_membership_counts():
    """On every partition the kernel returns for K2-K7 and for seeded
    random graphs and their line graphs with at most 24 edges, the padding
    facts, the least pad count among them, equal their definition in s,
    sd, sa, su and sdu.  They read off membership counts: under a a
    vertex is padded iff it lies in at most one clique, under d only
    vertices in exactly one clique have a twin, and under u the sets
    take the largest membership count, or one more."""
    rng = random.Random(2023)
    graphs = [complete_graph(n) for n in range(2, 8)]
    for _ in range(40):
        g = random_base(rng)
        graphs += [g, line_graph(g)[0]]
    checked = 0
    for g in (g for g in graphs if g.m <= 24):
        pairs, _, complete = enumerate_edge_partitions(g.n, _masks(g), g.m)
        assert complete and pairs
        for part, _weight in pairs:
            member = oracle._memberships(g.n, part)
            for cat in ("s", "sd", "sa", "su", "sdu"):
                facts = oracle._pad_facts(member, cat)
                assert facts == generic_pad_facts(member, cat), (g.edges, part)
                if "u" in cat:
                    most = max(m.bit_count() for m in member)
                    assert len(set(member[v].bit_count() + facts[1].count(v)
                                   for v in range(g.n))) == 1
                    assert (facts[0] + sum(m.bit_count() for m in member)
                            - most * g.n) in (0, g.n)
                else:
                    least, must, twin = facts
                    if "a" in cat:
                        assert must == [m.bit_count() <= 1 for m in member]
                    assert all(member[v].bit_count() == 1
                               for v in range(g.n) if twin[v])
                    assert least == sum(must) + sum(twin)
                checked += 1
    assert checked > 10_000


def answer(r):
    """Every field of an oracle result but ``elapsed``."""
    return {f.name: getattr(r, f.name) for f in dataclasses.fields(r)
            if f.name != "elapsed"}


def test_answers_do_not_depend_on_what_ran_before(monkeypatch):
    """Seeded random sequences of twelve (category, max_universe,
    node_limit) on one graph object, given directly or as a line graph
    with its base (960 runs): each result equals that of a run on a fresh
    equal graph in every field but ``elapsed``, whether the runs before it
    left budgets to replay, a frontier to resume or no record at all."""
    rng = random.Random(2024)
    calls = kernel_calls(monkeypatch)
    cases = []
    for _ in range(40):
        cases.append((random_base(rng), None))
        base = connected_base(rng)
        cases.append((line_graph(base)[0], base))
    in_turn, fresh_calls = [], 0
    for g, base in cases:
        runs = []
        del calls[:]
        for _ in range(12):
            cat = rng.choice(("s", "sd", "sa", "su", "sdu"))
            budget = SearchBudget(
                max_universe=rng.randint(g.n // 2, g.n + 2),
                node_limit=rng.choice((None, rng.randint(0, 30),
                                       rng.randint(0, 150))))
            runs.append((cat, budget, oracle_search(g, cat, budget,
                                                    base=base)))
        in_turn += calls
        del calls[:]
        for cat, budget, r in runs:
            fresh = oracle_search(Graph(g.labels, g.edges), cat, budget,
                                  base=base)
            assert answer(r) == answer(fresh), (g.edges, cat, budget)
        fresh_calls += len(calls)
    # the runs in turn replayed most budgets and cut kernel calls short
    assert len(in_turn) < fresh_calls / 2
    assert [q for q, _resumed, complete in in_turn if not complete]


def zoo_caps():
    """Each zoo base, its line graph and its frozen theta in sd and sa."""
    thetas = collections.defaultdict(dict)
    for (name, cat), (theta, _classes) in zoo.LINEGRAPH_EXPECTED.items():
        thetas[name][cat] = theta
    for name, theta in sorted(thetas.items()):
        if {"sd", "sa"} <= theta.keys():
            base = zoo.build(name)
            yield base, line_graph(base)[0], theta["sd"], theta["sa"]


def test_second_category_searches_only_past_the_first(monkeypatch):
    """On each zoo base the sa run after the sd run on the same line graph
    calls the kernel only for the budgets past those the sd run searched,
    each resuming the shared frontier, and answers as a fresh run does."""
    calls = kernel_calls(monkeypatch)
    resumed = replayed = 0
    for base, lg, sd_cap, sa_cap in zoo_caps():
        del calls[:]
        run(lg, "sd", sd_cap, base=base)
        first = [q for q, _resumed, _complete in calls]
        assert first == list(range(1, len(first) + 1))
        del calls[:]
        r = run(lg, "sa", sa_cap, base=base)
        assert calls == [[q, True, True] for q in
                         range(len(first) + 1, len(first) + 1 + len(calls))]
        resumed += bool(calls)
        replayed += not calls
        fresh = run(Graph(lg.labels, lg.edges), "sa", sa_cap, base=base)
        assert answer(r) == answer(fresh), base.edges
    assert resumed and replayed


def test_a_run_cut_in_the_kernel_leaves_no_record(monkeypatch):
    """A node limit inside a recorded budget stops the run at the first
    node past it without a kernel call, and keeps the record; one inside a
    new budget cuts the kernel call short and drops the record, so the
    next run searches from the root.  Every answer is a fresh run's."""
    low = run(complete_graph(7), "sd", 6).nodes
    budgets = [SearchBudget(max_universe=7, node_limit=limit)
               for limit in (low // 2, low + 3)] + [SearchBudget(7)]
    fresh = [oracle_search(complete_graph(7), "sd", b) for b in budgets]
    g, info = complete_graph(7), oracle._partition_record.cache_info
    calls = kernel_calls(monkeypatch)
    run(g, "sd", 6)
    assert info().currsize == 1 and len(calls) == 6
    for budget, kernel, kept, expect in zip(
            budgets, ([], [[7, True, False]], [[1, False, True]]),
            (1, 0, 1), fresh):
        del calls[:]
        r = oracle_search(g, "sd", budget)
        assert calls[:1] == kernel and info().currsize == kept
        assert answer(r) == answer(expect)
    assert [r.stop_reason for r in fresh] == ["node_limit"] * 2 + [None]
    assert [r.nodes for r in fresh[:2]] == [low // 2 + 1, low + 4]


def test_threads_do_not_share_a_record(monkeypatch):
    """A run in another thread on the same graph object neither reads nor
    changes this thread's record: each thread's first run searches from
    the root, and the answers are equal."""
    g = complete_graph(6)
    calls = kernel_calls(monkeypatch)
    mine = run(g, "sd", 6)
    theirs = []
    worker = threading.Thread(target=lambda: theirs.append(run(g, "sd", 6)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert [c[:2] for c in calls] == [[q, q > 1] for q in range(1, 7)] * 2
    assert answer(theirs[0]) == answer(mine)


def test_census_node_ceiling():
    """Twin-orbit pruning keeps the K8 census small: 664 nodes (12,235
    when every labelled partition was searched)."""
    report = verify_dbe(8)
    assert report.complete and report.bound_holds
    assert report.nodes <= 1_000


@pytest.mark.parametrize("n,ceiling", [(9, 5_000), (10, 25_000)])
def test_census_of_larger_complete_graphs(n, ceiling):
    """The K9 and K10 censuses finish within their node ceilings (3,273 and
    19,601 nodes; 167,166 and 3,053,611 without twin-orbit pruning), with
    the labelled counts the bound predicts: the whole clique, n
    near-pencils and no plane."""
    report = verify_dbe(n)
    assert report.complete and report.bound_holds
    assert (report.whole, report.near_pencils, report.planes) == (1, n, 0)
    assert report.nodes <= ceiling


@pytest.mark.parametrize("runs", [1, 2])
def test_pooled_node_budget(runs):
    """The K7 census takes 171 nodes: complete at that budget, not at
    one node fewer. The budget is per call, so repeating the census in the
    same process gives the same answer."""
    for _ in range(runs):
        assert verify_dbe(7, node_limit=171).complete
        assert not verify_dbe(7, node_limit=170).complete


def test_incomplete_census_claims_no_bound(monkeypatch):
    """A census stopped by its node limit has not seen every partition, so
    it says nothing about the bound unless it already found a partition
    that breaks it."""
    short = verify_dbe(7, node_limit=170)
    assert not short.complete and short.bound_holds is None
    full = verify_dbe(7, node_limit=171)
    assert full.complete and full.bound_holds is True

    # a stubbed kernel that stops after one partition into two cliques
    monkeypatch.setattr(oracle, "enumerate_edge_partitions",
                        lambda *args, **limits: ([((0b0111, 0b1001), 1)],
                                                 2, False))
    broken = verify_dbe(4, node_limit=1)
    assert not broken.complete and broken.intermediate == 1
    assert broken.bound_holds is False


def test_census_counts_a_size_n_partition_of_another_shape(monkeypatch):
    """A partition of K4 into four cliques that is neither a near-pencil
    nor a plane (a stubbed kernel returns one) breaks the bound."""
    monkeypatch.setattr(oracle, "enumerate_edge_partitions",
                        lambda *args, **limits: (
                            [((0b0011, 0b0101, 0b1001, 0b0110), 1)], 4, True))
    report = verify_dbe(4)
    assert (report.near_pencils, report.planes, report.other_at_n) == (0, 0, 1)
    assert report.complete and report.bound_holds is False


@pytest.mark.parametrize("limits", [
    {"node_limit": -5}, {"time_limit": -1}, {"time_limit": -1e-9},
    {"time_limit": float("nan")},
], ids=["nodes", "seconds", "tiny-seconds", "nan-seconds"])
def test_negative_budgets_are_refused(limits):
    with pytest.raises(ValueError, match="must not be negative"):
        oracle_search(complete_graph(4), "sd",
                      SearchBudget(max_universe=4, **limits))


def test_negative_census_budget_is_refused():
    with pytest.raises(ValueError, match="node_limit must not be negative"):
        verify_dbe(5, node_limit=-3)


def test_zero_budgets_stay_valid():
    """A zero limit is a real limit: the search stops at once."""
    r = oracle_search(complete_graph(4), "sd",
                      SearchBudget(max_universe=4, node_limit=0))
    assert r.stop_reason == "node_limit" and r.nodes == 1
    report = verify_dbe(5, node_limit=0)
    assert not report.complete and report.bound_holds is None


def test_infinite_time_limit_stays_valid():
    """An infinite time limit never stops the search."""
    r = oracle_search(complete_graph(4), "sd",
                      SearchBudget(max_universe=4, time_limit=float("inf")))
    assert r.exhausted and r.stop_reason is None and r.theta == 4


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


def filtered_placements(member, t, category):
    """Every placement of ``t`` pads that makes a solution, found by
    filtering ``combinations_with_replacement``: the reference for the
    generated placements."""
    n = len(member)
    want_a = "a" in category
    for placement in itertools.combinations_with_replacement(range(n), t):
        pad = [placement.count(v) for v in range(n)]
        sizes = {member[v].bit_count() + pad[v] for v in range(n)}
        bare = [v for v in range(n) if not pad[v]]
        if any(not member[v] for v in bare) \
                or "u" in category and len(sizes) > 1 \
                or "d" in category and not want_a \
                and len({member[v] for v in bare}) < len(bare) \
                or want_a and any(u != v and member[v] & member[u] == member[v]
                                  for v in bare for u in range(n)):
            continue
        yield placement


def test_placements_match_the_filter():
    """On seeded random member masks of one to six vertices (the oracle
    refuses a graph with none), with twins forced in half of them, no
    placement of fewer pads than the least count makes a solution, and at
    the least count the generator yields exactly the filtered placements,
    in order.  More pads make a solution too: outside u at every larger
    count, and under u at every count larger by a multiple of n, which
    is why a search pads each partition at its least count only.  The
    masks need not come from an edge partition, so the padding facts are
    the reference's, which hold for any masks; counts past 9 are not
    filtered."""
    rng = random.Random(2013)
    matched = 0
    for _ in range(100):
        n = rng.randint(1, 6)
        bits = rng.randint(0, 4)
        member = [rng.getrandbits(bits) for _ in range(n)]
        if rng.random() < 0.5:
            member[rng.randrange(n)] = member[rng.randrange(n)]
        for category in ("s", "sd", "sa", "su", "sdu"):
            facts = generic_pad_facts(member, category)
            least = facts[0]
            for t in range(10):
                placements = filtered_placements(member, t, category)
                if t == least:
                    placements = list(placements)
                    assert list(oracle._placements(
                        member, facts, category)) == placements, \
                        (member, category)
                    matched += 1
                found = next(iter(placements), None) is not None
                assert found == (t >= least and (
                    "u" not in category or (t - least) % n == 0)), \
                    (member, t, category)
    assert matched > 400


def test_padding_node_ceiling():
    """Padding generates only the placements that succeed: F4 sdu has no
    solution within 15 elements, so the padding spends no node and the
    search is exhausted in its 45 kernel nodes.  When every placement was
    tried and filtered, the run took 439,830 nodes (with an earlier
    kernel that took 522 of them)."""
    r = run(friendship(4), "sdu", 15)
    assert r.exhausted and r.theta is None
    assert r.nodes <= 1_000


def matching(k):
    """k disjoint edges.  Under sd every edge's clique is shared by its two
    ends, so one of them holds a pad: theta = 2k, with 2**k placements on
    the one partition, all of them at theta's level."""
    return Graph(tuple(range(2 * k)), tuple((2 * i, 2 * i + 1)
                                            for i in range(k)))


def key_labelled(monkeypatch):
    """Key every labelled solution as its own class: budget tests then
    measure the padding, not the keying of thousands of solutions."""
    keyer = types.SimpleNamespace(key=lambda groups: groups)
    monkeypatch.setattr(oracle, "_symmetry_keyer",
                        lambda graph, base: keyer)


@pytest.mark.parametrize("limit", [1_000, 10_000])
def test_node_budget_bounds_padding(limit, monkeypatch):
    """Fourteen disjoint edges under sd take 14 kernel nodes and then
    16,384 placements at theta's level; the node limit stops the
    placements, not just the kernel, at the first node past it."""
    key_labelled(monkeypatch)
    g, level = matching(14), 28
    # no level below theta has a placement, so every node before the
    # placements is one of the resumed kernel's
    kernel = sum(nodes for _q, _pairs, nodes
                 in resumed_levels(g, range(1, level + 1)))
    assert kernel < limit
    r = oracle_search(g, "sd", SearchBudget(max_universe=level,
                                            node_limit=limit))
    assert r.nodes == limit + 1
    assert r.labeled_solutions == limit - kernel
    assert not r.exhausted and r.theta == level
    assert r.searched_to == level - 1
    assert r.stop_reason == "node_limit"


def test_deadline_bounds_padding(monkeypatch):
    """The oracle's clock jumps past the deadline after the padding at
    theta's level (8,192 placements of 13 disjoint edges under sd) first
    looks at it, on its first placement: the padding stops at its next
    check, at most 4,096 nodes later, instead of trying every placement
    of the level."""
    key_labelled(monkeypatch)
    g, level = matching(13), 26
    before = run(g, "sd", level - 1).nodes
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
    r = oracle_search(g, "sd", SearchBudget(max_universe=level, time_limit=60))
    placements = r.nodes - before - kernel_nodes[0]
    assert 0 < placements <= 4096
    assert r.labeled_solutions == placements - 1
    assert not r.exhausted and r.theta == level
    assert r.searched_to == level - 1
    assert r.stop_reason == "time_limit"


def kernel_calls(monkeypatch):
    """Record ``[budget, resumed]`` for each kernel call of the oracle as
    it starts, ``resumed`` when it resumes a frontier instead of searching
    from the root, and append ``complete`` when it returns."""
    calls = []

    def kernel(n, adj, q, frontier=None, **limits):
        calls.append([q, frontier is not None and frontier.entries is not None])
        out = enumerate_edge_partitions(n, adj, q, frontier=frontier, **limits)
        calls[-1].append(out[2])
        return out

    monkeypatch.setattr(oracle, "enumerate_edge_partitions", kernel)
    return calls


def kernel_deadline(monkeypatch, calls, level, checks):
    """A fake clock for the kernel and the oracle that passes the deadline
    at the ``checks``-th deadline check of the kernel's call at ``level``
    (the call ``calls`` from :func:`kernel_calls` started last)."""
    now = [0.0]
    seen = []

    def kernel_clock():
        if calls[-1][0] == level:
            seen.append(1)
            if len(seen) == checks:
                now[0] = 3600.0
        return now[0]

    monkeypatch.setattr(partitions, "time",
                        types.SimpleNamespace(monotonic=kernel_clock))
    monkeypatch.setattr(oracle, "time",
                        types.SimpleNamespace(monotonic=lambda: now[0]))


def test_deadline_stops_the_kernel(monkeypatch):
    """The clock passes the deadline at the first deadline check of K9's
    level-9 call under sd, its 1,024th node: the kernel stops inside that
    call, which resumes the frontier of level 8, and the run settles every
    size below 9 and nothing else."""
    before = run(complete_graph(9), "sd", 8)
    assert before.exhausted and before.theta is None
    calls = kernel_calls(monkeypatch)
    kernel_deadline(monkeypatch, calls, 9, 1)
    r = oracle_search(complete_graph(9), "sd",
                      SearchBudget(max_universe=9, time_limit=60))
    assert r.stop_reason == "time_limit" and not r.exhausted
    assert r.theta is None and r.searched_to == 8
    assert r.nodes == before.nodes + 1024
    assert calls[-1] == [9, True, False]


@pytest.mark.parametrize("graph,base,category,level", [
    (complete_graph(8), None, "sd", 8),
    (line_graph(zoo.friendship3())[0], zoo.friendship3(), "sd", 7),
    (line_graph(zoo.trimmed_fig5())[0], zoo.trimmed_fig5(), "sa", 5),
], ids=["K8-sd", "friendship3-sd", "trimmed_fig5-sa"])
def test_node_limit_inside_a_resumed_level(graph, base, category, level,
                                           monkeypatch):
    """A node limit that runs out inside a level's kernel call, which
    resumes the frontier of the level below, stops the run there: one node
    past the limit, with every size below the level settled."""
    below = oracle_search(graph, category, SearchBudget(max_universe=level - 1),
                          base=base)
    assert below.exhausted and below.theta is None
    calls = kernel_calls(monkeypatch)
    full = oracle_search(graph, category, SearchBudget(max_universe=level),
                         base=base)
    assert full.theta == level and calls[-1] == [level, True, True]
    *_, (_q, _pairs, new) = resumed_levels(graph, range(1, level + 1))
    assert new > 2
    for extra in (0, 1, new // 2, new - 1):
        limit = below.nodes + extra
        oracle._partition_record.cache_clear()  # else the level is replayed
        r = oracle_search(graph, category, SearchBudget(
            max_universe=level, node_limit=limit), base=base)
        assert r.stop_reason == "node_limit" and not r.exhausted
        assert r.nodes == limit + 1
        assert r.theta is None and r.searched_to == level - 1
        assert calls[-1] == [level, True, False]


@pytest.mark.parametrize("level,checks", [(9, 1), (10, 3)])
def test_deadline_inside_a_resumed_level(level, checks, monkeypatch):
    """A deadline that passes at any check of a resumed level (K10 under
    sd: 4,463 new nodes at level 9, 12,988 at level 10) stops the run at
    that check, with every size below the level settled."""
    before = run(complete_graph(10), "sd", level - 1)
    calls = kernel_calls(monkeypatch)
    kernel_deadline(monkeypatch, calls, level, checks)
    r = oracle_search(complete_graph(10), "sd",
                      SearchBudget(max_universe=10, time_limit=60))
    assert r.stop_reason == "time_limit" and not r.exhausted
    assert r.theta is None and r.searched_to == level - 1
    assert r.nodes == before.nodes + 1024 * checks
    assert calls[-1] == [level, True, False]


def double_star(a):
    """Two adjacent hubs with ``a`` leaves each: 2 * (a!)**2 automorphisms."""
    return zoo.from_edges([("x", "y")] + [(hub, f"{hub}{i}")
                                          for hub in "xy" for i in range(a)])


def broom():
    """A hub with ten leaves, one of which carries one more pendant: its
    edges have 9! permutations induced by automorphisms."""
    return zoo.from_edges([("h", f"l{i}") for i in range(10)] + [("l0", "t")])


@pytest.mark.parametrize("base,theta,labeled,seconds", [
    (double_star(6), 12, 36, 3.0),
    (broom(), 10, 9, 2.0),
], ids=["double-star-6+6", "broom"])
def test_large_base_groups_are_keyed_fast(base, theta, labeled, seconds):
    """Bases with 1,036,800 and 362,880 edge symmetries are keyed by the
    orbits of their solutions under the group's generators, never by a
    listing of the group, so each run under sd is exhausted within
    seconds, with one class."""
    lg, _ = line_graph(base)
    start = time.monotonic()
    r = oracle_search(lg, "sd", SearchBudget(max_universe=lg.n,
                                             time_limit=10), base=base)
    assert time.monotonic() - start < seconds
    assert (r.exhausted, r.theta, len(r.classes), r.labeled_solutions) \
        == (True, theta, 1, labeled)


def test_deadline_bounds_keying(monkeypatch):
    """The double star with 4 + 4 leaves has 16 labelled solutions at
    theta = 8.  The first is keyed when the second arrives; the oracle's
    clock passes the deadline during that first key, and the run stops
    before the second key, not at the padding's next check."""
    base = double_star(4)
    lg, _ = line_graph(base)
    late = []
    key = _ClassKeyer.key

    def slow_key(self, groups):
        late.append(3600.0)
        return key(self, groups)

    monkeypatch.setattr(_ClassKeyer, "key", slow_key)
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(
        monotonic=lambda: time.monotonic() + sum(late)))
    r = oracle_search(lg, "sd", SearchBudget(max_universe=lg.n,
                                             time_limit=60), base=base)
    assert r.labeled_solutions == 1 and len(r.classes) == 1
    assert r.stop_reason == "time_limit" and not r.exhausted
    assert r.theta == 8 and r.searched_to == 7


def test_deadline_in_last_key_keeps_full_level(monkeypatch):
    """The oracle's clock passes the deadline during the 16th and last key
    of the double star with 4 + 4 leaves.  Theta's level was searched in
    full, so the run is exhausted and names no limit."""
    base = double_star(4)
    lg, _ = line_graph(base)
    late = []
    key = _ClassKeyer.key

    def slow_key(self, groups):
        out = key(self, groups)
        late.append(3600.0 if len(late) == 15 else 0.0)
        return out

    monkeypatch.setattr(_ClassKeyer, "key", slow_key)
    monkeypatch.setattr(oracle, "time", types.SimpleNamespace(
        monotonic=lambda: time.monotonic() + sum(late)))
    r = oracle_search(lg, "sd", SearchBudget(max_universe=lg.n,
                                             time_limit=60), base=base)
    assert len(late) == 16
    assert r.labeled_solutions == 16 and len(r.classes) == 1
    assert r.exhausted and r.stop_reason is None
    assert r.theta == 8 and r.searched_to == 8


def count_keys(monkeypatch):
    """Record the groups of each key the oracle makes, and the universe
    size of each solution that the padding yields."""
    keys, sizes = [], []
    key, level = _ClassKeyer.key, oracle._solutions_at_level

    def counted_key(self, groups):
        keys.append(groups)
        return key(self, groups)

    def counted_level(category, partitions, p, counter):
        for item in level(category, partitions, p, counter):
            sizes.append(p)
            yield item

    monkeypatch.setattr(_ClassKeyer, "key", counted_key)
    monkeypatch.setattr(oracle, "_solutions_at_level", counted_level)
    return keys, sizes


@pytest.mark.parametrize("base,category,solutions", [
    (path_graph(5), "sd", 1),
    (complete_graph(3), "sa", 1),
    (complete_graph(4), "sd", 2),
    (star_graph(4), "sa", 3),
    (double_star(4), "sd", 16),
], ids=["P5-sd", "K3-sa", "K4-sd", "K1,4-sa", "double-star-4+4-sd"])
@pytest.mark.parametrize("declared", [True, False], ids=["base", "direct"])
def test_a_level_is_keyed_once_it_holds_two_solutions(
        base, category, solutions, declared, monkeypatch):
    """A theta level with one solution is one class and makes no key; a
    level with k >= 2 solutions makes exactly k keys, one per solution."""
    keys, sizes = count_keys(monkeypatch)
    lg, _ = line_graph(base)
    r = run(lg, category, lg.n + lg.m, base=base if declared else None)
    assert r.exhausted and sizes.count(r.theta) == solutions
    assert len(keys) == (0 if solutions == 1 else solutions)


@pytest.mark.parametrize("category", ["d", "sd"])
def test_graph_with_no_vertices_is_refused(category):
    with pytest.raises(ValueError, match="no vertices"):
        oracle_search(Graph((), ()), category, SearchBudget(max_universe=3))


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


# -- direct input: keyed by Aut(H)'s generators, not by a listed Aut(H) -----------

class ListedKeyer:
    """The reference keyer: the least image of the groups, vertex
    bitmasks, under a listed group of vertex permutations."""

    def __init__(self, perms):
        self.perms = perms

    def key(self, groups):
        vertices = [[v for v in range(grp.bit_length()) if grp >> v & 1]
                    for grp in groups]
        return min(tuple(sorted(tuple(sorted(sigma[v] for v in grp))
                                for grp in vertices))
                   for sigma in self.perms)


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
    """Keying direct input by orbits under Aut(H)'s recorded generators
    gives the classes that minimising over an explicitly listed Aut(H)
    gives."""
    cap = g.n + g.m
    got = run(g, cat, cap)
    monkeypatch.setattr(oracle, "_symmetry_keyer",
                        lambda graph, base: ListedKeyer(
                            automorphisms(graph)))
    want = run(g, cat, cap)
    assert got.exhausted and want.exhausted
    assert (got.theta, len(got.classes), got.labeled_solutions,
            got.classes) == (want.theta, len(want.classes),
                             want.labeled_solutions, want.classes)


def assert_no_module_lists_automorphisms():
    """No module of the package has an attribute named ``automorphisms``,
    so no run can list them."""
    names = ["setrep"] + [f"setrep.{m.name}"
                          for m in pkgutil.iter_modules(setrep.__path__)]
    for name in names:
        assert not hasattr(importlib.import_module(name), "automorphisms"), \
            name


def test_direct_input_lists_no_automorphisms():
    """star_graph(9) has 9! automorphisms; direct input never lists them."""
    assert_no_module_lists_automorphisms()
    r = run(star_graph(9), "sd", 9)
    assert r.exhausted and r.theta == 9 and len(r.classes) == 1


def star_plus_isolated(k):
    """K_{1,k} with one more vertex that no edge touches."""
    return Graph(tuple(range(k + 2)), tuple((0, i) for i in range(1, k + 1)))


COMPLETE_LINE_GRAPH_BASES = [complete_graph(3)] + [
    star_plus_isolated(k) for k in (3, 4, 5)]


@pytest.mark.parametrize("base", COMPLETE_LINE_GRAPH_BASES,
                         ids=["triangle", "K1,3+K1", "K1,4+K1", "K1,5+K1"])
@pytest.mark.parametrize("cat", ["sd", "sa", "sdu"])
def test_complete_line_graph_lists_no_automorphisms(base, cat, monkeypatch):
    """A complete line graph's base is a star or a triangle, whose
    symmetries induce every permutation of its edges: such a run keys by
    orbits under generators, lists nothing, and finds the classes,
    representatives and counts that minimising over the listed action of
    Aut(base) finds."""
    lg = line_graph(base)[0]
    monkeypatch.setattr(oracle, "_symmetry_keyer",
                        lambda graph, base: ListedKeyer(
                            automorphisms(base, points=base.edges)))
    want = run(lg, cat, lg.n + 2, base=base)
    monkeypatch.undo()
    assert_no_module_lists_automorphisms()
    got = run(lg, cat, lg.n + 2, base=base)
    assert (got.theta, got.classes, got.labeled_solutions, got.exhausted) \
        == (want.theta, want.classes, want.labeled_solutions, want.exhausted)


def test_star_with_isolated_vertex_is_keyed_fast():
    """K_{1,9} plus an isolated vertex under sd: its 9! edge permutations
    are never listed, so the run is exhausted within 2 s."""
    base = star_plus_isolated(9)
    lg = line_graph(base)[0]
    start = time.monotonic()
    r = oracle_search(lg, "sd", SearchBudget(max_universe=lg.n + 2,
                                             time_limit=10), base=base)
    assert time.monotonic() - start < 2
    assert (r.exhausted, r.theta, len(r.classes), r.labeled_solutions) \
        == (True, 9, 2, 18)


def test_kernel_names_the_strategy():
    assert run(complete_graph(3), "sd", 3).kernel == "partition"
    assert run(complete_graph(3), "d", 3).kernel == "assignment"
    assert partitions.kernel_name() == "pure"


@pytest.mark.parametrize("graph,category,cap,base,error,match", [
    (complete_graph(3), "sx", 3, None, ValueError, "unknown category"),
    (complete_graph(3), "sd", 0, None, ValueError, "at least 1"),
    (complete_graph(3), "sd", 3, path_graph(3), ValueError, "2 base edges"),
    (complete_graph(3), "sd", 3, path_graph(4), ValueError,
     "adjacency mismatch"),
    (path_graph(8), "d", 6, None, SetrepError, "n <= 7"),
    (path_graph(4), "d", 7, None, SetrepError, "universe <= 6"),
], ids=["category", "max_universe", "base-size", "base-adjacency",
        "plain-n", "plain-universe"])
def test_oracle_refuses(graph, category, cap, base, error, match):
    with pytest.raises(error, match=match):
        run(graph, category, cap, base=base)


def test_base_check_compares_adjacency():
    """The declared base is checked against the graph's adjacency, not its
    edge tuples: L(P4) with every edge written the other way round is
    searched as L(P4) itself, while one extra edge or a wrong vertex
    count is refused."""
    base = path_graph(4)
    lg, _ = line_graph(base)
    flipped = Graph(lg.labels, tuple((j, i) for i, j in lg.edges))
    a, b = run(flipped, "sd", 3, base=base), run(lg, "sd", 3, base=base)
    assert a.exhausted and a.theta is not None
    assert (a.theta, repr(a.classes), a.labeled_solutions, a.nodes) \
        == (b.theta, repr(b.classes), b.labeled_solutions, b.nodes)
    with pytest.raises(ValueError, match="adjacency mismatch"):
        run(Graph(lg.labels, lg.edges + ((0, 2),)), "sd", 3, base=base)
    with pytest.raises(ValueError, match="3 base edges vs 4 vertices"):
        run(path_graph(4), "sd", 3, base=base)


def test_census_needs_three_vertices():
    with pytest.raises(ValueError, match="n >= 3"):
        verify_dbe(2)


# -- line-graph input: keyed by Aut(base), its stars in the forms ------------------

@pytest.mark.parametrize("base", [complete_graph(4), zoo.book(2),
                                  zoo.plumed_triangle(1)],
                         ids=["K4", "K4-e", "paw"])
@pytest.mark.parametrize("cat", ["sd", "sdu"])
def test_whitney_exceptions_split_by_base(base, cat):
    """K4, K4 - e and the paw are the connected bases whose line graphs
    have symmetries that no relabelling of the base induces (Whitney,
    1932).  Keyed by the base's symmetries their two optimal classes stay
    apart; keyed by the line graph alone they merge into one."""
    lg, _ = line_graph(base)
    cap = lg.n + lg.m
    with_base, direct = run(lg, cat, cap, base=base), run(lg, cat, cap)
    assert with_base.exhausted and direct.exhausted
    assert with_base.theta == direct.theta
    assert (len(with_base.classes), len(direct.classes)) == (2, 1)


@pytest.fixture(scope="module")
def small_bases():
    """Every connected base with at most seven edges, one per isomorphism
    class."""
    return [g for level in zoo.connected_bases(7) for g in level.values()]


@pytest.mark.parametrize("cat,max_m", [("sd", 7), ("sa", 7), ("sdu", 7),
                                       ("d", 4), ("a", 4), ("u", 4)])
def test_star_keyer_matches_listed_base_automorphisms(cat, max_m,
                                                      small_bases,
                                                      monkeypatch):
    """On every connected base with at most ``max_m`` edges, keying by
    the base's symmetries (their orbits, and the forms with the base's
    stars past the orbit cap) gives the theta, classes, representatives,
    labelled count and nodes that minimising over the listed action of
    Aut(base) on the edges gives."""
    bases = [g for g in small_bases if g.m <= max_m]
    cases = []
    for base in bases:
        lg, _ = line_graph(base)
        cap = lg.n + lg.m if "s" in cat else lg.n + 1
        cases.append((base, lg, cap))
    got = [run(lg, cat, cap, base=base) for base, lg, cap in cases]
    monkeypatch.setattr(oracle, "_symmetry_keyer",
                        lambda graph, base: ListedKeyer(
                            automorphisms(base, points=base.edges)))
    want = [run(lg, cat, cap, base=base) for base, lg, cap in cases]
    assert len(cases) == sum((1, 1, 3, 5, 12, 30, 79)[:max_m])
    for (base, _lg, _cap), a, b in zip(cases, got, want):
        assert a.exhausted and b.exhausted, base.edges
        assert (a.theta, repr(a.classes), a.labeled_solutions, a.nodes) \
            == (b.theta, repr(b.classes), b.labeled_solutions, b.nodes), \
            base.edges


@pytest.mark.parametrize("triangle_copies", [pytest.param(1, id="sd-1"),
                                             pytest.param(2, id="d-2")])
def test_repeated_stars_are_told_from_groups(triangle_copies, monkeypatch):
    """On K4, X holds the four triangles and a pad on each edge at vertex
    0; Y holds the triangles and a pad on each edge opposite 0.  No
    relabelling of K4 carries X onto Y, but the antipodal map of L(K4)
    swaps the stars with the triangles and carries X plus one copy of
    each star onto Y plus one copy of each star.  The keyer's orbits keep
    X and Y apart, as the listed action of Aut(K4) says, while a
    relabelling of X keys as X.  So do its forms, with the orbit cap at
    0: they put the stars in often enough that no group recurs as often.
    In d, where the triangles may recur, they recur twice here."""
    k4 = complete_graph(4)
    lg, at = line_graph(k4)
    opposite = [frozenset(range(6)) - star for star in at]
    x = tuple(opposite) * triangle_copies + tuple(
        frozenset((i,)) for i in sorted(at[0]))
    y = tuple(opposite) * triangle_copies + tuple(
        frozenset((i,)) for i in sorted(opposite[0]))
    swap = automorphisms(k4, points=k4.edges)[-1]
    moved = tuple(frozenset(swap[i] for i in grp) for grp in x)
    x, y, moved = map(zoo.group_masks, (x, y, moved))
    listed = ListedKeyer(automorphisms(k4, points=k4.edges))
    assert listed.key(x) != listed.key(y)
    for cap in (oracle._ORBIT_CAP, 0):
        monkeypatch.setattr(oracle, "_ORBIT_CAP", cap)
        keyer = oracle._symmetry_keyer(lg, k4)
        assert keyer.key(x) != keyer.key(y)
        assert keyer.key(moved) == keyer.key(x) and moved != x
        assert len(keyer.open) == (0 if cap else 2)


# -- orbits: a class is the orbit of its first solution, closed up to a cap ----

def test_plane_orbit_stops_at_the_cap():
    """PG(2, 3)'s lines on K13 have 13!/5,616 = 1,108,800 labelled images.
    Keying them records no more than the cap and leaves the class open,
    so a relabelled plane, recorded or not, keys into it by canonical
    form, and a near-pencil on the same points keys apart."""
    k13 = complete_graph(13)
    lines = projective_plane(3).lines
    plane = zoo.group_masks(lines)
    keyer = oracle._symmetry_keyer(k13, None)
    start = time.monotonic()
    assert keyer.key(plane) == 0
    assert time.monotonic() - start < 2
    assert len(keyer.seen) == oracle._ORBIT_CAP and list(keyer.open.values()) \
        == [0]
    rng = random.Random(13)
    for _ in range(3):
        sigma = rng.sample(range(13), 13)
        moved = zoo.group_masks([sigma[v] for v in line] for line in lines)
        assert keyer.key(moved) == 0
    pencil = zoo.group_masks(near_pencil(13).lines)
    assert keyer.key(pencil) == 1
    assert len(keyer.seen) <= 2 * oracle._ORBIT_CAP


def test_each_graph_is_walked_once(monkeypatch):
    """The closed forms and the oracle read a base's generators from one
    memo, so the winged star with two branches is walked once by both
    closed forms and the oracle run that keys its three classes.  A run
    that keys nothing walks nothing, and neither do closed forms with a
    single choice site, whose group on the sites is trivial: a wing
    triangle whose stalk hangs from a vertex with three pendant edges has
    one site in ``sd`` (the stalk) and one in ``sa`` (that vertex)."""
    walks = []
    walk = representations._automorphism_generators

    def counted(rep):
        walks.append(rep)
        return walk(rep)

    monkeypatch.setattr(representations, "_automorphism_generators", counted)
    base = zoo.from_edges([e for i in range(2) for e in (
        ("hub", f"s{i}"), (f"s{i}", f"x{i}"), (f"s{i}", f"y{i}"),
        (f"x{i}", f"y{i}"))])
    lg, _ = line_graph(base)
    sd, sa = (theta_tau_linegraph(base, cat) for cat in ("sd", "sa"))
    r = run(lg, "sd", sd.theta.exact, base=base)
    assert (r.theta, len(r.classes), sd.tau.exact) == (7, 3, 3)
    assert len(walks) == 1
    assert run(path_graph(5), "sd", 4).labeled_solutions == 1
    assert len(walks) == 1
    single = zoo.from_edges([("s", "x"), ("s", "y"), ("x", "y"), ("s", "a"),
                             ("a", "t"), ("a", "p"), ("a", "q")])
    sd, sa = (theta_tau_linegraph(single, cat) for cat in ("sd", "sa"))
    assert [r.provenance for r in (sd, sa)] \
        == ["linegraph-sd-generic", "linegraph-sa-generic"]
    assert (sd.tau.exact, sa.tau.exact) == (2, 3)
    assert len(walks) == 1


# -- memory: the search leaves nothing for the cyclic collector ---------------

def test_public_calls_leave_no_reference_cycles():
    """A nested function that calls itself is a reference cycle, which
    keeps the call's data alive until the cyclic collector runs.  With the
    collector off, each call leaves no unreachable object behind: the
    kernel resumed across levels, the padding, the assignment search, both
    limits' stops, the census, the canonical walk and the listing of the
    site permutations.  Replacing the entry that ``line_graph`` and
    ``classify`` keep for their last base, or the partition record the
    oracle keeps for its last graph, leaves none either."""
    paw = zoo.plumed_triangle(1)
    wings = zoo.from_edges([e for i in range(2) for e in (
        ("hub", f"s{i}"), (f"s{i}", f"x{i}"), (f"s{i}", f"y{i}"),
        (f"x{i}", f"y{i}"))])
    np7 = near_pencil(7)
    pencil = SetRepresentation(tuple(range(np7.points)),
                               tuple(frozenset(line) for line in np7.lines))
    g, level = matching(5), 10
    kernel = sum(nodes for _q, _pairs, nodes
                 in resumed_levels(g, range(1, level + 1)))

    def in_kernel():
        r = oracle_search(complete_graph(7), "sd",
                          SearchBudget(max_universe=7, node_limit=50))
        assert r.stop_reason == "node_limit" and not r.labeled_solutions

    def in_padding():
        r = oracle_search(g, "sd", SearchBudget(max_universe=level,
                                                node_limit=kernel + 3))
        assert r.stop_reason == "node_limit" and r.labeled_solutions == 3

    def evict_memos():
        for base in (zoo.spider(), zoo.asym_wing()):
            classify(base)
            theta_tau_linegraph(base, "sd")

    def replace_record():
        for graph in (complete_graph(6), friendship(3)):
            for category in ("sd", "sa"):
                run(graph, category, graph.n)

    calls = {
        "K5 sd": lambda: run(complete_graph(5), "sd", 5),
        "L(paw) sa": lambda: run(line_graph(paw)[0], "sa", 5, base=paw),
        "P4 a": lambda: run(path_graph(4), "a", 4),
        "node limit in the kernel": in_kernel,
        "node limit in the padding": in_padding,
        "census K7": lambda: verify_dbe(7),
        "canonical form of near_pencil(7)": lambda: canonical_form(pencil),
        "site permutations": lambda: theta_tau_linegraph(wings, "sd"),
        "witness variants": lambda: witness_sd_variants(wings),
        "memo entries evicted by a second base": evict_memos,
        "oracle record replaced by a second graph": replace_record,
    }
    for name, call in calls.items():
        gc.collect()
        gc.disable()
        try:
            call()
            assert gc.collect() == 0, name
        finally:
            gc.enable()
