"""Exhaustive-search oracle: frozen results, the kernel, budgets."""

import collections
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
from setrep import oracle, partitions
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
    frontier = partitions.Frontier(max(budgets))
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
    sd spends 331 nodes (320 in the kernel; 662 when every level searched
    the kernel from its root)."""
    for g, top in resume_inputs():
        masks = _masks(g)
        spent = 0
        for q, _pairs, nodes in resumed_levels(g, range(1, top + 1)):
            spent += nodes
            assert spent <= enumerate_edge_partitions(g.n, masks, q)[1], \
                (g.edges, q)
    assert run(complete_graph(7), "sd", 7).nodes == 331


def test_levels_pad_the_partitions_of_one_call(monkeypatch):
    """Each level of an oracle run pads the partitions of one kernel call
    at its size, with their weights and in their sorted order: merging the
    resumed levels keeps the padding order, so the class representatives
    are those of a kernel restarted at every level.  On the zoo and 60
    seeded random bases in sd, sa and sdu, and on K3-K7."""
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
        padded.append((p, [(tuple(sum(1 << v for v in grp) for grp in shape[1]),
                            weight) for shape, weight in batch]))
        return pad(category, batch, p, counter)

    monkeypatch.setattr(oracle, "_solutions_at_level", record)
    for g, base, cat in cases:
        del padded[:]
        run(g, cat, g.n + 2, base=base)
        assert padded
        for p, pairs in padded:
            assert pairs == enumerate_edge_partitions(g.n, _masks(g), p)[0], \
                (g.edges, cat, p)


def test_census_node_ceiling():
    """Twin-orbit pruning keeps the K8 census small: 1,452 nodes (24,420
    when every labelled partition was searched)."""
    report = verify_dbe(8)
    assert report.complete and report.bound_holds
    assert report.nodes <= 2_000


@pytest.mark.parametrize("n,ceiling", [(9, 30_000), (10, 60_000)])
def test_census_of_larger_complete_graphs(n, ceiling):
    """The K9 and K10 censuses finish within their node ceilings (7,957 and
    51,063 nodes; 358,260 and 7,033,736 without twin-orbit pruning), with
    the labelled counts the bound predicts: the whole clique, n
    near-pencils and no plane."""
    report = verify_dbe(n)
    assert report.complete and report.bound_holds
    assert (report.whole, report.near_pencils, report.planes) == (1, n, 0)
    assert report.nodes <= ceiling


@pytest.mark.parametrize("runs", [1, 2])
def test_pooled_node_budget(runs):
    """The K7 census takes 321 nodes: complete at that budget, not at
    one node fewer. The budget is per call, so repeating the census in the
    same process gives the same answer."""
    for _ in range(runs):
        assert verify_dbe(7, node_limit=321).complete
        assert not verify_dbe(7, node_limit=320).complete


def test_incomplete_census_claims_no_bound(monkeypatch):
    """A census stopped by its node limit has not seen every partition, so
    it says nothing about the bound unless it already found a partition
    that breaks it."""
    short = verify_dbe(7, node_limit=320)
    assert not short.complete and short.bound_holds is None
    full = verify_dbe(7, node_limit=321)
    assert full.complete and full.bound_holds is True

    # a stubbed kernel that stops after one partition into two cliques
    monkeypatch.setattr(oracle, "enumerate_edge_partitions",
                        lambda *args, **limits: ([((0b0111, 0b1001), 1)],
                                                 2, False))
    broken = verify_dbe(4, node_limit=1)
    assert not broken.complete and broken.intermediate == 1
    assert broken.bound_holds is False


@pytest.mark.parametrize("limits", [
    {"node_limit": -5}, {"time_limit": -1}, {"time_limit": -1e-9},
], ids=["nodes", "seconds", "tiny-seconds"])
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
    refuses a graph with none), with twins forced in half of them, the
    generator yields exactly the filtered placements, in order."""
    rng = random.Random(2013)
    for _ in range(100):
        n = rng.randint(1, 6)
        bits = rng.randint(0, 4)
        member = [rng.getrandbits(bits) for _ in range(n)]
        if rng.random() < 0.5:
            member[rng.randrange(n)] = member[rng.randrange(n)]
        for t in range(8):
            for category in ("s", "sd", "sa", "su", "sdu"):
                assert list(oracle._placements(
                    member, oracle._pad_facts(member, category), t,
                    category)) == \
                    list(filtered_placements(member, t, category)), \
                    (member, t, category)


def test_padding_node_ceiling():
    """Padding generates only the placements that succeed: F4 sdu has no
    solution within 15 elements, so the padding spends no node and the
    search is exhausted in its 522 kernel nodes (439,830 nodes when every
    placement was tried and filtered)."""
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
    measure the padding, not the canonical form of thousands of keys."""
    keyer = types.SimpleNamespace(key=lambda groups: groups)
    monkeypatch.setattr(oracle, "_symmetry_keyer",
                        lambda graph, base, deadline=None: keyer)


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
        r = oracle_search(graph, category, SearchBudget(
            max_universe=level, node_limit=limit), base=base)
        assert r.stop_reason == "node_limit" and not r.exhausted
        assert r.nodes == limit + 1
        assert r.theta is None and r.searched_to == level - 1
        assert calls[-1] == [level, True, False]


@pytest.mark.parametrize("level,checks", [(8, 1), (9, 3)])
def test_deadline_inside_a_resumed_level(level, checks, monkeypatch):
    """A deadline that passes at any check of a resumed level (K9 under sd:
    2,033 new nodes at level 8, 4,687 at level 9) stops the run at that
    check, with every size below the level settled."""
    before = run(complete_graph(9), "sd", level - 1)
    calls = kernel_calls(monkeypatch)
    kernel_deadline(monkeypatch, calls, level, checks)
    r = oracle_search(complete_graph(9), "sd",
                      SearchBudget(max_universe=9, time_limit=60))
    assert r.stop_reason == "time_limit" and not r.exhausted
    assert r.theta is None and r.searched_to == level - 1
    assert r.nodes == before.nodes + 1024 * checks
    assert calls[-1] == [level, True, False]


def double_star(a):
    """Two adjacent hubs with ``a`` leaves each: 2 * (a!)**2 automorphisms."""
    return zoo.from_edges([("x", "y")] + [(hub, f"{hub}{i}")
                                          for hub in "xy" for i in range(a)])


def test_deadline_bounds_symmetry_setup():
    """Listing the 1,036,800 automorphisms of the double star with 6 + 6
    leaves takes seconds; under a 0.1-s limit the run stops during the
    listing, before any level is searched."""
    base = double_star(6)
    lg, _ = line_graph(base)
    start = time.monotonic()
    r = oracle_search(lg, "sd", SearchBudget(max_universe=lg.n,
                                             time_limit=0.1), base=base)
    assert time.monotonic() - start < 1.0
    assert r.stop_reason == "time_limit" and not r.exhausted
    assert r.theta is None and r.searched_to == 0 and r.nodes == 0


def test_deadline_bounds_keying(monkeypatch):
    """The double star with 4 + 4 leaves has 16 labelled solutions at
    theta = 8, each keyed by a minimum over 1,152 listed permutations.
    The oracle's clock passes the deadline during the first key, and the
    run stops before the second, not at the padding's next check."""
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
                        lambda graph, base, deadline=None: _ClassKeyer(
                            graph.n, automorphisms(graph)))
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
