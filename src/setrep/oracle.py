"""Exhaustive search for minimum representations, independent of theory.

The oracle answers two questions for a graph H and a category word:
what is the smallest universe admitting a representation in the
category, and how many inequivalent optimal solutions are there.  It is
used to validate every exact value the dispatch module claims.

For categories containing "s" (simple), solutions biject with edge
clique partitions of H augmented by single-vertex cliques, so the search
enumerates partitions with the bitmask kernel (compiled or pure, see
:mod:`setrep.partitions`) and then distributes the remaining universe
elements as single-vertex padding.  Categories without "s" fall back to
a direct assignment search over all nonempty subsets per vertex, which
is only viable for very small inputs.

Two optimal solutions count as the same class when a permutation of the
universe together with a symmetry of the *input* carries one onto the
other.  The symmetry group is Aut(H) when H is given directly, but the
automorphisms of a base graph G acting on E(G) when H was supplied as
the line graph of G.  The distinction matters: a line graph can have
symmetries its base graph lacks (the octahedron's antipodal map is not
induced by any relabelling of K4), and the structural families of
optimal partitions are told apart by base-graph symmetry only.

A solution's element groups (the vertices whose sets hold a given
element) determine H: u and v are adjacent iff some group holds both.
So a vertex permutation that carries one solution's groups onto
another's is an automorphism of H, and for direct input the classes are
keyed by the canonical form of the groups under all vertex permutations,
without listing Aut(H).  Line-graph input minimises the groups over the
listed permutations that Aut(G) induces on E(G).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .classify import _star_center
from .cliquecover import CliqueCover
from .errors import SetrepError
from .graphs import Graph
from .partitions import enumerate_edge_partitions, kernel_name
from .representations import (SetRepresentation, canonical_form,
                              VALID_CATEGORIES)


@dataclass(frozen=True)
class SearchBudget:
    """Limits for one oracle run.  ``max_universe`` is mandatory; the
    node and wall-clock limits are optional safety valves."""

    max_universe: int
    node_limit: int | None = None
    time_limit: float | None = None


@dataclass(frozen=True)
class OracleResult:
    category: str
    theta: int | None
    classes: tuple[SetRepresentation, ...]
    labeled_solutions: int
    exhausted: bool
    searched_to: int
    nodes: int
    elapsed: float
    kernel: str

    def class_count(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of ``g`` as vertex permutation tuples.

    Straightforward backtracking over an invariant colouring; meant for
    the small graphs this package works with, not for general use.  Do
    not call it on complete graphs (n! results) -- callers special-case
    full symmetry instead.
    """
    n = g.n
    # invariant: (degree, sorted neighbour degrees)
    color = [(g.degree(v), tuple(sorted(g.degree(u) for u in g.adj[v])))
             for v in range(n)]
    adj = [g.adj[v] for v in range(n)]
    image: list[int] = [-1] * n
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def place(v: int) -> None:
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or color[w] != color[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adj[v]) != (image[u] in adj[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
        image[v] = -1

    place(0)
    return out


def _induced_edge_permutations(base: Graph) -> list[tuple[int, ...]]:
    """Aut(base) acting on the edge list (= vertices of the line graph)."""
    idx: dict[tuple[int, int], int] = {}
    for i, (u, v) in enumerate(base.edges):
        idx[(u, v)] = i
        idx[(v, u)] = i
    perms = []
    for sigma in automorphisms(base):
        perms.append(tuple(idx[(sigma[u], sigma[v])]
                           for u, v in base.edges))
    return perms


# ---------------------------------------------------------------------------
# Class keys: a labelled solution is the multiset of its element groups
# (group of element e = vertices whose set contains e).  Solutions are
# equivalent iff some admitted vertex symmetry maps group multisets onto
# each other; universe bijections are absorbed by the multiset view.
# ---------------------------------------------------------------------------

class _ClassKeyer:
    def __init__(self, n: int, perms: list[tuple[int, ...]] | None):
        """``perms = None`` keys by the canonical form of the groups as
        a set system on the vertices, i.e. up to every vertex
        permutation; otherwise the key is the least image under
        ``perms``."""
        self.n = n
        self.perms = perms

    def key(self, groups: tuple[frozenset[int], ...]):
        if self.perms is None:
            shape = SetRepresentation(universe=tuple(range(self.n)),
                                      sets=groups)
            return canonical_form(shape)
        best = None
        for sigma in self.perms:
            mapped = tuple(sorted(tuple(sorted(sigma[v] for v in grp))
                                  for grp in groups))
            if best is None or mapped < best:
                best = mapped
        return best


def _symmetry_keyer(graph: Graph, base: Graph | None) -> _ClassKeyer:
    if base is None:
        # The groups determine H, so any vertex permutation carrying one
        # solution's groups onto another's is already in Aut(H).
        return _ClassKeyer(graph.n, None)
    if base.n > 1 and _star_center(base) is not None:
        # leaves permute freely, so the induced action on the edges is
        # the full symmetric group on the line graph's vertices
        return _ClassKeyer(graph.n, None)
    return _ClassKeyer(graph.n, _induced_edge_permutations(base))


# ---------------------------------------------------------------------------
# Partition-based search (all categories containing "s")
# ---------------------------------------------------------------------------

def _masks(g: Graph) -> list[int]:
    return [sum(1 << u for u in g.adj[v]) for v in range(g.n)]


def _kernel_worker(args):
    n, masks, q, node_limit, deadline, stride, offset = args
    return enumerate_edge_partitions(
        n, masks, q, node_limit=node_limit, deadline=deadline,
        root_stride=stride, root_offset=offset)


def _run_kernel(g: Graph, q: int, node_limit, deadline):
    """One kernel invocation, split over worker processes if
    SETREP_THREADS asks for it.  Output order is normalised by sorting,
    and only slice 0 counts the shared root node, so a search that
    finishes looks the same downstream whichever path ran it.

    Slices are uneven, so each gets the whole node budget; the pooled
    search is complete only if every slice finished and their nodes add
    up to at most the budget, which is when one process would finish."""
    threads = int(os.environ.get("SETREP_THREADS", "0") or "0")
    masks = _masks(g)
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        jobs = [(g.n, masks, q, node_limit, deadline, threads, i)
                for i in range(threads)]
        parts: list[tuple[int, ...]] = []
        nodes = 0
        complete = True
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for sub, n_sub, ok in pool.map(_kernel_worker, jobs):
                parts.extend(sub)
                nodes += n_sub
                complete = complete and ok
        if node_limit is not None and nodes > node_limit:
            complete = False
    else:
        parts, nodes, complete = enumerate_edge_partitions(
            g.n, masks, q, node_limit=node_limit, deadline=deadline)
    parts.sort()
    return parts, nodes, complete


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _solutions_at_level(g: Graph, category: str, partitions, p: int,
                        counter: dict):
    """All labelled category solutions with universe size exactly ``p``,
    built from the given edge partitions plus single-vertex padding.

    Yields (groups, sets) pairs: the element groups (for class keys) and
    the per-vertex sets (for the representative representation).
    """
    n = g.n
    want_d = "d" in category
    want_a = "a" in category
    want_u = "u" in category
    for part in partitions:
        q = len(part)
        t = p - q
        if t < 0:
            continue
        member = [0] * n          # clique-membership bitmask per vertex
        for j, cl in enumerate(part):
            for v in _bits(cl):
                member[v] |= 1 << j
        for placement in combinations_with_replacement(range(n), t):
            counter["nodes"] += 1
            pad = [0] * n
            for v in placement:
                pad[v] += 1
            if any(member[v] == 0 and pad[v] == 0 for v in range(n)):
                continue  # vertex left without a set
            if want_u:
                sizes = {member[v].bit_count() + pad[v] for v in range(n)}
                if len(sizes) > 1:
                    continue
            # vertices with padding hold globally unique elements, so
            # only pad-free vertices can collide or nest
            if want_d or want_a:
                bare = [v for v in range(n) if pad[v] == 0]
                ok = True
                if want_d and not want_a:
                    seen = set()
                    for v in bare:
                        if member[v] in seen:
                            ok = False
                            break
                        seen.add(member[v])
                if ok and want_a:
                    for v in bare:
                        mv = member[v]
                        for u in range(n):
                            if u != v and mv & member[u] == mv:
                                ok = False
                                break
                        if not ok:
                            break
                if not ok:
                    continue
            groups = [frozenset(_bits(cl)) for cl in part]
            sets = [set(_bits(member[v])) for v in range(n)]
            e = q
            for v in placement:
                groups.append(frozenset([v]))
                sets[v].add(e)
                e += 1
            yield (tuple(groups),
                   tuple(frozenset(s) for s in sets))


def _partition_search(g: Graph, category: str, budget: SearchBudget,
                      keyer: _ClassKeyer):
    start = time.monotonic()
    deadline = (start + budget.time_limit
                if budget.time_limit is not None else None)
    nodes_left = budget.node_limit
    total_nodes = 0
    searched_to = 0
    for p in range(1, budget.max_universe + 1):
        parts, knodes, complete = _run_kernel(g, p, nodes_left, deadline)
        total_nodes += knodes
        if nodes_left is not None:
            nodes_left = max(nodes_left - knodes, 0)
        counter = {"nodes": 0}
        classes: dict = {}
        reps: list[SetRepresentation] = []
        labeled = 0
        universe = tuple(range(p))
        for groups, sets in _solutions_at_level(g, category, parts, p,
                                                counter):
            labeled += 1
            key = keyer.key(groups)
            if key not in classes:
                classes[key] = True
                reps.append(SetRepresentation(universe=universe, sets=sets))
        total_nodes += counter["nodes"]
        if nodes_left is not None:
            nodes_left = max(nodes_left - counter["nodes"], 0)
        out_of_budget = (not complete) or (
            nodes_left is not None and nodes_left == 0) or (
            deadline is not None and time.monotonic() > deadline)
        if reps:
            return OracleResult(
                category=category, theta=p, classes=tuple(reps),
                labeled_solutions=labeled,
                exhausted=complete and not out_of_budget,
                searched_to=p if complete else searched_to,
                nodes=total_nodes, elapsed=time.monotonic() - start,
                kernel=kernel_name())
        if out_of_budget:
            return OracleResult(
                category=category, theta=None, classes=(),
                labeled_solutions=0, exhausted=False,
                searched_to=searched_to, nodes=total_nodes,
                elapsed=time.monotonic() - start, kernel=kernel_name())
        searched_to = p
    return OracleResult(
        category=category, theta=None, classes=(), labeled_solutions=0,
        exhausted=True, searched_to=budget.max_universe, nodes=total_nodes,
        elapsed=time.monotonic() - start, kernel=kernel_name())


# ---------------------------------------------------------------------------
# Assignment-based search (plain d / a / u, no simplicity available)
# ---------------------------------------------------------------------------

_ASSIGN_MAX_N = 7
_ASSIGN_MAX_P = 6


def _assignment_search(g: Graph, category: str, budget: SearchBudget,
                       keyer: _ClassKeyer):
    if g.n > _ASSIGN_MAX_N or budget.max_universe > _ASSIGN_MAX_P:
        raise SetrepError(
            f"category {category!r} needs the direct assignment search, "
            f"which is limited to n <= {_ASSIGN_MAX_N} and universe <= "
            f"{_ASSIGN_MAX_P}")
    start = time.monotonic()
    deadline = (start + budget.time_limit
                if budget.time_limit is not None else None)
    want_d = "d" in category
    want_a = "a" in category
    want_u = "u" in category
    n = g.n
    adj = [sum(1 << u for u in g.adj[v]) for v in range(n)]
    state = {"nodes": 0, "aborted": False}

    for p in range(1, budget.max_universe + 1):
        all_sets = list(range(1, 1 << p))
        chosen: list[int] = []
        solutions: list[tuple[int, ...]] = []

        def place(v: int) -> None:
            if state["aborted"]:
                return
            state["nodes"] += 1
            if budget.node_limit is not None \
                    and state["nodes"] > budget.node_limit:
                state["aborted"] = True
                return
            if deadline is not None and state["nodes"] % 4096 == 0 \
                    and time.monotonic() > deadline:
                state["aborted"] = True
                return
            if v == n:
                solutions.append(tuple(chosen))
                return
            for cand in all_sets:
                if want_u and chosen and \
                        cand.bit_count() != chosen[0].bit_count():
                    continue
                ok = True
                for u in range(v):
                    inter = chosen[u] & cand
                    if bool(inter) != bool(adj[v] >> u & 1):
                        ok = False
                        break
                    if want_a and (inter == cand or inter == chosen[u]):
                        ok = False
                        break
                    if want_d and not want_a and chosen[u] == cand:
                        ok = False
                        break
                if ok:
                    chosen.append(cand)
                    place(v + 1)
                    chosen.pop()

        place(0)
        if state["aborted"]:
            return OracleResult(
                category=category, theta=None, classes=(),
                labeled_solutions=0, exhausted=False, searched_to=p - 1,
                nodes=state["nodes"], elapsed=time.monotonic() - start,
                kernel="assignment")
        if solutions:
            classes: dict = {}
            reps = []
            universe = tuple(range(p))
            for sol in solutions:
                groups = tuple(frozenset(v for v in range(n)
                                         if sol[v] >> e & 1)
                               for e in range(p))
                key = keyer.key(groups)
                if key not in classes:
                    classes[key] = True
                    reps.append(SetRepresentation(
                        universe=universe,
                        sets=tuple(frozenset(_bits(sol[v]))
                                   for v in range(n))))
            return OracleResult(
                category=category, theta=p, classes=tuple(reps),
                labeled_solutions=len(solutions), exhausted=True,
                searched_to=p, nodes=state["nodes"],
                elapsed=time.monotonic() - start, kernel="assignment")
    return OracleResult(
        category=category, theta=None, classes=(), labeled_solutions=0,
        exhausted=True, searched_to=budget.max_universe,
        nodes=state["nodes"], elapsed=time.monotonic() - start,
        kernel="assignment")


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def oracle_search(graph: Graph, category: str, budget: SearchBudget,
                  base: Graph | None = None) -> OracleResult:
    """Search for minimum representations of ``graph`` in ``category``.

    ``base`` declares that ``graph`` is the line graph of ``base`` with
    vertex i = edge i; optimal solutions are then counted up to
    relabellings of the base graph rather than of ``graph`` itself.
    """
    if category not in VALID_CATEGORIES:
        raise ValueError(
            f"unknown category {category!r}; pick one of "
            f"{', '.join(VALID_CATEGORIES)}")
    if budget.max_universe < 1:
        raise ValueError("max_universe must be at least 1")
    if base is not None:
        if base.m != graph.n:
            raise ValueError(
                "graph is not the line graph of the declared base "
                f"({base.m} base edges vs {graph.n} vertices)")
        from .graphs import line_graph

        expect, _ = line_graph(base)
        if set(expect.edges) != set(graph.edges):
            raise ValueError(
                "graph is not the line graph of the declared base "
                "(adjacency mismatch)")
    keyer = _symmetry_keyer(graph, base)
    if "s" in category:
        return _partition_search(graph, category, budget, keyer)
    return _assignment_search(graph, category, budget, keyer)


def enumerate_partitions(graph: Graph, cliques: int,
                         at_most: bool = False) -> list[CliqueCover]:
    """Edge clique partitions with exactly ``cliques`` nontrivial cliques
    (or at most that many, with ``at_most=True``), as covers."""
    if cliques < 0:
        raise ValueError("clique count cannot be negative")
    parts, _, complete = _run_kernel(graph, cliques, None, None)
    assert complete
    out = []
    for part in parts:
        if not at_most and len(part) != cliques:
            continue
        out.append(CliqueCover(
            graph=graph,
            cliques=tuple(frozenset(_bits(cl)) for cl in part)))
    return out


@dataclass(frozen=True)
class DbeReport:
    """Census of edge clique partitions of a complete graph into at most
    n cliques, sorted into the shapes the covering bound allows."""

    n: int
    whole: int            # the one-clique partition
    intermediate: int     # partitions with 1 < q < n (bound says: none)
    near_pencils: int
    planes: int
    other_at_n: int
    bound_holds: bool
    complete: bool
    nodes: int


def verify_dbe(n: int, node_limit: int | None = None) -> DbeReport:
    """Check the covering-bound census on K_n by brute force: every
    partition of the edges into fewer than n proper cliques is the
    single whole clique, and the partitions into exactly n cliques are
    near-pencils and projective planes, nothing else."""
    from .geometry import LinearSpace, is_projective_plane
    from .graphs import complete_graph

    if n < 3:
        raise ValueError("the census needs n >= 3")
    g = complete_graph(n)
    parts, nodes, complete = _run_kernel(g, n, node_limit, None)
    whole = intermediate = near = planes = other = 0
    for part in parts:
        q = len(part)
        sizes = sorted(cl.bit_count() for cl in part)
        if q == 1:
            whole += 1
        elif q < n:
            intermediate += 1
        else:
            if sizes == [2] * (n - 1) + [n - 1]:
                near += 1
            else:
                ls = LinearSpace(
                    points=n,
                    lines=tuple(tuple(_bits(cl)) for cl in part))
                if is_projective_plane(ls):
                    planes += 1
                else:
                    other += 1
    return DbeReport(n=n, whole=whole, intermediate=intermediate,
                     near_pencils=near, planes=planes, other_at_n=other,
                     bound_holds=(intermediate == 0 and other == 0),
                     complete=complete, nodes=nodes)
