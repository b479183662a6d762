"""Exhaustive search for minimum representations, independent of theory.

The oracle answers two questions for a graph H and a category word:
what is the smallest universe admitting a representation in the
category, and how many inequivalent optimal solutions are there.  It is
used to validate every exact value the dispatch module claims.

For categories containing "s" (simple), solutions biject with edge
clique partitions of H augmented by single-vertex cliques, so the search
enumerates partitions with the bitmask kernel of
:mod:`setrep.partitions` and then distributes the remaining universe
elements as single-vertex padding.  A pad is an element of one vertex
alone and padding only grows sets, so each partition's clique
memberships decide which placements of t pads succeed, and only those
are generated:

- ``u``: n * size = t + the total membership, so every vertex's pad count
  is fixed; there is one placement or none, and d is checked on its
  unpadded vertices;
- ``a``: a vertex must be padded iff its member set is empty or contained
  in another vertex's; every placement that pads each such vertex once
  or more succeeds;
- ``d`` without ``a``: every vertex with an empty member set is padded,
  and of each group of equal member sets at most one vertex stays bare.

These facts, and the least number of pads they ask for, are computed once
per partition and run; a level that leaves a partition fewer pads skips
it.

Categories without "s" fall back to a direct assignment search over all
nonempty subsets per vertex, which is only viable for very small inputs.

Both strategies run in one loop over universe sizes p: a level generator
yields the labelled solutions of size p and the loop keys them.  The
partition levels share one kernel frontier: level p resumes the nodes that
the budget of p - 1 cliques pruned, merges the partitions new at p into
the sorted list of those found before, and pads them all.  The
kernel, the padding and the assignment search spend one node budget,
stop at the first node past ``node_limit`` and check the deadline at
least every 4,096 nodes.  A key can be slow (a minimum over a listed
Aut(G)), so a run with a ``time_limit`` also checks it before each key
but the first and at the end of each level that found none: it returns
within one key of the deadline.  The symmetry setup that lists Aut(G) for
line-graph input checks it every 1,024 placements.  A level cut short
after it found solutions still settles theta = p (every smaller size was
searched in full), with ``exhausted=False``, the classes found so far, and
the limit that stopped it in ``stop_reason``.

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

The kernel returns one partition per orbit under swaps of true twins
(vertices with equal closed neighbourhoods), each with its weight: the
number of labelled partitions it stands for.  A twin swap is a symmetry
of the input in both settings.  For direct input it is in Aut(H).  For
line-graph input, if edges xy and xz of G are true twins in L(G), then
N(y) lies in {x, z} and N(z) in {x, y}, so swapping y and z is an
automorphism of G, and it induces exactly that swap.  A symmetry of the
input carries the solutions of one partition onto those of its image,
placement for placement, so each solution padded from a returned
partition adds its weight to ``labeled_solutions``, and every class meets
the solutions of some returned partition: the classes and their
representatives come from the returned partitions alone.  False twins
(equal open neighbourhoods) are not used: L(K4) has three pairs of them,
the disjoint edges of K4, and no relabelling of K4 swaps just one pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .classify import _star_center
from .errors import SetrepError, TimeLimitReached
from .graphs import Graph, automorphisms, line_graph
from .partitions import Frontier, enumerate_edge_partitions, kernel_name
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
    # "node_limit" or "time_limit" when that limit stopped the search,
    # "max_universe" when every size up to the cap was searched in full
    # without a solution, None when theta's level was searched in full
    stop_reason: str | None = None

    def class_count(self) -> int:
        return len(self.classes)


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
        return min(tuple(sorted(tuple(sorted(sigma[v] for v in grp))
                                for grp in groups))
                   for sigma in self.perms)


def _symmetry_keyer(graph: Graph, base: Graph | None,
                    deadline: float | None) -> _ClassKeyer:
    """The run's keyer.  Listing Aut(base) past ``deadline`` raises
    :class:`TimeLimitReached`."""
    if base is None:
        # The groups determine H, so any vertex permutation carrying one
        # solution's groups onto another's is already in Aut(H).
        return _ClassKeyer(graph.n, None)
    if base.n > 1 and _star_center(base) is not None:
        # leaves permute freely, so the induced action on the edges is
        # the full symmetric group on the line graph's vertices
        return _ClassKeyer(graph.n, None)
    return _ClassKeyer(graph.n, automorphisms(base, points=base.edges,
                                              deadline=deadline))


# ---------------------------------------------------------------------------
# The run's budget: a dict of the nodes spent ("nodes"), the node limit
# ("limit"), the deadline ("deadline"), the largest universe size ("top")
# and the limit that stopped ("stop")
# ---------------------------------------------------------------------------

def _check_limits(node_limit, time_limit=None) -> None:
    """Refuse a negative node or time limit; 0 is a valid limit."""
    for name, limit in (("node_limit", node_limit),
                        ("time_limit", time_limit)):
        if limit is not None and limit < 0:
            raise ValueError(f"{name} must not be negative")


def _checkpoint(counter: dict, nodes: int) -> int:
    """Store ``nodes`` and record the limit it spends, if any.  Returns the
    node count of the next check: the next multiple of 4,096, or the
    first node past the limit if that comes sooner."""
    counter["nodes"] = nodes
    limit, deadline = counter["limit"], counter["deadline"]
    if limit is not None and nodes > limit:
        counter["stop"] = "node_limit"
    elif deadline is not None and time.monotonic() > deadline:
        counter["stop"] = "time_limit"
    at = (nodes // 4096 + 1) * 4096
    return at if limit is None else min(at, limit + 1)


# ---------------------------------------------------------------------------
# Partition-based levels (all categories containing "s")
# ---------------------------------------------------------------------------

def _masks(g: Graph) -> list[int]:
    return [sum(1 << u for u in g.adj[v]) for v in range(g.n)]


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _pad_facts(member: list[int], category: str):
    """What padding the vertices with clique memberships ``member`` needs
    in ``category``: ``(must, twin, need)``.

    A pad is an element of its vertex alone, so only the bare (unpadded)
    vertices can be empty, collide or nest.  ``must[v]``: v holds a pad,
    because its member set is empty or, under a, contained in another
    vertex's.  ``twin[v]``: under d without a, v's nonempty member set
    recurs at a later vertex; of the vertices with one member set at most
    one stays bare, so each with a later twin counts one pad.
    ``need[v]``: the least number of pads the vertices from v on take;
    ``need[0]`` is the partition's least pad count in every category."""
    n = len(member)
    want_a = "a" in category
    want_d = "d" in category and not want_a
    must = [not m or want_a and any(u != v and m & member[u] == m
                                     for u in range(n))
            for v, m in enumerate(member)]
    twin = [want_d and m != 0 and m in member[v + 1:]
            for v, m in enumerate(member)]
    need = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        need[v] = need[v + 1] + (must[v] or twin[v])
    return must, twin, need


def _placements(member: list[int], facts, t: int, category: str):
    """The placements of ``t`` single-vertex pads onto the vertices with
    clique memberships ``member`` and padding facts ``facts`` (from
    :func:`_pad_facts`) that give a solution in ``category``, as sorted
    vertex tuples in the order that
    ``combinations_with_replacement(range(n), t)`` lists them.

    Pad counts are chosen vertex by vertex, each from the most it can take
    down to the least it needs, which is that order.  Surplus pads can
    always go to a later vertex, so a branch that keeps ``need`` covered
    ends in a solution: outside u there is a placement iff
    ``t >= need[0]``."""
    n = len(member)
    must, twin, need = facts
    if "u" in category:
        # n * size = t + sum |member|: every pad count is fixed
        size, rest = divmod(t + sum(m.bit_count() for m in member), n)
        pads = [size - m.bit_count() for m in member]
        bare = [m for m, c in zip(member, pads) if not c]
        if rest or min(pads) < 0 \
                or any(f and not c for f, c in zip(must, pads)) \
                or "d" in category and len(set(bare)) < len(bare):
            return
        yield tuple(v for v in range(n) for _ in range(pads[v]))
        return
    bare_sets: set[int] = set()  # member sets left bare with twins ahead
    chosen: list[int] = []

    def place(v: int, left: int, owed: int):
        # owed: the sets in bare_sets whose last twin is still ahead; that
        # twin needs a pad, which need[] does not count
        m = member[v]
        held = m in bare_sets
        if v == n - 1:
            if left:
                chosen.extend([v] * left)
                yield tuple(chosen)
                del chosen[-left:]
            elif not (must[v] or held):
                yield tuple(chosen)
            return
        owed_padded = owed - (held and not twin[v])
        for c in range(left - need[v + 1] - owed_padded, 0, -1):
            chosen.extend([v] * c)
            yield from place(v + 1, left - c, owed_padded)
            del chosen[-c:]
        if not (must[v] or held) and left >= need[v + 1] + owed + twin[v]:
            if twin[v]:
                bare_sets.add(m)
            yield from place(v + 1, left, owed + twin[v])
            bare_sets.discard(m)

    yield from place(0, t, 0)


def _shape(n: int, part: tuple[int, ...], category: str):
    """The parts of a partition's solutions that no padding changes: the
    clique-membership bitmask of each vertex, the cliques as element
    groups, the unpadded vertex sets and the padding facts."""
    member = [0] * n
    for j, cl in enumerate(part):
        for v in _bits(cl):
            member[v] |= 1 << j
    return (member, tuple(frozenset(_bits(cl)) for cl in part),
            [frozenset(_bits(m)) for m in member],
            _pad_facts(member, category))


def _solutions_at_level(category: str, partitions, p: int, counter: dict):
    """All labelled category solutions with universe size exactly ``p``,
    built from the given ``(shape, weight)`` pairs of edge partitions plus
    single-vertex padding.

    Yields (groups, sets, weight) triples: the element groups (for class
    keys), the per-vertex sets (for the representative representation)
    and the partition's weight, the number of labelled solutions the
    solution stands for.  Each placement generated spends one node of the
    run's budget in ``counter``; a spent budget ends the level.
    """
    # a local count keeps the dict off the hot path; it is stored at each
    # check, each yield and at exit
    nodes = counter["nodes"]
    check_at = nodes + 1
    for (member, cliques, bare, facts), weight in partitions:
        q = len(cliques)
        t = p - q
        if t < facts[2][0]:  # need[0]: the least pad count
            continue
        for placement in _placements(member, facts, t, category):
            nodes += 1
            if nodes >= check_at:
                check_at = _checkpoint(counter, nodes)
                if counter["stop"]:
                    return
            sets = bare.copy()
            for e, v in enumerate(placement, q):
                sets[v] = sets[v] | {e}
            counter["nodes"] = nodes
            yield (cliques + tuple(frozenset((v,)) for v in placement),
                   tuple(sets), weight)
    counter["nodes"] = nodes


def _partition_levels(g: Graph, category: str, counter: dict):
    """The levels of one partition run: ``level(p)`` pads the kernel's
    partitions into at most ``p`` cliques to universe size ``p``.  The
    kernel gets the nodes the budget has left and resumes the run's
    frontier, so it returns only the partitions new at ``p``; they are
    merged into the sorted list of the levels before, and each one's shape
    is built once."""
    masks = _masks(g)
    frontier = Frontier(counter["top"])
    found: list[tuple] = []  # (partition, weight, shape), sorted

    def level(p: int):
        limit = counter["limit"]
        pairs, nodes, complete = enumerate_edge_partitions(
            g.n, masks, p,
            node_limit=None if limit is None else limit - counter["nodes"],
            deadline=counter["deadline"], frontier=frontier)
        if not complete:
            # the kernel stopped at a limit; the checkpoint names it
            _checkpoint(counter, counter["nodes"] + nodes)
            return
        counter["nodes"] += nodes
        found.extend((part, weight, _shape(g.n, part, category))
                     for part, weight in pairs)
        found.sort()
        yield from _solutions_at_level(
            category, [(shape, weight) for _part, weight, shape in found], p,
            counter)

    return level


# ---------------------------------------------------------------------------
# Assignment-based levels (plain d / a / u, no simplicity available)
# ---------------------------------------------------------------------------

_ASSIGN_MAX_N = 7
_ASSIGN_MAX_P = 6


def _assignment_level(g: Graph, category: str, p: int, counter: dict,
                      adj: list[int]):
    """All labelled category solutions with universe size exactly ``p``,
    by giving each vertex in turn a nonempty subset of the universe.  Each
    vertex placed spends one node of the run's budget in ``counter``."""
    want_d = "d" in category and "a" not in category
    want_a = "a" in category
    want_u = "u" in category
    n = g.n
    chosen: list[int] = []
    nodes = counter["nodes"]
    check_at = nodes + 1

    def place(v: int):
        nonlocal nodes, check_at
        nodes += 1
        if nodes >= check_at:
            check_at = _checkpoint(counter, nodes)
            if counter["stop"]:
                return
        if v == n:
            counter["nodes"] = nodes
            yield (tuple(frozenset(u for u in range(n) if chosen[u] >> e & 1)
                         for e in range(p)),
                   tuple(frozenset(_bits(c)) for c in chosen), 1)
            return
        for cand in range(1, 1 << p):
            if want_u and chosen and \
                    cand.bit_count() != chosen[0].bit_count():
                continue
            for u in range(v):
                inter = chosen[u] & cand
                if bool(inter) != bool(adj[v] >> u & 1) \
                        or want_a and (inter == cand or inter == chosen[u]) \
                        or want_d and chosen[u] == cand:
                    break
            else:
                chosen.append(cand)
                yield from place(v + 1)
                chosen.pop()
                if counter["stop"]:
                    return

    yield from place(0)
    counter["nodes"] = nodes


def _assignment_levels(g: Graph, category: str, counter: dict):
    """The levels of one assignment run, as ``level(p)``."""
    adj = _masks(g)
    return lambda p: _assignment_level(g, category, p, counter, adj)


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
    _check_limits(budget.node_limit, budget.time_limit)
    if not graph.n:
        raise ValueError("the graph has no vertices")
    if base is not None:
        if base.m != graph.n:
            raise ValueError(
                "graph is not the line graph of the declared base "
                f"({base.m} base edges vs {graph.n} vertices)")
        expect, _ = line_graph(base)
        if set(expect.edges) != set(graph.edges):
            raise ValueError(
                "graph is not the line graph of the declared base "
                "(adjacency mismatch)")
    if "s" in category:
        levels, kernel = _partition_levels, kernel_name()
    elif graph.n > _ASSIGN_MAX_N or budget.max_universe > _ASSIGN_MAX_P:
        raise SetrepError(
            f"category {category!r} needs the direct assignment search, "
            f"which is limited to n <= {_ASSIGN_MAX_N} and universe <= "
            f"{_ASSIGN_MAX_P}")
    else:
        levels, kernel = _assignment_levels, "assignment"
    start = time.monotonic()
    counter = {"nodes": 0, "limit": budget.node_limit, "stop": None,
               "deadline": (None if budget.time_limit is None
                            else start + budget.time_limit),
               "top": budget.max_universe}
    try:
        keyer = _symmetry_keyer(graph, base, counter["deadline"])
    except TimeLimitReached:
        counter["stop"] = "time_limit"
    level = levels(graph, category, counter)
    classes: dict = {}
    labeled = 0
    searched_to = 0
    for p in range(1, budget.max_universe + 1):
        if counter["stop"]:  # symmetry setup ran out of time
            break
        universe = tuple(range(p))
        for groups, sets, weight in level(p):
            if labeled and counter["deadline"] is not None:
                _checkpoint(counter, counter["nodes"])
                if counter["stop"]:
                    break
            labeled += weight
            key = keyer.key(groups)
            if key not in classes:
                classes[key] = SetRepresentation(universe=universe, sets=sets)
        if counter["stop"] is None:
            searched_to = p
            if not classes:  # the search goes on to the next size
                _checkpoint(counter, counter["nodes"])
        if classes or counter["stop"]:
            break
    else:
        counter["stop"] = "max_universe"
    return OracleResult(
        category=category, theta=p if classes else None,
        classes=tuple(classes.values()), labeled_solutions=labeled,
        exhausted=counter["stop"] in (None, "max_universe"),
        searched_to=searched_to, nodes=counter["nodes"],
        elapsed=time.monotonic() - start, kernel=kernel,
        stop_reason=counter["stop"])


@dataclass(frozen=True)
class DbeReport:
    """Census of edge clique partitions of a complete graph into at most
    n cliques, sorted into the shapes the covering bound allows.  The
    counts are labelled: each partition the kernel returns adds its weight,
    the number of labelled partitions it stands for."""

    n: int
    whole: int            # the one-clique partition
    intermediate: int     # partitions with 1 < q < n (bound says: none)
    near_pencils: int
    planes: int
    other_at_n: int
    # False when a partition breaks the bound, True when a complete census
    # finds none, None when an incomplete census finds none
    bound_holds: bool | None
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
    _check_limits(node_limit)
    g = complete_graph(n)
    parts, nodes, complete = enumerate_edge_partitions(
        n, _masks(g), n, node_limit=node_limit)
    whole = intermediate = near = planes = other = 0
    for part, weight in parts:
        q = len(part)
        sizes = sorted(cl.bit_count() for cl in part)
        if q == 1:
            whole += weight
        elif q < n:
            intermediate += weight
        else:
            if sizes == [2] * (n - 1) + [n - 1]:
                near += weight
            else:
                ls = LinearSpace(
                    points=n,
                    lines=tuple(tuple(_bits(cl)) for cl in part))
                if is_projective_plane(ls):
                    planes += weight
                else:
                    other += weight
    return DbeReport(n=n, whole=whole, intermediate=intermediate,
                     near_pencils=near, planes=planes, other_at_n=other,
                     bound_holds=(False if intermediate or other
                                  else True if complete else None),
                     complete=complete, nodes=nodes)
