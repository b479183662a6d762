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
alone and padding only grows sets, so only the bare (unpadded) vertices
can be empty, collide or nest, and each partition's clique memberships
decide which placements of t pads succeed:

- ``a``: a vertex must be padded iff its member set is empty or contained
  in another vertex's; every placement that pads each such vertex once
  or more succeeds;
- ``d`` without ``a``: every vertex with an empty member set is padded,
  and of each group of equal member sets at most one vertex stays bare;
- ``u``: every set has one size, so a vertex's pad count is that size
  less its membership count, and d is checked on the bare vertices.

So each partition has a least pad count in each category, and more pads
succeed too: outside ``u`` at every larger count, as a surplus pad can
go to any vertex, and under ``u`` at every larger size, which pads every
vertex.  The search asks for the universe sizes p = 1, 2, ... in turn;
level p holds the partitions of at most p cliques, and the search stops
at the first level that has a solution or is cut short by a limit.  A
partition of q cliques with least count t has a solution at level
q + t, so no level the search asks for holds it with more pads than t.
Each partition is therefore padded at that one level, and only its
least placements are generated.  A run reads each partition once, at the
clique budget that finds it: it computes the least count and the facts
that generate those placements then, and files the partition under its
one level, q + t, which pads it when the search gets there.

Categories without "s" fall back to a direct assignment search over all
nonempty subsets per vertex, which is only viable for very small inputs.

Both strategies run in one loop over universe sizes p: a level generator
yields the solutions of size p and the loop keys them.  A solution has
one encoding from the kernel to its class representative: its *element
groups*, for each element the vertices whose sets hold it, as a tuple
of vertex bitmasks.  A partition level yields the partition's cliques,
the kernel's own masks, and then one bit per pad; the assignment search
yields one mask per element, the masks in non-increasing order, so that
it too yields each multiset of groups once.  The edge clique partitions
do not depend on the category, so the partition levels read one record
per graph, kept for the last graph searched and keyed by its identity
and by the thread that searched it.  It holds one kernel frontier, the
nodes of each clique budget searched so far and, for each budget, the
sorted partitions new at it, each with its membership masks.  Level p
replays budget p if the record holds it: it charges the recorded nodes
and reads the partitions recorded at p.  Otherwise it resumes the
frontier at p, so the kernel visits only the nodes that the budget of
p - 1 cliques pruned, and records the partitions new at p.  Either way
the run files those partitions under their levels and then pads the
partitions filed under p, sorted, in the order that a kernel restarted
at p lists them.  Every result is the one a fresh record would give,
whatever ran on the graph before; a kernel call cut short by a limit
drops the record.  The kernel, the padding and the assignment search
spend one node budget, stop at the first node past ``node_limit`` and
check the deadline at least every 4,096 nodes.  A key
can be slow (the walk for the generators, an orbit, a canonical form), so
a run with a ``time_limit`` also checks it before each key but the first
and at the end of each level that found none: it returns within one key
of the deadline.  A level cut
short after it found solutions still settles theta = p (every smaller
size was searched in full), with ``exhausted=False``, the classes found
so far, and the limit that stopped it in ``stop_reason``.

Two optimal solutions count as the same class when a permutation of the
universe together with a symmetry of the *input* carries one onto the
other.  The symmetry group is Aut(H) when H is given directly, but the
automorphisms of a base graph G acting on E(G) when H was supplied as
the line graph of G.  The distinction matters: a line graph can have
symmetries its base graph lacks (the octahedron's antipodal map is not
induced by any relabelling of K4), and the structural families of
optimal partitions are told apart by base-graph symmetry only.

A permutation of the universe only reorders a solution's groups, so a
*labelled solution* is the sorted tuple of its groups, and a class is a
set of labelled solutions: an orbit of the input's symmetry group.
:class:`_ClassKeyer` finds the classes by closing each new class's orbit
under generators of that group:

- *The generators are input symmetries.*  For direct input they are the
  automorphisms that the canonical walk of :mod:`setrep.representations`
  records on H's edge system (its vertices the elements, each edge a
  2-set): vertex permutations that carry edges onto edges, so
  automorphisms of H.  For line-graph input they are those recorded on
  G's edge system, automorphisms of G, each acting on E(G), the vertices
  of H, by carrying edge uv to the edge between the images of u and v.
  A symmetry carries a solution's groups onto another solution's.
- *They generate the whole group* (McKay 1981).  Let x be the child of
  a node v on the walk's first leaf path that continues the path, and
  let an automorphism fix v's path and map x to y.  The subtree of y
  holds the image of the first leaf, with the first leaf's encoding.  If
  y was walked, the first such leaf met below y recorded an automorphism
  that fixes v's path and maps x to y (a jump skips only images of
  leaves already seen); if y was skipped, recorded automorphisms that fix
  v's path map onto y a walked child, whose subtree holds such a leaf
  too.  Either way a product of recorded
  automorphisms agrees with the given one on v's path and x, so the
  stabiliser of v's path is generated by recorded automorphisms and the
  stabiliser one node down.  At the first leaf the stabiliser is
  trivial, as its colouring is discrete.  So a solution's orbit under
  the generators is its class.
- *The cap bounds the work.*  A new class's orbit is closed breadth
  first: each solution in it is mapped by every generator, and each new
  image is recorded against the class.  Past ``_ORBIT_CAP`` images the
  closing stops and the class is *open*, so a class costs at most
  ``_ORBIT_CAP`` times the generators in images, however large the group
  (K13's 1,108,800 labelled projective planes are one class).

A solution that no class has recorded is new, unless some class is open:
then it is keyed by the canonical form of its groups, with the base's
stars added for line-graph input, and compared with the open classes
only.  A vertex permutation that carries one solution's groups onto
another's is an automorphism of H, since the groups determine H (u and v
are adjacent iff some group holds both), and the stars make it one that
an automorphism of the base induces (see :class:`_ClassKeyer`).  The
generators are read once per run, at its first key, from
:func:`setrep.representations._graph_generators`, which keeps the last
graph's: the closed forms and the oracle walk a base once between them.
A level's first solution is keyed only when a second one arrives: a
level with one solution is one class, and a run that keys none walks
nothing.  A class's representative is read from its groups once, when
the class is first seen, by ``cliquecover._groups_rep``.

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

import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass

from .cliquecover import _groups_rep
from .errors import SetrepError
from .geometry import LinearSpace, is_projective_plane
from .graphs import Graph, complete_graph, line_graph
from .partitions import Frontier, enumerate_edge_partitions
from .representations import (SetRepresentation, _graph_generators,
                              canonical_form, VALID_CATEGORIES)


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
    kernel: str  # the search strategy: "partition" or "assignment"
    # "node_limit" or "time_limit" when that limit stopped the search,
    # "max_universe" when every size up to the cap was searched in full
    # without a solution, None when theta's level was searched in full
    stop_reason: str | None = None

    def class_count(self) -> int:
        return len(self.classes)


# ---------------------------------------------------------------------------
# Class keys: solutions are equivalent iff some symmetry of the input maps
# one's groups onto the other's; sorting the groups absorbs the universe
# bijections.
# ---------------------------------------------------------------------------

_ORBIT_CAP = 512  # the most images of a class's orbit that a keyer records


def _image(mask: int, bit: list[int]) -> int:
    """The vertex bitmask ``mask`` under the permutation whose image of
    vertex v is the bit ``bit[v]``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= bit[low.bit_length() - 1]
        mask ^= low
    return out


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


class _ClassKeyer:
    """Keys the solutions of one run by class: the key of a solution is
    the number of its class, counted from 0 in the order first seen.

    ``key`` takes a solution's groups as the search yields them and sorts
    them into its labelled solution; only ``form`` decodes the bitmasks
    into vertex sets, for :func:`canonical_form`.  ``seen`` maps each
    labelled solution recorded so far to its class.  A solution that
    misses it is new and its orbit is closed under the generators, which
    ``generators()`` gives at the first key: every image is recorded, up
    to ``_ORBIT_CAP`` of them.  A class whose orbit does not close by then
    is open, and ``open`` maps its form to it.  A solution that misses
    ``seen`` while some class is open is keyed by its form and joins the
    open class with that form, if any.

    The form is the pair (M, canonical form): M is the most times a group
    of two or more vertices occurs, and the canonical form is that of the
    groups together with M + 1 copies of each star, as a set system on the
    ``n`` vertices.  Direct input has no stars, so its forms allow every
    vertex permutation.

    *Stars fix Aut(base) exactly.*  Let a permutation of E(G) map stars to
    stars.  An edge between two non-leaf vertices is the intersection of
    their stars.  The pendant edges at v lie in v's star alone and are
    interchangeable.  K2 components lie in no star.  So the permutation is
    induced by an automorphism of G.  This covers Whitney's exceptions
    (K4, K4 - e and the paw, whose line graphs have symmetries no
    relabelling of the base induces) and the complete line graphs with no
    special case.

    *Repetition tells stars from groups.*  A vertex permutation carries
    groups to groups, so M is a class invariant.  In the ``s`` categories
    a group of two or more vertices is a clique of an edge partition, so M
    is at most 1 there.  A set of two or more vertices occurs in the form
    more than M times exactly when it is a star, also when a group
    coincides with one (the star's copies plus the group's).  So a vertex
    permutation carrying one form's sets onto another's, at equal M, maps
    the stars onto themselves and the one solution's groups onto the
    other's."""

    def __init__(self, n: int, stars: tuple, generators):
        self.universe = tuple(range(n))
        self.stars = stars
        self.generators = generators
        self.bits: list[list[int]] | None = None  # per generator: v -> bit
        self.seen: dict[tuple[int, ...], int] = {}
        self.open: dict[tuple, int] = {}
        self.classes = 0

    def key(self, groups: tuple[int, ...]) -> int:
        if self.bits is None:
            self.bits = [[1 << v for v in g] for g in self.generators()]
        solution = tuple(sorted(groups))
        cls = self.seen.get(solution)
        if cls is None:
            form = self.form(groups) if self.open else None
            cls = self.open.get(form)
            if cls is None:
                cls = self.classes
                self.classes += 1
                if not self._close(solution, cls):
                    if form is None:
                        form = self.form(groups)
                    self.open[form] = cls
        return cls

    def form(self, groups: tuple[int, ...]):
        most = max(Counter(grp for grp in groups if grp & grp - 1).values(),
                   default=0)
        sets = tuple(frozenset(_bits(grp)) for grp in groups)
        return most, canonical_form(SetRepresentation(
            universe=self.universe, sets=sets + self.stars * (most + 1)))

    def _close(self, solution: tuple[int, ...], cls: int) -> bool:
        """Record the orbit of ``solution`` as class ``cls``, breadth
        first; False, for an open class, once it passes ``_ORBIT_CAP``
        images."""
        if not _ORBIT_CAP:
            return False
        seen = self.seen
        seen[solution] = cls
        orbit = [solution]
        for sol in orbit:  # grows as the images are found
            for bit in self.bits:
                image = tuple(sorted([_image(mask, bit) for mask in sol]))
                if image not in seen:
                    if len(orbit) == _ORBIT_CAP:
                        return False
                    seen[image] = cls
                    orbit.append(image)
        return True


def _edge_generators(base: Graph) -> list[tuple[int, ...]]:
    """The generators of Aut(base) as maps of its edge indices."""
    index = {frozenset(e): i for i, e in enumerate(base.edges)}
    return [tuple(index[frozenset((g[u], g[v]))] for u, v in base.edges)
            for g in _graph_generators(base)]


def _symmetry_keyer(graph: Graph, base: Graph | None) -> _ClassKeyer:
    """The run's keyer: the base's stars of two or more edges, as
    :func:`line_graph` gives them, and Aut(base) acting on the edges;
    direct input has no stars and Aut(graph).  Refuses a ``graph`` that
    is not the line graph of ``base``."""
    if base is None:
        return _ClassKeyer(graph.n, (),
                           functools.partial(_graph_generators, graph))
    if base.m != graph.n:
        raise ValueError(
            "graph is not the line graph of the declared base "
            f"({base.m} base edges vs {graph.n} vertices)")
    expect, stars = line_graph(base)
    if expect.adj != graph.adj:
        raise ValueError(
            "graph is not the line graph of the declared base "
            "(adjacency mismatch)")
    return _ClassKeyer(graph.n, tuple(s for s in stars if len(s) >= 2),
                       functools.partial(_edge_generators, base))


# ---------------------------------------------------------------------------
# The run's budget: a dict of the nodes spent ("nodes"), the node limit
# ("limit"), the deadline ("deadline") and the limit that stopped ("stop")
# ---------------------------------------------------------------------------

def _check_limits(node_limit, time_limit=None) -> None:
    """Refuse a negative or NaN node or time limit; 0 and infinity are
    valid limits.  A NaN deadline would never pass, so it is no limit."""
    for name, limit in (("node_limit", node_limit),
                        ("time_limit", time_limit)):
        if limit is not None and not limit >= 0:
            raise ValueError(f"{name} must not be negative or NaN")


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
#
# The padding (_place) and the assignment search (_assign) recurse in
# module-level generators that take their state as arguments: a nested
# function that calls itself is a reference cycle, which would keep each
# level's data alive until the cyclic garbage collector runs.
# ---------------------------------------------------------------------------

def _masks(g: Graph) -> list[int]:
    return [sum(1 << u for u in g.adj[v]) for v in range(g.n)]


def _pad_facts(member: list[int], category: str):
    """The least padding of the vertices with clique memberships
    ``member`` in ``category``: ``(least, must, twin)``, or ``(least,
    placement)`` under u, where ``least`` is the fewest pads that give a
    solution.  ``member`` must be the memberships of an edge partition,
    as :func:`_memberships` gives them: the rule for a reads that
    structure.

    ``must[v]``: v holds a pad, because its member set is empty or, under
    a, contained in another vertex's.  ``twin[v]``: under d without a,
    v's nonempty member set recurs at a later vertex; of the vertices with
    one member set exactly one stays bare in a least placement, so each
    with a later twin counts one pad.  Under u the set size is the
    largest membership count, or one more if that count is 0 or, under d,
    two vertices with it have equal member sets; ``placement`` gives each
    vertex the pads that fill its set to that size.

    Each rule takes one pass over the memberships, not one per pair of
    vertices.  Under a, v's member set is contained in another vertex's
    iff some vertex besides v lies in all of v's cliques.  In an edge
    partition two cliques share at most one vertex and each has two or
    more, so that holds iff v lies in one clique, and ``must[v]`` reads
    off v's membership count: v is padded iff it lies in at most one
    clique.  Likewise only vertices in exactly one clique can have equal
    member sets."""
    n = len(member)
    if "u" in category:
        counts = [m.bit_count() for m in member]
        size = max(counts)
        bare = [m for m, c in zip(member, counts) if c == size]
        if not size or "d" in category and len(set(bare)) < len(bare):
            size += 1
        placement = tuple(v for v in range(n)
                          for _ in range(size - counts[v]))
        return len(placement), placement
    want_a = "a" in category
    want_d = "d" in category and not want_a
    # under a, v is padded iff it lies in at most one clique
    must = [not (m & m - 1 if want_a else m) for m in member]
    twin = [False] * n
    later: set[int] = set()  # the nonempty member sets from v + 1 on
    for v in range(n - 1, -1, -1):
        m = member[v]
        if want_d and m:
            twin[v] = m in later
            later.add(m)
    return sum(must) + sum(twin), must, twin


def _placements(member: list[int], facts, category: str):
    """The least placements of pads onto the vertices with clique
    memberships ``member`` and padding facts ``facts`` (from
    :func:`_pad_facts`) that give a solution in ``category``, as sorted
    vertex tuples in the order that
    ``combinations_with_replacement(range(n), facts[0])`` lists them.
    Under u there is one.  Otherwise each ``must`` vertex takes one pad
    and of each group of equal member sets all but one vertex take one;
    at a vertex with a later twin, padding it comes first, which is that
    order."""
    if "u" in category:
        return (facts[1],)
    return _place(member, facts, [], set(), 0)


def _place(member: list[int], facts, chosen: list[int], bare_sets: set[int],
           v: int):
    """The placements of :func:`_placements` that extend ``chosen``, the
    pads of the vertices before ``v``.  ``bare_sets``: the member sets
    left bare with twins ahead, which pad those twins."""
    if v == len(member):
        yield tuple(chosen)
        return
    _least, must, twin = facts
    m = member[v]
    held = m in bare_sets
    if must[v] or held or twin[v]:
        chosen.append(v)
        yield from _place(member, facts, chosen, bare_sets, v + 1)
        chosen.pop()
    if not (must[v] or held):
        if twin[v]:
            bare_sets.add(m)
        yield from _place(member, facts, chosen, bare_sets, v + 1)
        bare_sets.discard(m)


def _memberships(n: int, part: tuple[int, ...]) -> list[int]:
    """The clique-membership bitmask of each vertex: bit j of vertex v's
    is set iff v lies in clique ``part[j]``."""
    member = [0] * n
    for j, cl in enumerate(part):
        for v in _bits(cl):
            member[v] |= 1 << j
    return member


def _solutions_at_level(category: str, partitions, p: int, counter: dict):
    """The labelled category solutions with universe size exactly ``p``
    that the given ``((partition, member, facts), weight)`` pairs of edge
    partitions give with single-vertex padding.  Each partition given
    has ``p`` as its clique count plus its least pad count, so it is
    padded at that count only: the only solutions a search reaches (see
    the module docstring).

    Yields (groups, weight) pairs: the partition's cliques followed by one
    bit per pad, and the partition's weight, the number of labelled
    solutions the solution stands for.  Each placement generated spends
    one node of the run's budget in ``counter``; a spent budget ends the
    level.
    """
    check_at = counter["nodes"] + 1
    for (part, member, facts), weight in partitions:
        for placement in _placements(member, facts, category):
            counter["nodes"] += 1
            if counter["nodes"] >= check_at:
                check_at = _checkpoint(counter, counter["nodes"])
                if counter["stop"]:
                    return
            yield part + tuple(1 << v for v in placement), weight


class _Record:
    """The edge clique partitions of one graph that the oracle runs on it
    have searched so far.  ``spent[q - 1]``: the kernel nodes of budget q,
    for the budgets 1, 2, ... searched in turn.  ``found[q - 1]``: the
    partitions new at budget q, sorted, as ``(partition, weight,
    member)``."""

    __slots__ = ("masks", "frontier", "spent", "found")

    def __init__(self, g: Graph):
        self.masks = _masks(g)
        self.frontier = Frontier()
        self.spent: list[int] = []
        self.found: list[list[tuple]] = []


@functools.lru_cache(maxsize=1)
def _partition_record(g: Graph, thread: int) -> _Record:
    """The record of the last graph searched by partitions.  ``Graph``
    defines no ``__eq__``, so the entry is keyed by the graph's identity,
    like those of :func:`line_graph` and :func:`classify`.  Runs change
    the record, so it is keyed by the thread too: runs in two threads
    never share one."""
    return _Record(g)


def _partition_levels(g: Graph, category: str, counter: dict):
    """The levels of one partition run: ``level(p)`` pads to universe
    size ``p`` the partitions whose clique count plus least pad count is
    ``p``, for p = 1, 2, ... in turn.  A budget that the graph's record
    holds is replayed: its recorded nodes are charged to the run's budget,
    as the kernel call would have spent them.  A new budget resumes the
    record's frontier with the nodes the budget has left, and the
    partitions new there are added to the record.  A kernel call cut
    short by a limit leaves the frontier part-resumed, so it drops the
    record.  The partitions of budget p, replayed or new, get their
    padding facts then, once per run, and ``waiting`` files each under
    the level that pads it, for that level to take in sorted order."""
    rec = _partition_record(g, threading.get_ident())
    waiting: dict[int, list] = {}

    def level(p: int):
        limit = counter["limit"]
        if p <= len(rec.spent):
            nodes = rec.spent[p - 1]
            if limit is not None and counter["nodes"] + nodes > limit:
                _checkpoint(counter, limit + 1)
                return
        else:
            pairs, nodes, complete = enumerate_edge_partitions(
                g.n, rec.masks, p,
                node_limit=None if limit is None else limit - counter["nodes"],
                deadline=counter["deadline"], frontier=rec.frontier)
            if not complete:
                _partition_record.cache_clear()
                # the kernel stopped at a limit; the checkpoint names it
                _checkpoint(counter, counter["nodes"] + nodes)
                return
            rec.spent.append(nodes)
            rec.found.append([(part, weight, _memberships(g.n, part))
                              for part, weight in pairs])
        counter["nodes"] += nodes
        for part, weight, member in rec.found[p - 1]:
            facts = _pad_facts(member, category)
            waiting.setdefault(len(part) + facts[0], []).append(
                ((part, member, facts), weight))
        yield from _solutions_at_level(category, sorted(waiting.pop(p, [])),
                                       p, counter)

    return level


# ---------------------------------------------------------------------------
# Assignment-based levels (plain d / a / u, no simplicity available)
# ---------------------------------------------------------------------------

_ASSIGN_MAX_N = 7
_ASSIGN_MAX_P = 6


class _Assignment:
    """The state of one assignment level, which :func:`_assign` takes."""

    __slots__ = ("n", "p", "adj", "want_d", "want_a", "want_u", "counter",
                 "chosen", "nodes", "check_at")

    def __init__(self, g: Graph, category: str, p: int, counter: dict,
                 adj: list[int]):
        self.n, self.p, self.adj, self.counter = g.n, p, adj, counter
        self.want_d = "d" in category and "a" not in category
        self.want_a = "a" in category
        self.want_u = "u" in category
        self.chosen: list[int] = []
        self.nodes = counter["nodes"]
        self.check_at = self.nodes + 1


def _assignment_level(g: Graph, category: str, p: int, counter: dict,
                      adj: list[int]):
    """All labelled category solutions with universe size exactly ``p``,
    as (groups, 1) pairs, by giving each vertex in turn a nonempty subset
    of the universe.  The groups, read as columns from vertex 0 down, are
    kept in non-increasing order, so each multiset of groups is yielded
    once.  Each vertex placed spends one node of the run's budget in
    ``counter``."""
    state = _Assignment(g, category, p, counter, adj)
    yield from _assign(state, 0, (1 << p - 1) - 1)
    counter["nodes"] = state.nodes


def _assign(s: _Assignment, v: int, tied: int):
    """The solutions that extend the sets ``s.chosen`` of the vertices
    before ``v``.  Bit e of ``tied``: the groups of elements e and e + 1
    agree on those vertices, so v may not hold e + 1 without e."""
    s.nodes += 1
    counter = s.counter
    if s.nodes >= s.check_at:
        s.check_at = _checkpoint(counter, s.nodes)
        if counter["stop"]:
            return
    n, chosen = s.n, s.chosen
    if v == n:
        counter["nodes"] = s.nodes
        yield tuple(sum(1 << u for u in range(n) if chosen[u] >> e & 1)
                    for e in range(s.p)), 1
        return
    adj, want_d, want_a, want_u = s.adj, s.want_d, s.want_a, s.want_u
    for cand in range(1, 1 << s.p):
        if tied & ~cand & cand >> 1 or want_u and chosen and \
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
            yield from _assign(s, v + 1, tied & ~(cand ^ cand >> 1))
            chosen.pop()
            if counter["stop"]:
                return


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
    relabellings of the base graph rather than of ``graph`` itself, and a
    ``graph`` whose adjacency is not that of ``line_graph(base)`` is
    refused.
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
    start = time.monotonic()
    keyer = _symmetry_keyer(graph, base)
    if "s" in category:
        levels, kernel = _partition_levels, "partition"
    elif graph.n > _ASSIGN_MAX_N or budget.max_universe > _ASSIGN_MAX_P:
        raise SetrepError(
            f"category {category!r} needs the direct assignment search, "
            f"which is limited to n <= {_ASSIGN_MAX_N} and universe <= "
            f"{_ASSIGN_MAX_P}")
    else:
        levels, kernel = _assignment_levels, "assignment"
    counter = {"nodes": 0, "limit": budget.node_limit, "stop": None,
               "deadline": (None if budget.time_limit is None
                            else start + budget.time_limit)}
    level = levels(graph, category, counter)
    classes: dict = {}
    labeled = 0
    searched_to = 0
    for p in range(1, budget.max_universe + 1):
        first = None  # the level's first solution, keyed when a second comes
        for groups, weight in level(p):
            if first is None:
                first = groups
            else:
                if not classes:
                    classes[keyer.key(first)] = _groups_rep(
                        graph.n, map(_bits, first))
                if counter["deadline"] is not None:
                    _checkpoint(counter, counter["nodes"])
                    if counter["stop"]:
                        break
                key = keyer.key(groups)
                if key not in classes:  # the first solution of its class
                    classes[key] = _groups_rep(graph.n, map(_bits, groups))
            labeled += weight
        if first is not None and not classes:  # one solution, one class
            classes[None] = _groups_rep(graph.n, map(_bits, first))
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
