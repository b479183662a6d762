"""Set representations of graphs and their isomorphism classes.

A representation assigns a nonempty set to every vertex so that two
vertices are adjacent exactly when their sets meet.  The predicates of
interest here:

* distinct   -- no two assigned sets are equal,
* antichain  -- no assigned set contains another (so also distinct),
* uniform    -- all assigned sets have the same size,
* simple     -- any two assigned sets share at most one element.

Two representations are isomorphic when some bijection of the universes
carries the one multiset of assigned sets onto the other.  Which vertex
holds which set is deliberately ignored: duplicate sets are
interchangeable, and a representation is treated as a labelled multiset
of subsets of its universe.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from .graphs import Graph


@dataclass(frozen=True)
class SetRepresentation:
    """Sets over a finite universe, one per vertex (in vertex order)."""

    universe: tuple[int, ...]
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("universe elements must be distinct")
        allowed = set(self.universe)
        for s in self.sets:
            if not s:
                raise ValueError("every vertex must receive a nonempty set")
            if not s <= allowed:
                raise ValueError(f"set {sorted(s)} strays outside the universe")

    @property
    def universe_size(self) -> int:
        return len(self.universe)


@dataclass(frozen=True)
class CategoryFlags:
    distinct: bool
    antichain: bool
    uniform: bool
    simple: bool

    def satisfies(self, category: str) -> bool:
        """Check a category word: any of 'd a u s' and combinations
        like 'sd', 'sa', 'sdu'."""
        table = {"d": self.distinct, "a": self.antichain,
                 "u": self.uniform, "s": self.simple}
        try:
            return all(table[ch] for ch in category)
        except KeyError:
            raise ValueError(f"unknown category {category!r}") from None


VALID_CATEGORIES = ("d", "a", "u", "s", "sd", "sa", "su", "sdu")


def category_flags(rep: SetRepresentation) -> CategoryFlags:
    """Evaluate all four predicates on one representation."""
    sets = rep.sets
    k = len(sets)
    distinct = len(set(sets)) == k
    # Equal sets count as a containment, so an antichain is forcibly distinct.
    antichain = not any(sets[i] <= sets[j] or sets[j] <= sets[i]
                        for i in range(k) for j in range(i + 1, k))
    uniform = len({len(s) for s in sets}) <= 1
    simple = all(len(sets[i] & sets[j]) <= 1
                 for i in range(k) for j in range(i + 1, k))
    return CategoryFlags(distinct=distinct, antichain=antichain,
                         uniform=uniform, simple=simple)


def failing_pair(rep: SetRepresentation,
                 graph: Graph) -> tuple[int, int] | None:
    """The first vertex pair (i, j), i < j, whose sets meet although they
    are not adjacent in ``graph`` or the other way round; None when every
    pair agrees.  ``rep`` must hold one set per vertex."""
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if bool(rep.sets[i] & rep.sets[j]) != graph.has_edge(i, j):
                return i, j
    return None


def represents(rep: SetRepresentation, graph: Graph) -> bool:
    """Does ``rep`` realise exactly the adjacencies of ``graph``?"""
    return len(rep.sets) == graph.n and failing_pair(rep, graph) is None


# ---------------------------------------------------------------------------
# Isomorphism: canonical form of the (universe, multiset-of-sets) structure.
#
# The structure is a bipartite incidence between universe elements and set
# occurrences.  Colour refinement alternates between the two sides; each
# distinct set is refined once, and an element counts it once per
# occurrence.  When refinement stalls, the first non-singleton element cell
# is individualised and every choice explored.  The canonical encoding is
# the minimum, over all discrete element orderings reached, of the sorted
# tuple of sets rewritten as positions.
#
# Automorphism pruning (McKay 1981; McKay & Piperno 2014): two leaves with
# the same encoding differ by an automorphism, the map sending each element
# to the one at its position in the other leaf.  Refinement and
# individualisation commute with automorphisms, so a node's child for
# element x is the image of its child for y under any recorded
# automorphism that fixes the node's individualised elements and maps y to
# x; the two subtrees reach the same encodings, and only one is walked.
#
# Jumps: a leaf whose encoding equals the first leaf's or the least leaf's
# returns the walk straight to the node where its path of individualised
# elements leaves that earlier leaf's path.  Each cell's chosen element is
# the one whose leaf position starts the cell, so the automorphism carries
# the earlier path onto this one element by element: it fixes the shared
# prefix and maps the earlier child of that node, whose subtree is
# finished, onto the current child.  Every leaf below the current child is
# the image of one already seen, with the same encoding, so the rest of
# that subtree cannot lower the minimum.
#
# The minimum, and so the form, is that of the exhaustive walk.
#
# The walk keeps its state in a _Walk object and runs in module-level
# functions: a nested function that calls itself is a reference cycle,
# which would keep each call's colourings and automorphisms alive until the
# cyclic garbage collector runs.
# ---------------------------------------------------------------------------

_Encoding = tuple[int, int, tuple[tuple[int, ...], ...]]


def _refine(colors: list[int], membership: list[list[int]],
            set_elems: list[list[int]]) -> list[int]:
    """Alternating colour refinement; returns stable element colouring.
    Elements and distinct sets are indices, and an element's membership
    lists a set once per occurrence.  Colours are dense ranks."""
    # a discrete colouring is stable
    while max(colors, default=-1) < len(colors) - 1:
        set_color = _relabel([tuple(sorted(map(colors.__getitem__, elems)))
                              for elems in set_elems])
        new_colors = _relabel([
            (colors[e], tuple(sorted(map(set_color.__getitem__, js))))
            for e, js in enumerate(membership)])
        if new_colors == colors:
            break
        colors = new_colors
    return colors


def _relabel(sig: list) -> list[int]:
    code = {s: i for i, s in enumerate(sorted(set(sig)))}
    return list(map(code.__getitem__, sig))


def _orbit(seeds: list, steps: list[Callable]) -> set:
    """Orbit of ``seeds`` under the group that the permutations ``steps``
    generate, each given as the callable that maps a point to its image:
    every point reached from a seed by steps."""
    orbit = set(seeds)
    todo = list(seeds)
    while todo:
        x = todo.pop()
        for step in steps:
            y = step(x)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


class _Walk:
    """The state of one :func:`canonical_form` call: the structure, and the
    first leaf, the least leaf (each as encoding, colouring, path) and the
    automorphisms recorded so far."""

    __slots__ = ("n", "set_elems", "mults", "membership", "first", "best",
                 "automorphisms")

    def __init__(self, rep: SetRepresentation):
        n = self.n = len(rep.universe)
        index = {e: i for i, e in enumerate(rep.universe)}
        copies = Counter(rep.sets)
        self.set_elems = [list(map(index.__getitem__, s)) for s in copies]
        self.mults = list(copies.values())
        self.membership: list[list[int]] = [[] for _ in range(n)]
        for j, (elems, m) in enumerate(zip(self.set_elems, self.mults)):
            for e in elems:
                self.membership[e] += [j] * m
        self.first = self.best = None
        self.automorphisms: list[list[int]] = []


def canonical_form(rep: SetRepresentation) -> _Encoding:
    """A complete isomorphism invariant of the multiset structure: the
    least leaf encoding of the search tree, walked with automorphism
    pruning and with a jump back from every leaf that repeats the first
    or the least encoding (see the comment above ``_refine``)."""
    w = _Walk(rep)
    _walk(w, [0] * w.n, [])
    return (w.n, len(rep.sets), w.best[0])


def _automorphism_generators(rep: SetRepresentation) -> list[list[int]]:
    """Generators of the automorphism group of the multiset structure, as
    maps from universe indices to universe indices: the automorphisms that
    the walk of :func:`canonical_form` records, which generate the whole
    group (McKay 1981)."""
    w = _Walk(rep)
    _walk(w, [0] * w.n, [])
    return w.automorphisms


@functools.lru_cache(maxsize=1)
def _graph_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of Aut(g), as maps of its vertex indices: the
    automorphisms that the walk records on g's edge system (its vertices
    the elements, each edge a 2-set).  The last graph's generators are
    kept, keyed by the graph's identity like :func:`line_graph`'s result,
    so the closed forms and the oracle walk a base once between them."""
    system = SetRepresentation(tuple(range(g.n)),
                               tuple(map(frozenset, g.edges)))
    return tuple(map(tuple, _automorphism_generators(system)))


def _encode(w: _Walk, colors: list[int]) -> tuple[tuple[int, ...], ...]:
    rows = []
    for elems, m in zip(w.set_elems, w.mults):
        rows += [tuple(sorted(map(colors.__getitem__, elems)))] * m
    return tuple(sorted(rows))


def _leaf(w: _Walk, colors: list[int], fixed: list[int]) -> int:
    enc = _encode(w, colors)
    if w.first is None:
        w.first = w.best = (enc, colors, fixed)
        return len(fixed)
    for ref_enc, ref_colors, ref_fixed in (w.first, w.best):
        if enc == ref_enc:
            at = [0] * w.n
            for e, c in enumerate(ref_colors):
                at[c] = e
            w.automorphisms.append([at[c] for c in colors])
            depth = 0
            while fixed[depth] == ref_fixed[depth]:
                depth += 1
            return depth
    if enc < w.best[0]:
        w.best = (enc, colors, fixed)
    return len(fixed)


def _walk(w: _Walk, colors: list[int], fixed: list[int]) -> int:
    """Walk the subtree below ``fixed``; return the depth to resume at,
    less than ``len(fixed)`` when an automorphism jumps over the rest of
    the subtree."""
    n = w.n
    colors = _refine(colors, w.membership, w.set_elems)
    if max(colors, default=-1) == n - 1:
        return _leaf(w, colors, fixed)
    # colours are dense ranks: branch on the least one held twice
    sizes = [0] * n
    for c in colors:
        sizes[c] += 1
    cell = next(c for c, size in enumerate(sizes) if size > 1)
    target = [e for e, c in enumerate(colors) if c == cell]
    depth = len(fixed)
    explored: list[int] = []
    orbit: set[int] | None = set()
    for chosen in target:
        if orbit is None:
            # only a walk records automorphisms, so the orbit holds until
            # the next child is walked
            orbit = _orbit(explored, [g.__getitem__ for g in w.automorphisms
                                      if all(g[x] == x for x in fixed)])
        if chosen in orbit:
            continue
        # Slot the chosen element just below the rest of its cell.
        branched = [c + (c > cell) for c in colors]
        for other in target:
            if other != chosen:
                branched[other] = cell + 1
        resume = _walk(w, branched, fixed + [chosen])
        if resume < depth:
            return resume
        explored.append(chosen)
        orbit = None
    return depth


def isomorphic(a: SetRepresentation, b: SetRepresentation) -> bool:
    """Universe bijection carrying one multiset of sets onto the other?"""
    if len(a.universe) != len(b.universe) or len(a.sets) != len(b.sets):
        return False
    if sorted(len(s) for s in a.sets) != sorted(len(s) for s in b.sets):
        return False
    return canonical_form(a) == canonical_form(b)


def partition_into_classes(
        reps: Sequence[SetRepresentation]) -> list[list[int]]:
    """Group indices of ``reps`` by isomorphism; classes keep first-seen
    order and each class lists indices ascending."""
    classes: dict[_Encoding, list[int]] = {}
    for i, rep in enumerate(reps):
        classes.setdefault(canonical_form(rep), []).append(i)
    return list(classes.values())


# -- JSON translation used by the CLI and the file formats -----------------

def rep_to_json_dict(rep: SetRepresentation,
                     labels: Sequence[str]) -> dict:
    if len(labels) != len(rep.sets):
        raise ValueError("label count does not match the number of sets")
    return {
        "universe": sorted(rep.universe),
        "sets": {lab: sorted(rep.sets[i]) for i, lab in enumerate(labels)},
    }


def _int_list(value, name: str) -> list[int]:
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise ValueError(f"{name} must be a list of integers")
    return value


def rep_from_json_dict(data: dict,
                       labels: Sequence[str]) -> SetRepresentation:
    """The representation whose i-th set is the one keyed by ``labels[i]``,
    the graph's vertex labels.  JSON of any other shape raises ValueError
    naming the bad field."""
    if not isinstance(data, dict):
        raise ValueError('representation JSON must be an object with '
                         '"universe" and "sets"')
    universe = tuple(sorted(_int_list(data.get("universe"), '"universe"')))
    raw = data.get("sets")
    if not isinstance(raw, dict):
        raise ValueError('"sets" must be an object from vertex labels to '
                         'lists of integers')
    missing = [lab for lab in labels if lab not in raw]
    extra = [lab for lab in raw if lab not in set(labels)]
    if missing or extra:
        raise ValueError(
            f"set keys do not match the graph's vertices "
            f"(missing {missing}, unexpected {extra})")
    sets = tuple(frozenset(_int_list(raw[lab], f"the set of {lab!r}"))
                 for lab in labels)
    return SetRepresentation(universe=universe, sets=sets)
