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

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def represents(rep: SetRepresentation, graph: Graph) -> bool:
    """Does ``rep`` realise exactly the adjacencies of ``graph``?"""
    if len(rep.sets) != graph.n:
        return False
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            if bool(rep.sets[i] & rep.sets[j]) != graph.has_edge(i, j):
                return False
    return True


# ---------------------------------------------------------------------------
# Isomorphism: canonical form of the (universe, multiset-of-sets) structure.
#
# The structure is a bipartite incidence between universe elements and set
# occurrences.  Colour refinement alternates between the two sides; when
# refinement stalls, the first non-singleton element cell is individualised
# and every choice explored.  The canonical encoding is the minimum, over
# all discrete element orderings reached, of the sorted tuple of sets
# rewritten as positions.
#
# Automorphism pruning (McKay 1981; McKay & Piperno 2014): two leaves with
# the same encoding differ by an automorphism, the map sending each element
# to the one at its position in the other leaf.  Refinement and
# individualisation commute with automorphisms, so a node's child for
# element x is the image of its child for y under any recorded
# automorphism that fixes the node's individualised elements and maps y to
# x; the two subtrees reach the same encodings, and only one is walked.
# The minimum, and so the form, is that of the exhaustive walk.
# ---------------------------------------------------------------------------

_Encoding = tuple[int, int, tuple[tuple[int, ...], ...]]


def _refine(colors: list[int], membership: list[list[int]],
            set_elems: list[list[int]]) -> list[int]:
    """Alternating colour refinement; returns stable element colouring.
    Elements and sets are indices; colours are dense ranks."""
    while True:
        set_color = _relabel([tuple(sorted(colors[e] for e in elems))
                              for elems in set_elems])
        new_colors = _relabel([(colors[e],
                                tuple(sorted(set_color[j] for j in js)))
                               for e, js in enumerate(membership)])
        if new_colors == colors:
            return colors
        colors = new_colors


def _relabel(sig: list) -> list[int]:
    code = {s: i for i, s in enumerate(sorted(set(sig)))}
    return [code[s] for s in sig]


def _orbit(seeds: list[int], generators: list[list[int]]) -> set[int]:
    """Orbit of ``seeds`` under the group the permutations generate."""
    orbit = set(seeds)
    todo = list(seeds)
    while todo:
        x = todo.pop()
        for gen in generators:
            y = gen[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def canonical_form(rep: SetRepresentation) -> _Encoding:
    """A complete isomorphism invariant of the multiset structure."""
    n = len(rep.universe)
    index = {e: i for i, e in enumerate(rep.universe)}
    set_elems = [[index[e] for e in s] for s in rep.sets]
    membership: list[list[int]] = [[] for _ in range(n)]
    for j, elems in enumerate(set_elems):
        for e in elems:
            membership[e].append(j)

    # (encoding, colouring) of the first leaf and of the least leaf so far
    first = best = None
    automorphisms: list[list[int]] = []

    def encode(colors: list[int]) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(tuple(sorted(colors[e] for e in elems))
                            for elems in set_elems))

    def leaf(colors: list[int]) -> None:
        nonlocal first, best
        enc = encode(colors)
        if first is None:
            first = best = (enc, colors)
            return
        for ref_enc, ref_colors in (first, best):
            if enc == ref_enc:
                at = [0] * n
                for e, c in enumerate(ref_colors):
                    at[c] = e
                automorphisms.append([at[c] for c in colors])
                break
        if enc < best[0]:
            best = (enc, colors)

    def walk(colors: list[int], fixed: list[int]) -> None:
        colors = _refine(colors, membership, set_elems)
        cells: dict[int, list[int]] = {}
        for e in range(n):
            cells.setdefault(colors[e], []).append(e)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            leaf(colors)
            return
        explored: list[int] = []
        for chosen in target:
            if explored and chosen in _orbit(
                    explored, [g for g in automorphisms
                               if all(g[x] == x for x in fixed)]):
                continue
            # Slot the chosen element just below the rest of its cell.
            branched = [2 * c for c in colors]
            for other in target:
                if other != chosen:
                    branched[other] += 1
            walk(_relabel(branched), fixed + [chosen])
            explored.append(chosen)

    if n:
        walk([0] * n, [])
        body = best[0]
    else:
        body = ()
    return (n, len(set_elems), body)


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
    order: list[_Encoding] = []
    for i, rep in enumerate(reps):
        key = canonical_form(rep)
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append(i)
    return [classes[k] for k in order]


# -- JSON translation used by the CLI and the file formats -----------------

def rep_to_json_dict(rep: SetRepresentation,
                     labels: Sequence[str]) -> dict:
    if len(labels) != len(rep.sets):
        raise ValueError("label count does not match the number of sets")
    return {
        "universe": sorted(rep.universe),
        "sets": {lab: sorted(rep.sets[i]) for i, lab in enumerate(labels)},
    }


def rep_from_json_dict(data: dict,
                       label_order: Iterable[str] | None = None
                       ) -> tuple[SetRepresentation, tuple[str, ...]]:
    """Returns the representation together with the vertex label order
    actually used (the graph's order when given, insertion order else)."""
    universe = tuple(sorted(int(x) for x in data["universe"]))
    raw = data["sets"]
    if label_order is None:
        labels = tuple(raw.keys())
    else:
        labels = tuple(label_order)
        missing = [lab for lab in labels if lab not in raw]
        extra = [lab for lab in raw if lab not in set(labels)]
        if missing or extra:
            raise ValueError(
                f"set keys do not match the graph's vertices "
                f"(missing {missing}, unexpected {extra})")
    sets = tuple(frozenset(int(x) for x in raw[lab]) for lab in labels)
    return SetRepresentation(universe=universe, sets=sets), labels
