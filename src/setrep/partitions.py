"""Edge-clique-partition enumeration kernel.

Graphs are bitmask-encoded: ``adj[v]`` holds the neighbours of ``v``.
A partition is returned as a sorted tuple of clique bitmasks covering
every edge exactly once, using at most ``max_cliques`` cliques of size
two or more (single-vertex cliques are the driver's business, not the
kernel's).

Search strategy: fail first.  Every clique of the partition that
covers an uncovered edge (a, b) consists of a, b and a clique of their
common uncovered neighbourhood, so a node branches on those cliques for
one edge.  The edge chosen is the one with the fewest common uncovered
neighbours, popcount(unc[a] & unc[b]), ties going to the least a and then
the least b; the scan stops at the first edge with none, whose only
candidate is the edge itself.

A node with one clique left does not branch: it closes the partition
with the clique on its active vertices if the uncovered edges form
exactly that clique, and is pruned otherwise.  Any other node first
applies a covering bound: a vertex with d uncovered edges needs at least
ceil(d / (w - 1)) more cliques, where w is the clique number of the
uncovered graph; w is computed by a small branch-and-bound that exits
early once it can rule pruning out.
"""

from __future__ import annotations

import time


def enumerate_edge_partitions(n, adj, max_cliques, node_limit=None,
                              deadline=None):
    """Enumerate partitions; returns (partitions, nodes, complete).

    ``deadline`` is an absolute ``time.monotonic()`` stamp.  A search
    stopped by ``node_limit`` reports one node more than the limit.
    """
    unc = [adj[v] for v in range(n)]
    cliques: list[int] = []
    partitions: list[tuple[int, ...]] = []
    nodes = 0
    aborted = False

    def omega_reaches(limit: int, active: int) -> int:
        """Exact clique number of the uncovered graph, except that any
        value >= limit is reported as ``limit`` (early exit)."""
        best = 0

        def bk(size: int, cand: int) -> bool:
            nonlocal best
            if size > best:
                best = size
                if best >= limit:
                    return True
            while cand:
                if size + cand.bit_count() <= best:
                    return False
                w = cand & -cand
                cand ^= w
                if bk(size + 1, cand & unc[w.bit_length() - 1]):
                    return True
            return False

        bk(0, active)
        return best

    def descend() -> None:
        nonlocal nodes, aborted
        if aborted:
            return
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            aborted = True
            return
        if deadline is not None and nodes % 1024 == 0 \
                and time.monotonic() > deadline:
            aborted = True
            return

        dmax = 0
        active = 0
        total = 0
        for x in range(n):
            ux = unc[x]
            if ux:
                active |= 1 << x
                d = ux.bit_count()
                total += d
                if d > dmax:
                    dmax = d
        if not active:
            partitions.append(tuple(sorted(cliques)))
            return
        remaining = max_cliques - len(cliques)
        if remaining <= 0:
            return
        if remaining == 1:
            # the last clique must be the whole uncovered graph
            k = active.bit_count()
            if total == k * (k - 1):
                partitions.append(tuple(sorted(cliques + [active])))
            return
        # covering bound on the busiest vertex
        target = -(-dmax // remaining) + 1  # ceil(dmax / remaining) + 1
        w = omega_reaches(target, active)
        if w < target:
            if -(-dmax // (w - 1)) > remaining:
                return
            if total // 2 > remaining * (w * (w - 1) // 2):
                return

        # fail-first edge: fewest common uncovered neighbours
        best = n
        rest = active
        while rest and best:
            abit = rest & -rest
            rest ^= abit
            a = abit.bit_length() - 1
            ua = unc[a]
            later = ua & ~((abit << 1) - 1)
            while later:
                bbit = later & -later
                later ^= bbit
                b = bbit.bit_length() - 1
                c = (ua & unc[b]).bit_count()
                if c < best:
                    best, u, v = c, a, b
                    if not c:
                        break
        base = (1 << u) | (1 << v)
        common = unc[u] & unc[v]

        candidates: list[int] = []

        def extend(cur: int, cand: int) -> None:
            candidates.append(cur)
            while cand:
                wbit = cand & -cand
                cand ^= wbit
                extend(cur | wbit, cand & unc[wbit.bit_length() - 1])

        extend(base, common)

        for cl in candidates:
            saved = []
            rest = cl
            while rest:
                bit = rest & -rest
                rest ^= bit
                a = bit.bit_length() - 1
                saved.append((a, unc[a]))
                unc[a] &= ~cl
            cliques.append(cl)
            descend()
            cliques.pop()
            for a, old in saved:
                unc[a] = old
            if aborted:
                return

    descend()
    return partitions, nodes, not aborted


def kernel_name() -> str:
    """Name of the partition kernel, as oracle results record it."""
    return "pure"


__all__ = ["enumerate_edge_partitions", "kernel_name"]
