# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled edge-clique-partition enumeration kernel.

Twin of ``_partition_py``: same algorithm, same branching order, same
output order, same (partitions, nodes, complete) result — just with C
integers for the bitmask work.  Limited to 64 vertices; the dispatcher in
:mod:`setrep.partitions` falls back to the pure kernel above that.

Any behavioural change here must be mirrored in ``_partition_py``.
"""

import time

from cpython.mem cimport PyMem_Free, PyMem_Malloc, PyMem_Realloc
from libc.stdint cimport int64_t, uint64_t

cdef extern from *:
    """
    #if defined(__GNUC__) || defined(__clang__)
    static inline int _sr_popcount(unsigned long long x) { return __builtin_popcountll(x); }
    static inline int _sr_ctz(unsigned long long x) { return __builtin_ctzll(x); }
    #else
    static inline int _sr_popcount(unsigned long long x) {
        int c = 0; while (x) { x &= x - 1; ++c; } return c;
    }
    static inline int _sr_ctz(unsigned long long x) {
        int c = 0; while (!(x & 1ULL)) { x >>= 1; ++c; } return c;
    }
    #endif
    """
    int _sr_popcount(uint64_t x) nogil
    int _sr_ctz(uint64_t x) nogil


cdef struct Vec:
    uint64_t* data
    size_t size
    size_t cap


cdef int vec_push(Vec* v, uint64_t x) except -1:
    cdef uint64_t* grown
    if v.size == v.cap:
        v.cap = v.cap * 2 if v.cap else 16
        grown = <uint64_t*> PyMem_Realloc(v.data, v.cap * sizeof(uint64_t))
        if grown == NULL:
            raise MemoryError()
        v.data = grown
    v.data[v.size] = x
    v.size += 1
    return 0


cdef class _Search:
    cdef uint64_t unc[64]
    cdef uint64_t* clique_stack
    cdef int n
    cdef int max_cliques
    cdef int n_cliques
    cdef bint has_node_limit
    cdef int64_t node_limit
    cdef bint has_deadline
    cdef double deadline
    cdef int root_stride
    cdef int root_offset
    cdef int64_t nodes
    cdef bint aborted
    cdef list partitions
    cdef int _omega_best

    def __cinit__(self, int n, adj, int max_cliques, node_limit, deadline,
                  int root_stride, int root_offset):
        cdef int v
        self.n = n
        for v in range(n):
            self.unc[v] = <uint64_t> adj[v]
        self.max_cliques = max_cliques
        self.n_cliques = 0
        self.has_node_limit = node_limit is not None
        self.node_limit = node_limit if node_limit is not None else 0
        self.has_deadline = deadline is not None
        self.deadline = deadline if deadline is not None else 0.0
        self.root_stride = root_stride
        self.root_offset = root_offset
        self.nodes = 0
        self.aborted = False
        self.partitions = []
        self.clique_stack = <uint64_t*> PyMem_Malloc(
            (max_cliques if max_cliques > 0 else 1) * sizeof(uint64_t))
        if self.clique_stack == NULL:
            raise MemoryError()

    def __dealloc__(self):
        PyMem_Free(self.clique_stack)

    cdef int omega_reaches(self, int limit, uint64_t active):
        """Clique number of the uncovered graph, capped at ``limit``."""
        self._omega_best = 0
        self._omega_bk(0, active, limit)
        return self._omega_best

    cdef bint _omega_bk(self, int size, uint64_t cand, int limit):
        cdef uint64_t w
        if size > self._omega_best:
            self._omega_best = size
            if self._omega_best >= limit:
                return True
        while cand:
            if size + _sr_popcount(cand) <= self._omega_best:
                return False
            w = cand & (0 - cand)
            cand ^= w
            if self._omega_bk(size + 1, cand & self.unc[_sr_ctz(w)], limit):
                return True
        return False

    cdef int _extend(self, Vec* out, uint64_t cur, uint64_t cand) except -1:
        cdef uint64_t wbit
        vec_push(out, cur)
        while cand:
            wbit = cand & (0 - cand)
            cand ^= wbit
            self._extend(out, cur | wbit, cand & self.unc[_sr_ctz(wbit)])
        return 0

    cdef int descend(self, int depth) except -1:
        cdef int u, v, x, d, dmax, total, remaining, target, w
        cdef int a, b, c, best, i, k, nmem
        cdef size_t idx
        cdef bint own
        cdef uint64_t ux, ua, active, base, common, cl, rest, bit, later
        cdef int mem_idx[64]
        cdef uint64_t mem_old[64]
        cdef Vec cands
        cdef list arr

        if self.aborted:
            return 0
        # slice 0 owns the shared root
        own = depth > 0 or self.root_offset == 0
        if own:
            self.nodes += 1
        if self.has_node_limit and self.nodes > self.node_limit:
            self.aborted = True
            return 0
        if self.has_deadline and self.nodes % 1024 == 0 \
                and time.monotonic() > self.deadline:
            self.aborted = True
            return 0

        dmax = 0
        total = 0
        active = 0
        for x in range(self.n):
            ux = self.unc[x]
            if ux:
                active |= (<uint64_t> 1) << x
                d = _sr_popcount(ux)
                total += d
                if d > dmax:
                    dmax = d
        if not active:
            if own:
                arr = [self.clique_stack[i] for i in range(self.n_cliques)]
                arr.sort()
                self.partitions.append(tuple(arr))
            return 0
        remaining = self.max_cliques - self.n_cliques
        if remaining <= 0:
            return 0
        if remaining == 1:
            # the last clique must be the whole uncovered graph
            k = _sr_popcount(active)
            if own and total == k * (k - 1):
                arr = [self.clique_stack[i] for i in range(self.n_cliques)]
                arr.append(active)
                arr.sort()
                self.partitions.append(tuple(arr))
            return 0
        # covering bound on the busiest vertex (operands positive, so C
        # truncation agrees with the pure kernel's floor arithmetic)
        target = (dmax + remaining - 1) // remaining + 1
        w = self.omega_reaches(target, active)
        if w < target:
            if (dmax + w - 2) // (w - 1) > remaining:
                return 0
            if total // 2 > remaining * (w * (w - 1) // 2):
                return 0

        # fail-first edge: fewest common uncovered neighbours
        best = self.n
        u = v = -1
        rest = active
        while rest and best:
            bit = rest & (0 - rest)
            rest ^= bit
            a = _sr_ctz(bit)
            ua = self.unc[a]
            later = ua & ~((bit << 1) - 1)
            while later:
                b = _sr_ctz(later)
                later &= later - 1
                c = _sr_popcount(ua & self.unc[b])
                if c < best:
                    best = c
                    u = a
                    v = b
                    if c == 0:
                        break
        base = ((<uint64_t> 1) << u) | ((<uint64_t> 1) << v)
        common = self.unc[u] & self.unc[v]

        cands.data = NULL
        cands.size = 0
        cands.cap = 0
        try:
            self._extend(&cands, base, common)
            for idx in range(cands.size):
                if depth == 0 and <int> (idx % self.root_stride) != self.root_offset:
                    continue
                cl = cands.data[idx]
                nmem = 0
                rest = cl
                while rest:
                    bit = rest & (0 - rest)
                    rest ^= bit
                    a = _sr_ctz(bit)
                    mem_idx[nmem] = a
                    mem_old[nmem] = self.unc[a]
                    nmem += 1
                    self.unc[a] &= ~cl
                self.clique_stack[self.n_cliques] = cl
                self.n_cliques += 1
                self.descend(depth + 1)
                self.n_cliques -= 1
                for i in range(nmem):
                    self.unc[mem_idx[i]] = mem_old[i]
                if self.aborted:
                    break
        finally:
            PyMem_Free(cands.data)
        return 0


def enumerate_edge_partitions(n, adj, max_cliques, node_limit=None,
                              deadline=None, root_stride=1, root_offset=0):
    """Enumerate partitions; returns (partitions, nodes, complete).

    Same contract as the pure kernel; ``n`` must be at most 64.
    """
    if n > 64:
        raise ValueError("compiled kernel handles at most 64 vertices")
    search = _Search(n, adj, max_cliques, node_limit, deadline,
                     root_stride, root_offset)
    search.descend(0)
    return search.partitions, search.nodes, not search.aborted
