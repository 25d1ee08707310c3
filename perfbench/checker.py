"""Independent checks of the benchmark's inputs and of the program's witnesses.

Nothing here imports minorkit: the checker sees the input graph only as
vertex count plus edge arrays, and a witness only as plain vertex lists, so
a fault in the program's own verifier cannot hide a fault in a witness.
Every ``check_*`` function returns a list of problems; an empty list means
the object passed.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np


class EdgeSet:
    """A simple undirected graph on ``0..n-1`` held as its own CSR arrays."""

    def __init__(self, n: int, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        self.n = int(n)
        self.keys = np.unique(lo * self.n + hi)
        self.m = len(self.keys)
        a, b = self.keys // self.n, self.keys % self.n
        src = np.concatenate([a, b])
        dst = np.concatenate([b, a])
        order = np.lexsort((dst, src))
        self.indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=self.n), out=self.indptr[1:])
        self.indices = dst[order]

    def neighbors(self, x: int) -> np.ndarray:
        return self.indices[self.indptr[x]:self.indptr[x + 1]]

    def has_edge(self, a: int, b: int) -> bool:
        if not (0 <= a < self.n and 0 <= b < self.n) or a == b:
            return False
        row = self.neighbors(a)
        i = int(np.searchsorted(row, b))
        return i < len(row) and int(row[i]) == b


def edges_from_csr(n: int, indptr, indices) -> tuple:
    """Return ``(u, v, problems)`` for a CSR adjacency: the edges with
    ``u < v``, and every way in which the adjacency is not a simple
    undirected graph (self-loop, repeated or one-directional edge)."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    problems = []
    if len(indptr) != n + 1 or indptr[0] != 0 or indptr[-1] != len(indices):
        return np.empty(0, np.int64), np.empty(0, np.int64), ["CSR arrays do not describe n vertices"]
    if len(indices) and (indices.min() < 0 or indices.max() >= n):
        return np.empty(0, np.int64), np.empty(0, np.int64), ["neighbor id out of range"]
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    if np.any(src == indices):
        problems.append("self-loop")
    fwd = src * n + indices
    if len(fwd) > 1 and np.any(np.diff(fwd) <= 0):
        problems.append("adjacency rows not strictly increasing (repeated edge)")
    if not np.array_equal(np.sort(fwd), np.sort(indices * n + src)):
        problems.append("adjacency not symmetric")
    keep = src < indices
    return src[keep], indices[keep], problems


def edge_hash(n: int, u, v) -> str:
    """sha256 of the sorted ``min*n+max`` keys of an edge list."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v)).astype("<i8")
    return hashlib.sha256(keys.tobytes()).hexdigest()


def check_same_graph(n: int, m: int, digest: str, got_n: int, got_u, got_v) -> list:
    """The parsed graph must have exactly the generated vertex count and edge set."""
    problems = []
    if got_n != n:
        problems.append(f"parsed n={got_n}, generated n={n}")
    if len(got_u) != m:
        problems.append(f"parsed m={len(got_u)}, generated m={m}")
    if edge_hash(n, got_u, got_v) != digest:
        problems.append("parsed edge set differs from the generated one")
    return problems


GNP_SDS = 6.0  # binomial standard deviations a G(n, p) edge count may stray


def check_gnp_edge_count(n: int, avg_degree: float, m: int) -> list:
    """G(n, p) with p = avg/(n-1): m is Binomial(n(n-1)/2, p)."""
    pairs = n * (n - 1) // 2
    p = avg_degree / (n - 1)
    mean = pairs * p
    sd = math.sqrt(pairs * p * (1.0 - p))
    if abs(m - mean) > GNP_SDS * sd:
        return [f"G(n,p) edge count {m} is more than {GNP_SDS:g} sd from {mean:.0f} (sd {sd:.1f})"]
    return []


def check_regular(es: EdgeSet, d: int) -> list:
    deg = np.diff(es.indptr)
    if not np.all(deg == d):
        return [f"not {d}-regular: degrees {int(deg.min())}..{int(deg.max())}"]
    return []


def _connected_within(es: EdgeSet, members: set) -> bool:
    start = min(members)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in es.neighbors(x):
            y = int(y)
            if y in members and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(members)


def check_minor(es: EdgeSet, t: int, branch_sets) -> list:
    """t non-empty, pairwise disjoint, connected branch sets, pairwise joined by an edge."""
    sets = [set(map(int, b)) for b in branch_sets]
    problems = []
    if len(sets) != t:
        problems.append(f"{len(sets)} branch sets for K_{t}")
    for i, b in enumerate(sets):
        if not b:
            problems.append(f"branch set {i} empty")
        elif min(b) < 0 or max(b) >= es.n:
            problems.append(f"branch set {i} has a vertex out of range")
        elif not _connected_within(es, b):
            problems.append(f"branch set {i} not connected")
    if problems:
        return problems
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if sets[i] & sets[j]:
                problems.append(f"branch sets {i} and {j} overlap")
            elif not any(int(y) in sets[j] for x in sets[i] for y in es.neighbors(x)):
                problems.append(f"no edge between branch sets {i} and {j}")
    return problems


def check_subdivision(es: EdgeSet, t: int, corners, paths: dict) -> list:
    """t distinct corners; for each corner pair a path of input edges between
    them; paths internally disjoint and their interiors avoid every corner."""
    corners = [int(c) for c in corners]
    problems = []
    if len(corners) != t or len(set(corners)) != t:
        return [f"need {t} distinct corners, got {corners}"]
    corner_set = set(corners)
    interior_owner = {}
    for i in range(t):
        for j in range(i + 1, t):
            path = paths.get((i, j))
            if path is None:
                problems.append(f"no path for corners {i}-{j}")
                continue
            path = [int(x) for x in path]
            if {path[0], path[-1]} != {corners[i], corners[j]} or len(path) < 2:
                problems.append(f"path {i}-{j} does not join corners {i} and {j}")
            if len(set(path)) != len(path):
                problems.append(f"path {i}-{j} repeats a vertex")
            for a, b in zip(path, path[1:]):
                if not es.has_edge(a, b):
                    problems.append(f"path {i}-{j} step {a}-{b} is not an edge")
            for x in path[1:-1]:
                if x in corner_set:
                    problems.append(f"path {i}-{j} passes through corner {x}")
                elif x in interior_owner:
                    problems.append(f"paths {interior_owner[x]} and {i}-{j} share vertex {x}")
                else:
                    interior_owner[x] = f"{i}-{j}"
    extra = set(paths) - {(i, j) for i in range(t) for j in range(i + 1, t)}
    if extra:
        problems.append(f"paths for unknown corner pairs {sorted(extra)}")
    return problems


def witness_vertex_count(kind: str, witness) -> int:
    """Distinct vertices of a canonical witness (see ``run.canonical_witness``)."""
    if kind == "minor":
        return sum(len(b) for b in witness)
    corners, paths = witness
    used = set(corners)
    for _key, path in paths:
        used.update(path)
    return len(used)


def check_extraction(es: EdgeSet, kept, delta: float, small_set: bool) -> list:
    """The extraction lemma's guarantee, recomputed from the input edges:
    d(H) >= (1 - delta) d(G) (``1 - 2 delta`` in small-set mode) and
    min degree of H >= d(H) / 2, with exact rational arithmetic."""
    kept = np.unique(np.asarray(kept, dtype=np.int64))
    if len(kept) == 0 or kept[0] < 0 or kept[-1] >= es.n:
        return ["extracted vertex set empty or out of range"]
    mask = np.zeros(es.n, dtype=bool)
    mask[kept] = True
    a, b = es.keys // es.n, es.keys % es.n
    inside = mask[a] & mask[b]
    m_sub = int(inside.sum())
    n_sub = len(kept)
    deg = np.bincount(np.concatenate([a[inside], b[inside]]), minlength=es.n)[kept]
    d_in = Fraction(2 * es.m, es.n)
    d_sub = Fraction(2 * m_sub, n_sub)
    need = (1 - (2 if small_set else 1) * Fraction(delta)) * d_in
    problems = []
    if d_sub < need:
        problems.append(f"extracted density {float(d_sub):.3f} below {float(need):.3f}")
    if n_sub > 1 and 2 * int(deg.min()) < d_sub:
        problems.append(f"extracted min degree {int(deg.min())} below half of {float(d_sub):.3f}")
    return problems
