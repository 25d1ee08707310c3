"""Immutable simple undirected graphs and the primitive set/ball/path operations.

Vertices are dense integer ids ``0..n-1``.  ``Graph(n, edges)``, the one
constructor, takes an ``(m, 2)`` integer array or any iterable of pairs and
builds CSR adjacency (numpy arrays, each neighbor row sorted, so iteration
order is deterministic) with array operations only.  Graphs are immutable;
"deleting" vertices means masking and relabeling the CSR rows into an
induced subgraph that carries its id mapping.

Vertex sets are plain ``set``/``frozenset`` objects.  Every traversal runs on
one BFS kernel over the CSR arrays and a boolean blocked mask: layers are
expanded whole, and a vertex's parent is the smallest-id vertex of the
previous layer adjacent to it, so every operation here is deterministic.

Thread-safety: ``Graph`` and ``Path`` never mutate after ``__init__`` and may
be shared freely across worker threads.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

VertexSet = frozenset  # a set of vertex ids; any Iterable[int] is accepted as input


@dataclass(frozen=True)
class Path:
    """A simple path given by its ordered vertex list.

    ``length`` is the edge count, ``len(vertices) - 1``.  Distinctness of the
    vertices is validated here; adjacency in a host graph is checked by
    :meth:`valid_in` because the same Path object may describe several hosts.
    """

    vertices: tuple

    def __post_init__(self):
        verts = tuple(int(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if not verts:
            raise ValueError("empty path")
        if len(set(verts)) != len(verts):
            raise ValueError("path repeats a vertex")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __contains__(self, v) -> bool:
        return v in self.vertices

    def valid_in(self, g: "Graph") -> bool:
        return all(g.has_edge(u, w) for u, w in zip(self.vertices, self.vertices[1:]))


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``."""

    __slots__ = ("n", "edge_count", "_indptr", "_indices")

    def __init__(self, n: int, edges: Iterable = ()):
        n = int(n)
        if not 0 <= n <= 2**31 - 1:
            raise ValueError(f"vertex count {n} outside 0..{2**31 - 1} (ids are int32)")
        self.n = n
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        pairs = pairs.reshape(0, 2) if pairs.shape == (0,) else pairs
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        lo, hi = pairs.min(axis=1), pairs.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            u, v = map(int, pairs[np.argmax(bad)])
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
        self._indptr, self._indices = _build_csr(n, pairs)
        self.edge_count = len(self._indices) // 2

    # -- accessors ---------------------------------------------------------

    def neighbors(self, v: int):
        """Sorted neighbor ids of ``v`` (numpy view; do not mutate)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and int(row[i]) == v

    def vertices(self) -> range:
        return range(self.n)

    def edges(self):
        """Iterate edges as (u, v) with u < v, in lexicographic order."""
        u = np.repeat(np.arange(self.n), self.degrees())
        up = u < self._indices
        return zip(u[up].tolist(), self._indices[up].tolist())

    def adjacency_lists(self) -> list:
        return [list(map(int, self.neighbors(v))) for v in range(self.n)]

    def min_degree(self) -> int:
        return int(self.degrees().min()) if self.n else 0

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count})"


def _build_csr(n: int, pairs: np.ndarray) -> tuple:
    u, v = pairs[:, 0], pairs[:, 1]
    key = _unique(np.concatenate((u * n + v, v * n + u)))  # both directions; dedupes
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, (key % n).astype(np.int32)


def _unique(a: np.ndarray, return_first: bool = False):
    """Sorted distinct values of an integer array (with ``return_first``, also
    each one's first index), by sort and flag: numpy 2.x's ``np.unique`` hashes
    integers first, about 50 times slower than a sort on 656k edge keys.
    """
    order = np.argsort(a, kind="stable") if return_first else None
    a = a[order] if return_first else np.sort(a)
    flag = np.diff(a, prepend=a[:1] - 1) != 0
    return (a[flag], order[flag]) if return_first else a[flag]


class InducedSubgraph(NamedTuple):
    """A relabeled induced subgraph plus its id mapping (both directions)."""

    graph: Graph
    new_to_old: tuple
    old_to_new: dict


# -- spec operations ---------------------------------------------------------


def average_degree(g: Graph) -> Fraction:
    """Exact average degree 2m/n.  Degree comparisons never go through floats."""
    if g.n == 0:
        raise ValueError("empty graph")
    return Fraction(2 * g.edge_count, g.n)


def neighborhood(g: Graph, s: Iterable[int], avoid: Iterable[int] = ()) -> frozenset:
    """External neighborhood of ``s`` in ``g`` minus ``avoid``.

    Returns the vertices outside ``s`` and ``avoid`` adjacent to some vertex
    of ``s``.  ``s`` and ``avoid`` must be disjoint.
    """
    s = set(s)
    avoid = set(avoid)
    if s & avoid:
        raise ValueError("set and avoid overlap")
    out = set()
    for v in s:
        out.update(map(int, g.neighbors(v)))
    return frozenset(out - s - avoid)


def ball(g: Graph, s: Iterable[int], radius: int, avoid: Iterable[int] = ()) -> frozenset:
    """Ball of the given radius around ``s`` in ``g - avoid`` (BFS)."""
    if radius < 0:
        raise ValueError("negative radius")
    s = set(map(int, s))
    avoid = set(map(int, avoid))
    if s & avoid:
        raise ValueError("set and avoid overlap")
    levels = bfs_levels(g, s, avoid=avoid, radius=radius)
    return frozenset(int(v) for v in np.flatnonzero(levels >= 0))


# -- the BFS kernel -----------------------------------------------------------


def _mask(n: int, vertices: Iterable[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(map(int, vertices), dtype=np.int64)] = True
    return mask


def _gather(g: Graph, vertices: np.ndarray) -> tuple:
    """Concatenated neighbor rows of ``vertices`` and the length of each row."""
    starts = g._indptr[vertices]
    counts = g._indptr[vertices + 1] - starts
    offs = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return g._indices[offs + np.arange(len(offs))], counts


def _layer_step(g: Graph, frontier: np.ndarray, levels: np.ndarray, blocked: np.ndarray,
                parents: bool = False) -> tuple:
    """One BFS layer: the sorted unvisited, unblocked neighbors of ``frontier``.

    With ``parents`` also returns, for each new vertex, its smallest-id
    neighbor in ``frontier`` (which must be sorted ascending); else None.
    """
    flat, counts = _gather(g, frontier)
    keep = (levels[flat] < 0) & ~blocked[flat]
    if not parents:
        return _unique(flat[keep]), None
    new, first = _unique(flat[keep], return_first=True)
    return new, np.repeat(frontier, counts)[keep][first]


def _bfs(g: Graph, seeds: Iterable[int], blocked: np.ndarray, radius: Optional[int] = None,
         stop_size: Optional[int] = None, target: Optional[int] = None,
         parents: bool = False) -> tuple:
    """Layered BFS from ``seeds`` through unblocked vertices: the one BFS loop.

    Seeds are visited even when blocked.  Growth stops after ``radius``
    layers, once ``stop_size`` vertices are visited or once ``target`` is
    visited, always between whole layers.  Returns ``(levels, parents)``:
    ``int32`` levels with -1 for unvisited vertices, and with ``parents`` an
    array holding each visited vertex's smallest-id neighbor one layer down
    (-1 for seeds and unvisited vertices), else None.
    """
    levels = np.full(g.n, -1, dtype=np.int32)
    parent = np.full(g.n, -1, dtype=np.int32) if parents else None
    frontier = _unique(np.fromiter(map(int, seeds), dtype=np.int64))
    levels[frontier] = 0
    size = len(frontier)
    r = 0
    while len(frontier):
        if radius is not None and r >= radius:
            break
        if stop_size is not None and size >= stop_size:
            break
        if target is not None and levels[target] >= 0:
            break
        frontier, src = _layer_step(g, frontier, levels, blocked, parents)
        r += 1
        levels[frontier] = r
        if parents:
            parent[frontier] = src
        size += len(frontier)
    return levels, parent


def bfs_levels(
    g: Graph,
    seeds: Iterable[int],
    avoid: Iterable[int] = (),
    radius: Optional[int] = None,
    stop_size: Optional[int] = None,
) -> np.ndarray:
    """BFS distance array from a seed set, restricted to ``V - avoid``.

    Returns an ``int32`` array with -1 for unreached vertices.  Growth stops
    after ``radius`` layers or once the visited count reaches ``stop_size``
    (the current layer is always completed, never truncated mid-layer).
    """
    seeds = list(map(int, seeds))
    blocked = _mask(g.n, avoid)
    if blocked[seeds].any():
        raise ValueError("seed inside avoid set")
    return _bfs(g, seeds, blocked, radius=radius, stop_size=stop_size)[0]


def bfs_parents(
    g: Graph,
    seeds: Iterable[int],
    avoid: Iterable[int] = (),
    radius: Optional[int] = None,
    target: Optional[int] = None,
    allowed: Optional[set] = None,
    stop_size: Optional[int] = None,
) -> tuple:
    """Layered BFS with smallest-id parent assignment.

    Each vertex's parent is the smallest-id vertex of the previous layer
    adjacent to it.  If ``target`` is given the search stops once it is
    reached (after finishing the layer); ``stop_size`` stops growth once that
    many vertices are visited (layers are never truncated mid-way).
    ``allowed``, when given, restricts the walk to that vertex set (seeds
    included implicitly).  Returns ``(levels, parents)`` arrays: ``int32``
    levels with -1 for unreached vertices, and parents with -1 at the seeds
    and unreached vertices; :func:`trace_path` reads a path off ``parents``.
    """
    blocked = _mask(g.n, avoid)
    if allowed is not None:
        blocked |= ~_mask(g.n, allowed)
    return _bfs(g, seeds, blocked, radius=radius, stop_size=stop_size, target=target,
                parents=True)


def trace_path(parents: np.ndarray, end: int) -> list:
    out = [int(end)]
    while parents[out[-1]] >= 0:
        out.append(int(parents[out[-1]]))
    out.reverse()
    return out


def reached_in_order(levels: np.ndarray) -> np.ndarray:
    """The vertices a BFS reached, ordered by (level, id)."""
    reached = np.flatnonzero(levels >= 0)
    return reached[np.argsort(levels[reached], kind="stable")]


def first_exit(g: Graph, levels: np.ndarray, targets: Iterable[int],
               max_level: Optional[int] = None) -> Optional[tuple]:
    """Earliest reached vertex adjacent to ``targets``.

    Returns ``(level, u, w)`` for the reached vertex ``u`` of smallest
    (level, id) with level at most ``max_level`` that has a neighbor in
    ``targets``, and ``w`` its smallest-id such neighbor; None if there is
    none.  The scan gathers the targets' neighbor rows, so its cost follows
    the targets, not the ball.
    """
    targets = _unique(np.fromiter(map(int, targets), dtype=np.int64))
    if not len(targets):
        return None
    flat, counts = _gather(g, targets)
    lv = levels[flat]
    ok = lv >= 0
    if max_level is not None:
        ok &= lv <= max_level
    if not ok.any():
        return None
    lv, u, w = lv[ok], flat[ok], np.repeat(targets, counts)[ok]
    best = np.lexsort((w, u, lv))[0]
    return int(lv[best]), int(u[best]), int(w[best])


def eccentricity_within(g: Graph, members: Iterable[int], v: int) -> Optional[int]:
    """Eccentricity of ``v`` in G[members], or None if a BFS from ``v``
    inside ``members`` visits fewer than ``len(members)`` vertices."""
    members = {int(u) for u in members}
    levels, _ = _bfs(g, [v], ~_mask(g.n, members))
    if int(np.count_nonzero(levels >= 0)) != len(members):
        return None
    return int(levels.max())


def set_radius_center(g: Graph, s: Iterable[int]) -> tuple:
    """Center vertex and radius of the induced subgraph G[s].

    Returns ``(v, r)`` where ``v`` minimizes the eccentricity within ``G[s]``
    and ``r`` is that eccentricity; ties broken by smallest vertex id.
    Raises if ``G[s]`` is not connected.
    """
    s = sorted({int(v) for v in s})
    if not s:
        raise ValueError("empty set")
    best = None
    for v in s:
        ecc = eccentricity_within(g, s, v)
        if ecc is None:
            raise ValueError("set not connected")
        if best is None or ecc < best[1]:
            best = (v, ecc)
    return best


def is_connected_set(g: Graph, s: Iterable[int]) -> bool:
    s = {int(v) for v in s}
    return bool(s) and eccentricity_within(g, s, min(s)) is not None


def consecutive_shortest_paths(
    g: Graph, v: int, domain: Iterable[int], targets: Sequence[int]
) -> tuple:
    """Shortest paths from ``v`` to each target, each avoiding all earlier ones.

    Path i is shortest from ``v`` to ``targets[i]`` inside
    ``domain - (P_1 | ... | P_{i-1}) + v``.  Returns ``(paths, failed_index)``
    where ``failed_index`` is None when every target was reached, else the
    index of the first unreachable target (``paths`` then holds the prefix).
    """
    v = int(v)
    domain = {int(x) for x in domain}
    if v not in domain:
        raise ValueError("origin not in domain")
    for t in targets:
        if int(t) not in domain:
            raise ValueError(f"target {t} not in domain")
    used = set()
    paths = []
    for i, t in enumerate(targets):
        t = int(t)
        allowed = (domain - used) | {v}
        if t not in allowed:
            return paths, i
        levels, parents = bfs_parents(g, [v], target=t, allowed=allowed)
        if levels[t] < 0:
            return paths, i
        p = Path(tuple(trace_path(parents, t)))
        paths.append(p)
        used.update(p.vertices)
    return paths, None


def induced_subgraph(g: Graph, s: Iterable[int]) -> InducedSubgraph:
    """Relabeled induced subgraph on ``s`` with its bijective id mapping.

    Ids are relabeled in increasing order; each edge comes from the row of its
    smaller end, as a kept neighbor with a larger new id.
    """
    keep = _unique(s.astype(np.int64) if isinstance(s, np.ndarray)
                   else np.fromiter(map(int, s), dtype=np.int64))
    if not len(keep):
        raise ValueError("empty set")
    for v in (int(keep[0]), int(keep[-1])):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    relab = np.full(g.n, -1, dtype=np.int64)
    relab[keep] = np.arange(len(keep))
    flat, counts = _gather(g, keep)
    owner = relab[np.repeat(keep, counts)]
    new = relab[flat]
    up = new > owner
    sub = Graph(len(keep), np.column_stack((owner[up], new[up])))
    new_to_old = keep.tolist()
    return InducedSubgraph(sub, tuple(new_to_old), dict(zip(new_to_old, range(len(keep)))))


# -- text formats -------------------------------------------------------------


def parse_graph_text(text: str) -> Graph:
    """Parse a graph from edge-list or DIMACS text.

    Edge-list lines are ``u v`` (0-based, whitespace separated, ``#``
    comments).  DIMACS uses ``p edge n m`` / ``e u v`` lines (1-based).
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith(("#", "c ")) and ln != "c"]
    if not lines:
        return Graph(0)
    if lines[0].startswith("p "):
        return _parse_dimacs(lines)
    edges = []
    top = -1
    for ln in lines:
        parts = ln.split()
        if len(parts) < 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError("edge-list vertices must be non-negative")
        edges.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1, edges)


def _parse_dimacs(lines: list) -> Graph:
    header = lines[0].split()
    if len(header) < 4 or header[0] != "p":
        raise ValueError(f"bad DIMACS header: {lines[0]!r}")
    n = int(header[2])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "e":
            continue
        u, v = int(parts[1]) - 1, int(parts[2]) - 1
        edges.append((u, v))
    return Graph(n, edges)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def to_edge_list_text(g: Graph) -> str:
    out = [f"# n = {g.n}, m = {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
