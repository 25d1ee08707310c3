"""Immutable simple undirected graphs and the primitive set/BFS/path operations.

Vertices are dense integer ids ``0..n-1``.  ``Graph(n, edges)``, the one
constructor, takes an ``(m, 2)`` integer array or any iterable of pairs and
builds CSR adjacency (numpy arrays, each neighbor row sorted, so iteration
order is deterministic) with array operations only.  Graphs are immutable;
"deleting" vertices means masking and relabeling the CSR rows into an
induced subgraph that carries its id mapping.

Vertex sets are plain ``set``/``frozenset`` objects.  Every traversal over
the CSR arrays is deterministic and returns BFS levels only, and one path
reader, :func:`walk_down`, reads every path off them: from a vertex at level
r it steps to the smallest-id neighbor at level r - 1, down to level 0.  So
on every path a vertex's predecessor is the smallest-id vertex of the
previous layer adjacent to it.  There are three traversals:

* one BFS kernel (``_bfs``) with a boolean blocked mask serves every
  traversal of the whole graph: layers are expanded whole;
* one set-local BFS (:func:`bfs_within`) walks only the edges inside a
  small vertex set, at a cost that follows the set's volume, not n: the
  scaffold paths, set trimming and the verifiers' connectivity and radius
  checks run on it;
* one bit-parallel layer step (:func:`multi_step`) advances many
  whole-graph searches by one layer at once, each owning one bit of a
  per-vertex word; it pushes from a small frontier and pulls over every row
  otherwise.  :func:`bfs_layer_sizes` reports each search's layer sizes
  with it, and ``routing.BallFamily`` grows a hub round's balls with it.

Thread-safety: ``Graph`` and ``Path`` never mutate after ``__init__`` and may
be shared freely across worker threads.
"""

from __future__ import annotations

import re
import warnings
from array import array
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

    def __init__(self, n: int, edges: Iterable = (), *, csr: Optional[tuple] = None):
        """``csr`` takes finished ``(indptr, indices)`` arrays in place of
        ``edges``: rows sorted, symmetric, no loops; they are not checked."""
        n = int(n)
        if not 0 <= n <= 2**31 - 1:
            raise ValueError(f"vertex count {n} outside 0..{2**31 - 1} (ids are int32)")
        self.n = n
        if csr is not None:
            self._indptr, self._indices = csr
            self.edge_count = len(self._indices) // 2
            return
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

    def edges(self):
        """Iterate edges as (u, v) with u < v, in lexicographic order."""
        u = np.repeat(np.arange(self.n), self.degrees())
        up = u < self._indices
        return zip(u[up].tolist(), self._indices[up].tolist())

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


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, by sort and flag: numpy
    2.x's ``np.unique`` hashes integers first, about 50 times slower than a
    sort on 656k edge keys.
    """
    a = np.sort(a)
    return a[np.diff(a, prepend=a[:1] - 1) != 0]


class InducedSubgraph(NamedTuple):
    """A relabeled induced subgraph plus its id mapping.

    ``new_to_old`` is a compact int32 ``array("i")``, strictly increasing:
    entry i is the parent id of subgraph vertex i.
    """

    graph: Graph
    new_to_old: array


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


# -- the BFS kernel -----------------------------------------------------------


def _mask(n: int, vertices: Iterable[int]) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(vertices, dtype=np.int64)] = True
    return mask


def _gather(g: Graph, vertices: np.ndarray) -> tuple:
    """Concatenated neighbor rows of ``vertices`` and the length of each row."""
    starts = g._indptr[vertices]
    counts = g._indptr[vertices + 1] - starts
    offs = (starts - (counts.cumsum() - counts)).repeat(counts)
    return g._indices[offs + np.arange(len(offs))], counts


def _layer_step(g: Graph, frontier: np.ndarray, levels: np.ndarray,
                blocked: np.ndarray) -> np.ndarray:
    """One BFS layer: the sorted unvisited, unblocked neighbors of ``frontier``."""
    flat, _ = _gather(g, frontier)
    return _unique(flat[(levels[flat] < 0) & ~blocked[flat]])


def _bfs(g: Graph, seeds: Iterable[int], blocked: np.ndarray, radius: Optional[int] = None,
         stop_size: Optional[int] = None, target=None) -> np.ndarray:
    """Layered BFS from ``seeds`` through unblocked vertices: the one BFS loop.

    Seeds are visited even when blocked.  Growth stops after ``radius``
    layers, once ``stop_size`` vertices are visited or once ``target`` (a
    vertex, or an array of vertices of which any one will do) is visited,
    always between whole layers.  Returns ``int32`` levels with -1 for
    unvisited vertices.
    """
    levels = np.full(g.n, -1, dtype=np.int32)
    frontier = _unique(np.fromiter(map(int, seeds), dtype=np.int64))
    levels[frontier] = 0
    size = len(frontier)
    r = 0
    while len(frontier):
        if radius is not None and r >= radius:
            break
        if stop_size is not None and size >= stop_size:
            break
        if target is not None and (levels[target] >= 0).any():
            break
        frontier = _layer_step(g, frontier, levels, blocked)
        r += 1
        levels[frontier] = r
        size += len(frontier)
    return levels


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
    return _bfs(g, seeds, blocked, radius=radius, stop_size=stop_size)


def bfs_layer_sizes(g: Graph, seeds: Sequence[int]) -> list:
    """Layer sizes of a whole-graph BFS from each seed, computed together.

    Returns one ``int64`` array per seed whose entry r is the number of
    vertices at distance r from it: ``np.bincount`` of the reached part of
    ``bfs_levels(g, [seed])``.  Bit-parallel multi-source BFS: seeds run in
    chunks of 64, each vertex holds a ``uint64`` with one bit per seed, and
    one :func:`multi_step` advances every seed of the chunk by one layer.
    Only sizes come out; a caller that needs a seed's members runs
    :func:`bfs_levels` for it.
    """
    seeds = np.fromiter(map(int, seeds), dtype=np.int64)
    rows = _pull_rows(g)
    out = []
    for lo in range(0, len(seeds), 64):
        chunk = seeds[lo:lo + 64]
        bit = np.left_shift(np.uint64(1), np.arange(len(chunk), dtype=np.uint64))
        verts, words = _or_by_vertex(chunk, bit[None])  # a repeated seed gets a bit per copy
        closed = np.zeros((1, g.n), dtype=np.uint64)
        closed[:, verts] = words
        sizes = [np.ones(len(chunk), dtype=np.int64)]
        while True:
            verts, words = multi_step(g, rows, verts, words, closed)
            if not len(verts):
                break
            closed[:, verts] |= words
            bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
            sizes.append(bits.reshape(-1, 64)[:, :len(chunk)].sum(axis=0, dtype=np.int64))
        # a seed's sizes are non-zero up to its last layer and zero after it
        for col in np.array(sizes).T:
            out.append(col[:np.count_nonzero(col)])
    return out


def _pull_rows(g: Graph) -> np.ndarray:
    """The vertices with neighbors, the rows a :func:`multi_step` pull reads:
    ``reduceat`` reads an empty row as its next entry, and a vertex of
    degree 0 never gains a bit anyway."""
    return np.flatnonzero(np.diff(g._indptr))


def multi_step(g: Graph, rows: np.ndarray, verts: np.ndarray, words: np.ndarray,
               closed: np.ndarray) -> tuple:
    """One layer of a bit-parallel BFS: many searches, one bit each.

    The frontier is ``verts`` (ascending) with their ``(words, len(verts))``
    bits; ``closed`` is a ``(words, n)`` array of the bits each vertex may
    no longer gain (visited or blocked).  When the frontier's rows hold
    under an eighth of the graph's 2m row entries the step pushes: it
    gathers those rows and ORs each reached neighbor's words.  Otherwise it
    pulls: each of ``rows`` (from :func:`_pull_rows`) ORs its neighbors'
    frontier words in one ``bitwise_or.reduceat``.  Either way it returns
    the vertices that gained a bit, ascending, and those bits as a
    ``(words, len(new))`` array; the caller adds them to ``closed``.
    """
    volume = int((g._indptr[verts + 1] - g._indptr[verts]).sum())
    if 8 * volume < len(g._indices):
        flat, counts = _gather(g, verts)
        pushed = np.repeat(words, counts, axis=1) & ~np.take(closed, flat, axis=1)
        keep = pushed.any(axis=0)
        return _or_by_vertex(flat[keep], pushed[:, keep])
    frontier = np.zeros_like(closed)
    frontier[:, verts] = words
    pulled = np.bitwise_or.reduceat(frontier[:, g._indices], g._indptr[rows], axis=1)
    pulled &= ~np.take(closed, rows, axis=1)
    hit = np.flatnonzero(pulled.any(axis=0))
    return rows[hit], np.take(pulled, hit, axis=1)


def _or_by_vertex(targets: np.ndarray, words: np.ndarray) -> tuple:
    """The distinct ``targets``, ascending, and the OR of each one's words:
    one sort, then one ``bitwise_or.reduceat`` over each target's run."""
    if not len(targets):
        return targets, words
    order = np.argsort(targets)
    targets = targets[order]
    starts = np.flatnonzero(np.diff(targets, prepend=targets[:1] - 1))
    return targets[starts], np.bitwise_or.reduceat(words[:, order], starts, axis=1)


def bfs_parents(
    g: Graph,
    seeds: Iterable[int],
    avoid: Iterable[int] = (),
    radius: Optional[int] = None,
    target=None,
    stop_size: Optional[int] = None,
) -> np.ndarray:
    """Layered BFS levels for a path search, which :func:`walk_down` reads.

    If ``target`` is given the search stops once it is reached, or for an
    array of vertices once any of them is (after finishing the layer);
    ``stop_size`` stops growth once that many vertices are visited (layers
    are never truncated mid-way).  Returns ``int32`` levels with -1 for
    unreached vertices, as :func:`bfs_levels` does; the name stays because
    ``perfbench/tracer.py`` times path searches under it.  A search confined
    to a small vertex set is :func:`bfs_within`'s job.
    """
    return _bfs(g, seeds, _mask(g.n, avoid), radius=radius, stop_size=stop_size, target=target)


def bfs_within(g: Graph, members: Iterable[int], seeds: Iterable[int],
               target: Optional[int] = None) -> tuple:
    """Layered BFS from ``seeds`` over the edges of G[members + seeds] only.

    Its cost follows the set's volume, not n: the set's CSR rows are
    gathered once and mapped to positions in ``verts``, the sorted array of
    the set's ids, and the layers are walked over those positions.  With
    ``target``, a vertex of the set, the walk stops once it is reached.
    Returns ``(verts, levels)``: ``levels[j]`` is the level of ``verts[j]``,
    -1 if unreached; :func:`within_levels` looks levels up by id.
    """
    seeds = set(map(int, seeds))
    ids = sorted(seeds.union(map(int, members)))
    verts = np.array(ids, dtype=np.int64)
    flat, counts = _gather(g, verts)
    pos = verts.searchsorted(flat)
    inside = verts[np.minimum(pos, len(verts) - 1)] == flat
    nbrs = [[] for _ in ids]  # in-set neighbor positions
    for u, w in zip(np.arange(len(ids)).repeat(counts)[inside].tolist(), pos[inside].tolist()):
        nbrs[u].append(w)
    level = [-1] * len(verts)
    frontier = verts.searchsorted(list(seeds)).tolist()
    for s in frontier:
        level[s] = 0
    stop = -1 if target is None else int(verts.searchsorted(int(target)))
    r = 0
    while frontier and (stop < 0 or level[stop] < 0):
        r += 1
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if level[w] < 0:
                    level[w] = r
                    nxt.append(w)
        frontier = nxt
    return verts, np.array(level, dtype=np.int32)


def within_levels(verts: np.ndarray, levels: np.ndarray):
    """The levels of :func:`bfs_within`'s ``(verts, levels)`` by vertex id:
    a function of an id array, -1 for ids outside the set."""
    def level_of(ids):
        pos = np.minimum(verts.searchsorted(ids), len(verts) - 1)
        return np.where(verts[pos] == ids, levels[pos], -1)
    return level_of


def walk_down(g: Graph, end: int, r: int, at_level) -> list:
    """The path ``[seed, ..., end]`` read off a BFS from ``end`` at level ``r``.

    Each step goes to the smallest-id neighbor that ``at_level(r - 1, row)``
    marks in the neighbor row ``row`` (a boolean array), down to level 0:
    the one rule by which minorkit picks a path's predecessor.  A
    whole-graph search passes ``lambda r, ids: levels[ids] == r``.  A path
    costs what its vertices' rows hold, not n.
    """
    path = [int(end)]
    for r in range(int(r) - 1, -1, -1):
        row = g.neighbors(path[-1])
        down = np.flatnonzero(at_level(r, row))
        if not len(down):
            raise ValueError(f"vertex {path[-1]} has no neighbor at level {r}")
        path.append(int(row[down[0]]))
    path.reverse()
    return path


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
    return _first_exit(g, levels.__getitem__, targets, max_level)


def first_exit_within(g: Graph, verts: np.ndarray, levels: np.ndarray,
                      targets: Iterable[int]) -> Optional[tuple]:
    """:func:`first_exit` for the set-local ``(verts, levels)`` of
    :func:`bfs_within`; its cost follows the targets and the set."""
    return _first_exit(g, within_levels(verts, levels), targets, None)


def _first_exit(g: Graph, level_of, targets: Iterable[int],
                max_level: Optional[int]) -> Optional[tuple]:
    targets = _unique(np.fromiter(map(int, targets), dtype=np.int64))
    if not len(targets):
        return None
    flat, counts = _gather(g, targets)
    lv = level_of(flat)
    ok = lv >= 0
    if max_level is not None:
        ok &= lv <= max_level
    if not ok.any():
        return None
    lv, u, w = lv[ok], flat[ok], np.repeat(targets, counts)[ok]
    level = lv.min()
    best = u[lv == level].min()
    return int(level), int(best), int(w[u == best].min())


def exit_map(g: Graph, targets: Iterable[int]) -> np.ndarray:
    """Each vertex's smallest-id neighbor in ``targets``, -1 where it has none.

    One gather of the targets' rows.  Many BFS trees that look for exits into
    the same targets share one map and read it with :func:`first_exit_on_map`.
    """
    targets = _unique(np.fromiter(map(int, targets), dtype=np.int64))
    out = np.full(g.n, g.n, dtype=np.int32)
    flat, counts = _gather(g, targets)
    np.minimum.at(out, flat, np.repeat(targets.astype(np.int32), counts))
    out[out == g.n] = -1
    return out


def first_exit_on_map(levels: np.ndarray, exits: np.ndarray,
                      max_level: Optional[int] = None) -> Optional[tuple]:
    """:func:`first_exit` read off ``exits = exit_map(g, targets)``: the same
    ``(level, u, w)`` or None, by one pass over the levels."""
    ok = (levels >= 0) & (exits >= 0)
    if max_level is not None:
        ok &= levels <= max_level
    reached = np.flatnonzero(ok)
    if not len(reached):
        return None
    u = int(reached[np.argmin(levels[reached])])  # the first minimum has the smallest id
    return int(levels[u]), u, int(exits[u])


def neighbor_counts(g: Graph, vertices: Iterable[int]) -> np.ndarray:
    """For each vertex, how many of its neighbors lie in ``vertices`` (distinct
    ids): one gather of their rows and a ``bincount``."""
    flat, _ = _gather(g, np.fromiter(map(int, vertices), dtype=np.int64))
    return np.bincount(flat, minlength=g.n)


def eccentricity_within(g: Graph, members: Iterable[int], v: int) -> Optional[int]:
    """Eccentricity of ``v`` in G[members], or None if a BFS from ``v``
    inside ``members`` visits fewer than ``len(members)`` vertices."""
    members = {int(u) for u in members}
    _verts, levels = bfs_within(g, members, [v])
    if int(np.count_nonzero(levels >= 0)) != len(members):
        return None
    return int(levels.max())


def is_connected_set(g: Graph, s: Iterable[int]) -> bool:
    s = {int(v) for v in s}
    return bool(s) and eccentricity_within(g, s, min(s)) is not None


def induced_subgraph(g: Graph, s: Iterable[int]) -> InducedSubgraph:
    """Relabeled induced subgraph on ``s`` with its id mapping.

    Ids are relabeled in increasing order, so slicing the kept rows out of
    the parent CSR and relabeling them leaves every row sorted.
    """
    keep = _unique(s.astype(np.int64) if isinstance(s, np.ndarray)
                   else np.fromiter(map(int, s), dtype=np.int64))
    if not len(keep):
        raise ValueError("empty set")
    for v in (int(keep[0]), int(keep[-1])):
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    relab = np.full(g.n, -1, dtype=np.int32)
    relab[keep] = np.arange(len(keep), dtype=np.int32)
    flat, counts = _gather(g, keep)
    new = relab[flat]
    inside = new >= 0
    # row i of the subgraph ends where row i of the gather ends, counting kept entries
    kept_before = np.concatenate(([0], np.cumsum(inside)))
    indptr = kept_before[np.concatenate(([0], np.cumsum(counts)))]
    sub = Graph(len(keep), csr=(indptr, new[inside]))
    return InducedSubgraph(sub, array("i", keep.astype(np.intc).tobytes()))


# -- text formats -------------------------------------------------------------

# a line whose first character is one of these holds an id, never a comment
_ID_START = frozenset("0123456789+-")
# every token numpy's int64 reader takes, before its range check
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _kept(line: str) -> bool:
    """False for a blank line and a ``#``, ``c`` or ``c ...`` comment."""
    s = line.strip()
    return s[:1] not in "#c" or s[:1] == "c" and s[1:2] not in " "


def parse_graph_text(text: str) -> Graph:
    """Parse a graph from edge-list or DIMACS text.

    Edge-list lines are ``u v`` (0-based, whitespace separated, ``#``
    comments).  DIMACS uses ``p edge n m`` / ``e u v`` lines (1-based).
    Blank lines and ``#``, ``c`` and ``c ...`` lines are skipped, columns
    after the ids are ignored, and the ids of all kept lines are read in
    one call of numpy's text reader.
    """
    lines = [ln for ln in text.splitlines() if ln[:1] in _ID_START or _kept(ln)]
    if not lines:
        return Graph(0)
    if lines[0].strip().startswith("p "):
        return _parse_dimacs(lines)
    pairs = _id_columns(lines, (0, 1), nonnegative=True)
    if pairs.min() < 0:
        raise ValueError("edge-list vertices must be non-negative")
    return Graph(int(pairs.max()) + 1, pairs)


def _parse_dimacs(lines: list) -> Graph:
    header = lines[0].split()
    if len(header) < 4 or header[0] != "p":
        raise ValueError(f"bad DIMACS header: {lines[0].strip()!r}")
    n = int(header[2])
    edges = [ln for ln in lines[1:] if ln.split(maxsplit=1)[0] == "e"]
    ids = _id_columns(edges, (1, 2), nonnegative=False)
    outside = (ids < 1) | (ids > n)
    if n >= 0 and outside.any():  # a negative count is Graph's to name
        row, col = divmod(int(np.argmax(outside)), 2)
        line = edges[row].strip()
        raise ValueError(f"DIMACS vertex id {line.split()[1 + col]} outside 1..{n} in line {line!r}")
    return Graph(n, ids - 1)


def _id_columns(lines: list, cols: tuple, nonnegative: bool) -> np.ndarray:
    """Columns ``cols`` of ``lines`` as an ``(m, 2)`` int64 array.

    On a tokeniser error the lines are rescanned only to name the first bad
    one: too few columns, a token ``int`` rejects (with its message), a
    negative id where ``nonnegative``, or an id that is not a decimal int64.
    """
    if not lines:
        return np.empty((0, 2), dtype=np.int64)
    try:
        with warnings.catch_warnings():
            # numpy releases that still read "1.0" as the int 1 warn with a
            # DeprecationWarning; reject the token as ``int`` does
            warnings.simplefilter("error", DeprecationWarning)
            return np.loadtxt(lines, dtype=np.int64, usecols=cols, ndmin=2, comments=None)
    except (ValueError, DeprecationWarning) as exc:
        error = exc
    for ln in map(str.strip, lines):
        parts = ln.split()
        if len(parts) <= cols[1]:
            raise ValueError(f"bad edge line: {ln!r}")
        ids = [parts[c] for c in cols]
        values = [int(tok) for tok in ids]
        if nonnegative and min(values) < 0:
            raise ValueError("edge-list vertices must be non-negative")
        for tok, value in zip(ids, values):
            if not _DECIMAL.fullmatch(tok) or not -2**63 <= value < 2**63:
                raise ValueError(f"vertex id {tok!r} is not a decimal int64 in line {ln!r}")
    raise ValueError(f"cannot read edge lines: {error}")


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


def to_edge_list_text(g: Graph) -> str:
    out = [f"# n = {g.n}, m = {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
