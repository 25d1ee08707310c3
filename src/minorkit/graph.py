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
previous layer adjacent to it.  There is one traversal of each kind:

* one whole-graph BFS (:func:`bfs_levels`) expands whole layers through a
  boolean blocked mask; ``bfs_parents`` is the same function under a
  second name, which the benchmark's tracer times apart, so path searches
  show on their own;
* one set-local BFS (:func:`bfs_within`) walks only the edges inside a
  small vertex set, at a cost that follows the set's volume, not n: the
  scaffold paths, set trimming and the verifiers' connectivity and radius
  checks run on it;
* one bit-parallel layer step (:func:`multi_step`) advances many
  whole-graph searches by one layer at once, each owning one bit of a
  per-vertex word; it pushes from a small frontier and otherwise pulls row
  chunk by row chunk through one cache-sized buffer that each search makes
  once (:func:`_pull_rows`).  :func:`bfs_layer_sizes` reports each search's
  layer sizes with it, and ``routing.BallFamily`` grows a hub round's balls
  with it.

Every pass over the whole CSR (a pull, an induced subgraph) works in row
chunks of about ``_PULL_CHUNK`` entries, so its temporaries stay the size
of a chunk, not of the graph's 2m entries.

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
        u, v = pairs[:, 0], pairs[:, 1]
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
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
    """Rows from one in-place sort of both directions' keys ``u * n + v``
    (32-bit while n * n fits); a key equal to the one before repeats an edge."""
    key = np.empty((2, len(pairs)), dtype=np.uint32 if n <= 2**16 else np.int64)
    for half, (a, b) in zip(key, ((0, 1), (1, 0))):
        np.add(np.multiply(pairs[:, a], n, out=half, casting="unsafe"), pairs[:, b], out=half, casting="unsafe")
    key = key.reshape(-1)
    key.sort()
    new = _first_of_runs(key)
    key = key if new.all() else key[new]
    indptr = np.append(np.searchsorted(key, np.arange(n, dtype=key.dtype) * n), len(key))
    return indptr, np.remainder(key, n, out=key).astype(np.int32)


def _first_of_runs(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one before."""
    return np.concatenate((a[:1] == a[:1], a[1:] != a[:-1]))


def _unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, by sort and flag: numpy
    2.x's ``np.unique`` hashes integers first, about 50 times slower than a
    sort on 656k edge keys.
    """
    a = np.sort(a)
    return a[_first_of_runs(a)]


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
    """Concatenated neighbor rows of ``vertices`` and the length of each row.

    ``vertices`` is bounds-checked by the ``indptr`` lookups.  The entry
    offsets, taken from ``indptr``, are in range, so they are read
    unchecked (``mode="clip"``).  They stay ``intp``: ``take`` would copy
    narrower offsets to ``intp`` first.
    """
    starts = g._indptr[vertices]
    counts = g._indptr[vertices + 1] - starts
    offs = (starts - (counts.cumsum() - counts)).repeat(counts)
    offs += np.arange(len(offs))
    return np.take(g._indices, offs, mode="clip"), counts


def _row_chunks(ends: np.ndarray) -> list:
    """Bounds ``[0, ..., len(ends)]`` that cut rows, whose entries end at the
    ascending ``ends`` (the first starting at 0), into runs of at most
    ``_PULL_CHUNK`` entries; a longer row is a run of its own."""
    bounds = [0]
    base = 0
    while bounds[-1] < len(ends):
        a = bounds[-1]
        b = max(int(np.searchsorted(ends, base + _PULL_CHUNK, side="right")), a + 1)
        bounds.append(b)
        base = int(ends[b - 1])
    return bounds


def bfs_levels(
    g: Graph,
    seeds: Iterable[int],
    avoid: Iterable[int] = (),
    radius: Optional[int] = None,
    stop_size: Optional[int] = None,
    target=None,
) -> np.ndarray:
    """Layered BFS from ``seeds`` through ``V - avoid``: the one whole-graph BFS.

    ``avoid`` is vertex ids, or a length-n boolean mask, which is read as it
    is and never copied or changed, so many searches can share one.  Seeds
    are visited even when they are avoided.  Growth stops after ``radius``
    layers, once ``stop_size`` vertices are visited or once ``target`` (a
    vertex, or an array of vertices of which any one will do) is visited,
    always between whole layers.  Returns ``int32`` levels with -1 for
    unreached vertices, which :func:`walk_down` reads paths off.  A search
    confined to a small vertex set is :func:`bfs_within`'s job.
    """
    blocked = avoid if isinstance(avoid, np.ndarray) and avoid.dtype == bool else _mask(g.n, avoid)
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
        flat, _ = _gather(g, frontier)
        frontier = _unique(flat[(levels[flat] < 0) & ~blocked[flat]])
        r += 1
        levels[frontier] = r
        size += len(frontier)
    return levels


# the benchmark's tracer wraps this name apart from ``bfs_levels``, so path
# searches that call it are timed on their own
bfs_parents = bfs_levels


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
    pull = _pull_rows(g, 1, np.uint64)
    out = []
    for lo in range(0, len(seeds), 64):
        chunk = seeds[lo:lo + 64]
        bit = np.left_shift(np.uint64(1), np.arange(len(chunk), dtype=np.uint64))
        verts, words = _or_by_vertex(chunk, bit[None])  # a repeated seed gets a bit per copy
        closed = np.zeros((1, g.n), dtype=np.uint64)
        closed[:, verts] = words
        sizes = [np.ones(len(chunk), dtype=np.int64)]
        while True:
            verts, words = multi_step(g, pull, verts, words, closed)
            if not len(verts):
                break
            closed[:, verts] |= words
            sizes.append(_bit_counts(words[0], len(chunk)))
        # a seed's sizes are non-zero up to its last layer and zero after it
        for col in np.array(sizes).T:
            out.append(col[:np.count_nonzero(col)])
    return out


# row v holds the 8 bits of the byte v, lowest first
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.int64)


def _bit_counts(words: np.ndarray, bits: int) -> np.ndarray:
    """For each of the low ``bits`` bits, how many ``uint64`` words set it:
    one ``bincount`` per byte, mapped through the byte-to-bits table."""
    by_byte = words.astype("<u8").view(np.uint8).reshape(-1, 8)
    nbytes = -(-bits // 8)
    hist = np.stack([np.bincount(by_byte[:, j], minlength=256) for j in range(nbytes)])
    return (hist @ _BYTE_BITS).reshape(-1)[:bits]


# row entries per pull chunk: a chunk's gathered words stay in cache
_PULL_CHUNK = 1 << 16


class _Pull(NamedTuple):
    """What a :func:`multi_step` pull reads, made once per search.

    ``rows`` are the vertices with neighbors (``reduceat`` reads an empty
    row as its next entry, and a vertex of degree 0 never gains a bit
    anyway).  ``chunks`` holds ``(a, b, e0, e1)``: rows ``a:b`` own the row
    entries ``e0:e1``.  ``starts[j]`` is where row j starts within its
    chunk, and ``buf`` holds one chunk's gathered words.
    """

    rows: np.ndarray
    chunks: list
    starts: np.ndarray
    buf: np.ndarray


def _pull_rows(g: Graph, words: int, dtype) -> _Pull:
    """The rows, chunks and buffer of a pull over ``(words, n)`` arrays of ``dtype``."""
    rows = np.flatnonzero(np.diff(g._indptr))
    starts = g._indptr[rows]
    ends = g._indptr[rows + 1]
    bounds = _row_chunks(ends)
    chunks = []
    for a, b in zip(bounds, bounds[1:]):
        e0, e1 = int(starts[a]), int(ends[b - 1])
        starts[a:b] -= e0
        chunks.append((a, b, e0, e1))
    width = max((e1 - e0 for _a, _b, e0, e1 in chunks), default=0)
    return _Pull(rows, chunks, starts, np.empty(words * width, dtype=dtype))


def multi_step(g: Graph, pull: _Pull, verts: np.ndarray, words: np.ndarray,
               closed: np.ndarray) -> tuple:
    """One layer of a bit-parallel BFS: many searches, one bit each.

    The frontier is ``verts`` (ascending) with their ``(words, len(verts))``
    bits; ``closed`` is a ``(words, n)`` array of the bits each vertex may
    no longer gain (visited or blocked).  When the frontier's rows hold
    under an eighth of the graph's 2m row entries the step pushes: it
    gathers those rows and ORs each reached neighbor's words.  Otherwise it
    pulls, chunk by chunk of ``pull`` (from :func:`_pull_rows`): it gathers
    the frontier words of a chunk's row entries into the search's one
    buffer, and each row ORs its share in one ``bitwise_or.reduceat``.
    Either way it returns the vertices that gained a bit, ascending, and
    those bits as a ``(words, len(new))`` array; the caller adds them to
    ``closed``.
    """
    volume = int((g._indptr[verts + 1] - g._indptr[verts]).sum())
    if 8 * volume < len(g._indices):
        flat, counts = _gather(g, verts)
        pushed = np.repeat(words, counts, axis=1)
        shut = np.take(closed, flat, axis=1, mode="clip")
        pushed &= np.invert(shut, out=shut)
        keep = pushed.any(axis=0)
        return _or_by_vertex(flat[keep], pushed[:, keep])
    frontier = np.zeros_like(closed)
    frontier[:, verts] = words
    nwords = len(closed)
    pulled = np.empty((nwords, len(pull.rows)), dtype=closed.dtype)
    for a, b, e0, e1 in pull.chunks:
        # a contiguous (words, e1 - e0) view, so ``take`` writes it in place
        gathered = pull.buf[:nwords * (e1 - e0)].reshape(nwords, e1 - e0)
        np.take(frontier, g._indices[e0:e1], axis=1, out=gathered, mode="clip")
        np.bitwise_or.reduceat(gathered, pull.starts[a:b], axis=1, out=pulled[:, a:b])
    pulled &= ~np.take(closed, pull.rows, axis=1)
    hit = np.flatnonzero(pulled.any(axis=0))
    return pull.rows[hit], np.take(pulled, hit, axis=1)


def _or_by_vertex(targets: np.ndarray, words: np.ndarray) -> tuple:
    """The distinct ``targets``, ascending, and the OR of each one's words:
    one sort, then one ``bitwise_or.reduceat`` over each target's run."""
    if not len(targets):
        return targets, words
    order = np.argsort(targets)
    targets = targets[order]
    starts = np.flatnonzero(_first_of_runs(targets))
    return targets[starts], np.bitwise_or.reduceat(words[:, order], starts, axis=1)


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


def first_exit(g: Graph, level_of, targets: Iterable[int]) -> Optional[tuple]:
    """Earliest reached vertex adjacent to ``targets``.

    ``level_of`` maps an id array to levels, -1 where unreached:
    ``levels.__getitem__`` for a whole-graph BFS, or :func:`within_levels`
    for :func:`bfs_within`'s.  Returns ``(level, u, w)`` for the reached
    vertex ``u`` of smallest (level, id) that has a neighbor in ``targets``,
    and ``w`` its smallest-id such neighbor; None if there is none.  The scan
    gathers the targets' neighbor rows, so its cost follows the targets, not
    the ball.
    """
    targets = _unique(np.fromiter(map(int, targets), dtype=np.int64))
    if not len(targets):
        return None
    flat, counts = _gather(g, targets)
    lv = level_of(flat)
    ok = lv >= 0
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
    ``(level, u, w)`` or None, by one pass over the levels, counting only
    exits at level ``max_level`` or below."""
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
    the parent CSR and relabeling them leaves every row sorted.  The kept
    rows are gathered and relabeled chunk by chunk of about ``_PULL_CHUNK``
    entries into one int32 output, sized by the kept rows' entries, so the
    temporaries are a chunk's size.
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
    # the kept rows' entries bound the kept ones
    ends = np.cumsum(g._indptr[keep + 1] - g._indptr[keep])
    indices = np.empty(int(ends[-1]), dtype=np.int32)
    indptr = np.zeros(len(keep) + 1, dtype=np.int64)
    pos = 0
    bounds = _row_chunks(ends)
    for a, b in zip(bounds, bounds[1:]):
        new = np.take(relab, _gather(g, keep[a:b])[0], mode="clip")
        inside = np.flatnonzero(new >= 0)
        # row i of the subgraph ends where row i of the gather ends, counting kept entries
        indptr[a + 1:b + 1] = pos + inside.searchsorted(ends[a:b] - (ends[a - 1] if a else 0))
        np.take(new, inside, out=indices[pos:pos + len(inside)], mode="clip")
        pos += len(inside)
        del new, inside  # so the next chunk's temporaries replace these
    # a view keeps the dropped entries' room, so copy out when that is most of
    # it; shrinking in place (``ndarray.resize``) fragments the heap
    indices = indices[:pos] if 2 * pos >= len(indices) else indices[:pos].copy()
    sub = Graph(len(keep), csr=(indptr, indices))
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
