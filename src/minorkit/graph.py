"""Immutable simple undirected graphs and the primitive set/BFS/path operations.

Vertices are dense integer ids ``0..n-1``.  ``Graph(n, edges)``, the one
constructor, takes an ``(m, 2)`` integer array or any iterable of pairs and
builds CSR adjacency (numpy arrays, each neighbor row sorted, so iteration
order is deterministic) with array operations only.  Graphs are immutable;
"deleting" vertices means masking and relabeling the CSR rows into an
induced subgraph that carries its id mapping.

Vertex sets are plain ``set``/``frozenset`` objects.  There are two
traversal paths over the CSR arrays, both deterministic:

* one BFS kernel (``_bfs``) with a boolean blocked mask serves every
  traversal that needs levels, members or parents: layers are expanded
  whole, and a vertex's parent is the smallest-id vertex of the previous
  layer adjacent to it;
* one bit-parallel multi-source BFS (:func:`bfs_layer_sizes`) runs up to 64
  whole-graph searches at once and reports only each search's layer sizes.

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
         stop_size: Optional[int] = None, target=None, parents: bool = False) -> tuple:
    """Layered BFS from ``seeds`` through unblocked vertices: the one BFS loop.

    Seeds are visited even when blocked.  Growth stops after ``radius``
    layers, once ``stop_size`` vertices are visited or once ``target`` (a
    vertex, or an array of vertices of which any one will do) is visited,
    always between whole layers.  Returns ``(levels, parents)``:
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
        if target is not None and (levels[target] >= 0).any():
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


def bfs_layer_sizes(g: Graph, seeds: Sequence[int]) -> list:
    """Layer sizes of a whole-graph BFS from each seed, computed together.

    Returns one ``int64`` array per seed whose entry r is the number of
    vertices at distance r from it: ``np.bincount`` of the reached part of
    ``bfs_levels(g, [seed])``.  Bit-parallel multi-source BFS: seeds run in
    chunks of 64, each vertex holds a ``uint64`` with one bit per seed, and
    one pull step ORs the frontier words of every row's neighbors, which
    advances every seed of the chunk by one layer.  Only sizes come out; a
    caller that needs a seed's members runs :func:`bfs_levels` for it.
    """
    seeds = np.fromiter(map(int, seeds), dtype=np.int64)
    # reduceat reads an empty row as its next entry, so pull only rows with
    # neighbors; vertices of degree 0 never gain a bit anyway
    rows = np.flatnonzero(g.degrees())
    starts = g._indptr[rows]
    out = []
    for lo in range(0, len(seeds), 64):
        chunk = seeds[lo:lo + 64]
        frontier = np.zeros(g.n, dtype=np.uint64)
        bit = np.left_shift(np.uint64(1), np.arange(len(chunk), dtype=np.uint64))
        np.bitwise_or.at(frontier, chunk, bit)  # a repeated seed gets a bit per copy
        visited = frontier.copy()
        sizes = [np.ones(len(chunk), dtype=np.int64)]
        while len(rows):
            pulled = np.bitwise_or.reduceat(frontier[g._indices], starts) & ~visited[rows]
            hit = np.flatnonzero(pulled)
            if not len(hit):
                break
            new, fresh = rows[hit], pulled[hit]
            frontier[:] = 0
            frontier[new] = fresh
            visited[new] |= fresh
            bits = np.unpackbits(fresh.astype("<u8").view(np.uint8), bitorder="little")
            sizes.append(bits.reshape(-1, 64)[:, :len(chunk)].sum(axis=0, dtype=np.int64))
        # a seed's sizes are non-zero up to its last layer and zero after it
        for col in np.array(sizes).T:
            out.append(col[:np.count_nonzero(col)])
    return out


def bfs_parents(
    g: Graph,
    seeds: Iterable[int],
    avoid: Iterable[int] = (),
    radius: Optional[int] = None,
    target=None,
    allowed: Optional[set] = None,
    stop_size: Optional[int] = None,
) -> tuple:
    """Layered BFS with smallest-id parent assignment.

    Each vertex's parent is the smallest-id vertex of the previous layer
    adjacent to it.  If ``target`` is given the search stops once it is
    reached, or for an array of vertices once any of them is (after
    finishing the layer); ``stop_size`` stops growth once that
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
    levels, _ = _bfs(g, [v], ~_mask(g.n, members))
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
