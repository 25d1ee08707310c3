"""Shared machinery for the staged constructions: interleaved ball growth
around many seed sets until a common hub vertex appears, chain recovery from
the balls' round records, distance-based trimming, and two-phase path
routing that enters a target set exactly once.

Everything here is deterministic; all tie-breaks are by smallest vertex id.
The balls of a hub round grow together, bit-parallel: ball k owns bit k of a
per-vertex word (more words beyond 64 balls), and one round advances every
ball by one BFS layer.  A round whose frontier rows hold under an eighth of
the graph's 2m row entries pushes (it gathers those rows, sorts the
neighbors they reach and ORs each one's words in one
``bitwise_or.reduceat``); any other round pulls (every row ORs its
neighbors' frontier words in one ``bitwise_or.reduceat``), following
Beamer, Asanović and Patterson's direction-optimizing BFS (SC 2012) and Then
et al.'s multi-source BFS (PVLDB 2014).  Every ball reaches the vertices, at
the levels, that a BFS of that ball alone would.  Scaffold paths and
trimming run on :func:`graph.bfs_within`, whose cost follows the scaffold,
not n.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import (
    Graph,
    Path,
    _gather,
    _mask,
    _pull,
    _pull_rows,
    bfs_parents,  # unused here; kept so the benchmark's tracer can wrap routing.bfs_parents
    bfs_within,
    first_exit_within,
    reached_in_order,
    trace_path,
)


class BallFamily:
    """Interleaved BFS balls around several seed sets, grown together.

    Ball k, the one of the k-th smallest index, owns bit ``k % 64`` of word
    ``k // 64`` of every vertex.  ``_closed`` holds, per vertex, the bits of
    the balls that reached it or may not enter it (``avoid_common`` blocks
    every ball, ``avoid_extra[i]`` ball ``i``).  One round advances every
    ball by one BFS layer at once, so a round costs what the union of the
    frontiers touches, not one pass per ball.  Round r's record holds the
    vertices some ball first reached in it, with either their words or each
    ball's share of them (:meth:`_add`), so a ball's BFS levels are read off
    the records (:meth:`reached_at`) and equal those of a BFS of that ball
    alone.  The records take at most 4 bytes per vertex a ball reached and
    ``_closed`` at most 1 byte per vertex and ball: within the 5 bytes per
    vertex and ball of a per-ball level array and blocked mask, plus one
    8-byte offset per ball for each round stored ball by ball.
    """

    def __init__(self, g: Graph, seed_sets: dict, avoid_common=(), avoid_extra=None):
        self.g = g
        self.indices = sorted(seed_sets)
        count = len(self.indices)
        # the narrowest unsigned type that holds a bit for each ball, 64 bits
        # per word beyond 64 balls
        dtype = np.min_scalar_type((1 << min(count, 64)) - 1)
        self._slots = {i: (k, k >> 6, dtype.type(1 << (k & 63))) for k, i in enumerate(self.indices)}
        every = np.zeros((max(1, -(-count // 64)), 1), dtype=dtype)
        for _k, word, bit in self._slots.values():
            every[word] |= bit
        self._closed = np.zeros((len(every), g.n), dtype=dtype)
        self._closed[:, np.fromiter(map(int, avoid_common), dtype=np.int64)] = every
        seeds, words = [np.empty(0, dtype=np.int64)], [np.empty((len(every), 0), dtype=dtype)]
        for i, (_k, word, bit) in self._slots.items():
            extra = np.fromiter(map(int, (avoid_extra or {}).get(i, ())), dtype=np.int64)
            self._closed[word, extra] |= bit
            own = np.fromiter(map(int, seed_sets[i]), dtype=np.int64)
            if (self._closed[word, own] & bit).any():
                raise ValueError(f"seed of ball {i} lies in its avoid set")
            seeds.append(own)
            words.append(np.zeros((len(every), len(own)), dtype=dtype))
            words[-1][word] = bit
        self.coverage = np.zeros(g.n, dtype=np.int16)
        self.sizes = dict.fromkeys(self.indices, 0)
        self._rounds = []
        self._rows = None
        self._frontier = _or_by_vertex(np.concatenate(seeds), np.concatenate(words, axis=1))
        self._add(*self._frontier)
        self.radius = 0

    def _add(self, new: np.ndarray, fresh: np.ndarray) -> None:
        """Record one round: ``fresh[:, j]`` holds the balls that first
        reached ``new[j]`` in it.

        The record keeps whichever form takes fewer bytes: ``new`` with its
        words, or each ball's reached vertices in turn with one offset per
        ball.  Either takes at most 4 bytes per vertex a ball reached.
        """
        self._closed[:, new] |= fresh
        bits = _bit_rows(fresh, len(self.indices))
        self.coverage[new] += bits.sum(axis=0, dtype=np.int16)
        counts = np.count_nonzero(bits, axis=1)
        for i, (k, _word, _bit) in self._slots.items():
            self.sizes[i] += int(counts[k])
        if 4 * int(counts.sum()) < (4 + fresh.itemsize * len(fresh)) * len(new):
            ball, pos = np.nonzero(bits)  # ball-major, each ball's vertices ascending
            offsets = np.searchsorted(ball, np.arange(len(counts) + 1))
            self._rounds.append((new[pos].astype(np.int32), None, offsets))
        else:
            self._rounds.append((new.astype(np.int32), fresh, None))

    def grow_round(self) -> bool:
        """Advance every ball by one BFS layer.  True if any grew.

        A round pushes when the frontier's rows hold under an eighth of the
        graph's 2m row entries: it gathers those rows, sorts the neighbors
        they reach and ORs each one's words.  Otherwise it pulls
        (:func:`graph._pull`): every row ORs its neighbors' frontier words
        in one ``bitwise_or.reduceat``.
        """
        g = self.g
        verts, words = self._frontier
        if not len(verts):
            return False
        volume = int((g._indptr[verts + 1] - g._indptr[verts]).sum())
        if 8 * volume < len(g._indices):
            flat, counts = _gather(g, verts)
            pushed = np.repeat(words, counts, axis=1) & ~np.take(self._closed, flat, axis=1)
            keep = pushed.any(axis=0)
            new, fresh = _or_by_vertex(flat[keep], pushed[:, keep])
        else:
            if self._rows is None:
                self._rows = _pull_rows(g)
            frontier = np.zeros_like(self._closed)
            frontier[:, verts] = words
            new, fresh = _pull(g, self._rows, frontier, self._closed)
        self._frontier = (new, fresh)
        if not len(new):
            return False
        self._add(new, fresh)
        self.radius += 1
        return True

    def level_at(self, i, v: int) -> int:
        """Ball ``i``'s BFS level at vertex ``v``, -1 if it did not reach it."""
        v = np.array([v])
        for r in range(len(self._rounds)):
            if self.reached_at(i, r, v)[0]:
                return r
        return -1

    def reached_at(self, i, r: int, ids: np.ndarray) -> np.ndarray:
        """Which of ``ids`` ball ``i`` reached in round ``r``, that is, lie
        at BFS distance exactly r from its seeds (a boolean array)."""
        k, word, bit = self._slots[i]
        verts, fresh, offsets = self._rounds[r]
        if offsets is not None:
            verts = verts[offsets[k]:offsets[k + 1]]
        if not len(verts):
            return np.zeros(len(ids), dtype=bool)
        pos = np.minimum(verts.searchsorted(ids), len(verts) - 1)
        if fresh is None:
            return verts[pos] == ids
        return (verts[pos] == ids) & ((fresh[word, pos] & bit) != 0)

    def best_hub(self, forbid_mask=None) -> tuple:
        """Vertex covered by the most balls (smallest id on ties) and its count.

        ``forbid_mask`` (boolean array) removes vertices from consideration.
        """
        if forbid_mask is None:
            hub = int(np.argmax(self.coverage))
            return hub, int(self.coverage[hub])
        masked = np.where(forbid_mask, np.int16(-1), self.coverage)
        hub = int(np.argmax(masked))
        return hub, int(masked[hub])

    def covered_indices(self, v: int) -> list:
        return [i for i in self.indices if self.level_at(i, v) >= 0]


def _or_by_vertex(targets: np.ndarray, words: np.ndarray) -> tuple:
    """The distinct ``targets``, ascending, and the OR of each one's words:
    one sort, then one ``bitwise_or.reduceat`` over each target's run."""
    if not len(targets):
        return targets, words
    order = np.argsort(targets)
    targets = targets[order]
    starts = np.flatnonzero(np.diff(targets, prepend=targets[:1] - 1))
    return targets[starts], np.bitwise_or.reduceat(words[:, order], starts, axis=1)


def _bit_rows(words: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` bits of each column of ``words``, a ``(words, c)``
    array whose bit k is bit ``k % 64`` of word ``k // 64``, as a
    ``(count, c)`` boolean array: row k holds bit k of every column."""
    rows = np.empty((count, words.shape[1]), dtype=bool)
    for k, row in enumerate(rows):
        np.not_equal(words[k >> 6] & words.dtype.type(1 << (k & 63)), 0, out=row)
    return rows


def grow_balls_to_common_hub(
    g: Graph,
    seed_sets: dict,
    avoid_common=(),
    avoid_extra=None,
    radius_cap: Optional[int] = None,
    size_cap: Optional[int] = None,
    forbid=None,
) -> tuple:
    """Grow balls until some vertex lies in all of them (or growth is exhausted).

    Stops at full coverage, frontier exhaustion, the radius cap, or once every
    ball reached ``size_cap``.  Returns ``(hub, covered_indices, family)``;
    ``hub`` is the best-covered vertex even when full coverage was not
    reached (the caller decides whether the coverage is good enough).
    Vertices in ``forbid`` are never chosen as the hub (they may still be
    walked through where the per-ball avoid sets allow it).
    """
    fam = BallFamily(g, seed_sets, avoid_common, avoid_extra)
    mask = _mask(g.n, forbid) if forbid is not None and len(forbid) else None
    want = len(fam.indices)
    while True:
        hub, cov = fam.best_hub(mask)
        if cov >= want:
            break
        if radius_cap is not None and fam.radius >= radius_cap:
            break
        if size_cap is not None and all(fam.sizes[i] >= size_cap for i in fam.indices):
            break
        if not fam.grow_round():
            break
    hub, cov = fam.best_hub(mask)
    if cov <= 0:
        return hub, [], fam
    return hub, fam.covered_indices(hub), fam


def backtrack_chain(fam: BallFamily, i, end: int) -> list:
    """Walk ball ``i`` of ``fam`` from ``end`` down to a level-0 seed.

    Returns the chain ``[seed, ..., end]``; at each step the smallest-id
    neighbor one level down is taken, so chains are deterministic.  Each step
    reads one round's record at one neighbor row, so a chain costs what its
    rows hold, not n.
    """
    end = int(end)
    r = fam.level_at(i, end)
    if r < 0:
        raise ValueError("end vertex not reached by this ball")
    chain = [end]
    while r > 0:
        row = fam.g.neighbors(chain[-1])
        down = np.flatnonzero(fam.reached_at(i, r - 1, row))
        if not len(down):
            raise ValueError("broken ball records")
        chain.append(int(row[down[0]]))
        r -= 1
    chain.reverse()
    return chain


def trim_to_size(g: Graph, members, center: int, size: int) -> frozenset:
    """Keep the ``size`` closest vertices to ``center`` inside G[members].

    Order is (induced BFS distance, id); keeping a prefix preserves induced
    connectivity and can only shrink the radius.  Farthest vertices drop
    first, larger ids first on ties.
    """
    members = {int(v) for v in members}
    if center not in members:
        raise ValueError("center not in set")
    if size < 1:
        raise ValueError("size must be positive")
    verts, levels, _ = bfs_within(g, members, [center])
    ranked = verts[reached_in_order(levels)]
    if len(ranked) < size:
        raise ValueError("set too small to trim to requested size")
    return frozenset(ranked[:size].tolist())


def entry_path(
    g: Graph,
    scaffold,
    source: int,
    target_set,
    target_center: int,
    max_len: Optional[int] = None,
) -> Optional[Path]:
    """Path from ``source`` to ``target_center`` entering ``target_set`` once.

    Phase one walks inside ``scaffold`` minus the target set to the earliest
    (distance, id) vertex adjacent to the target set; phase two continues
    inside the target set to its center.  The result therefore splits into a
    contiguous part outside the set followed by a contiguous part inside it.
    """
    scaffold = {int(v) for v in scaffold}
    target_set = {int(v) for v in target_set}
    source = int(source)
    if source in target_set:
        return path_through_scaffold(g, target_set, source, target_center)
    verts, levels, parents = bfs_within(g, scaffold - target_set, [source])
    entry = first_exit_within(g, verts, levels, target_set)
    if entry is None:
        return None
    _r, u, w = entry
    outside = verts[trace_path(parents, int(np.searchsorted(verts, u)))]
    inside = path_through_scaffold(g, target_set, w, target_center)
    if inside is None:
        return None
    verts = tuple(outside.tolist()) + tuple(inside.vertices)
    if max_len is not None and len(verts) - 1 > max_len:
        return None
    return Path(verts)


def path_through_scaffold(g: Graph, scaffold, src: int, dst: int) -> Optional[Path]:
    """Shortest path from src to dst using only scaffold vertices (the
    endpoints are always allowed); None if there is none."""
    dst = int(dst)
    verts, levels, parents = bfs_within(g, {int(v) for v in scaffold} | {dst}, [src], target=dst)
    end = int(np.searchsorted(verts, dst))
    if levels[end] < 0:
        return None
    return Path(tuple(verts[trace_path(parents, end)].tolist()))
