"""Shared machinery for the staged constructions: interleaved ball growth
around many seed sets until a common hub vertex appears, chain recovery from
the balls' round records, distance-based trimming, and two-phase path
routing that enters a target set exactly once.

Everything here is deterministic; all tie-breaks are by smallest vertex id,
and every chain and path is read off BFS levels by :func:`graph.walk_down`.
The balls of a hub round grow together, bit-parallel: ball k owns bit k of a
per-vertex word (more words beyond 64 balls), and one round advances every
ball by one BFS layer with :func:`graph.multi_step`, which pushes from a
small frontier and otherwise pulls row chunk by row chunk through one
cache-sized buffer that the family makes once, following Beamer,
Asanović and Patterson's direction-optimizing BFS (SC 2012) and Then et
al.'s multi-source BFS (PVLDB 2014).  Every ball reaches the vertices, at
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
    _mask,
    _or_by_vertex,
    _pull_rows,
    bfs_parents,  # unused here; kept so the benchmark's tracer can wrap routing.bfs_parents
    bfs_within,
    first_exit,
    multi_step,
    reached_in_order,
    walk_down,
    within_levels,
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
        self._pull = _pull_rows(g, len(every), dtype)
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
        """Advance every ball by one BFS layer (:func:`graph.multi_step`).
        True if any grew."""
        verts, words = self._frontier
        if not len(verts):
            return False
        self._frontier = multi_step(self.g, self._pull, verts, words, self._closed)
        if not len(self._frontier[0]):
            return False
        self._add(*self._frontier)
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

    Returns the chain ``[seed, ..., end]`` by :func:`graph.walk_down` over
    the ball's round records, so chains are deterministic and a chain costs
    what its rows hold, not n.
    """
    r = fam.level_at(i, end)
    if r < 0:
        raise ValueError("end vertex not reached by this ball")
    return walk_down(fam.g, end, r, lambda r, ids: fam.reached_at(i, r, ids))


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
    verts, levels = bfs_within(g, members, [center])
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
    verts, levels = bfs_within(g, scaffold - target_set, [source])
    level_of = within_levels(verts, levels)
    entry = first_exit(g, level_of, target_set)
    if entry is None:
        return None
    r, u, w = entry
    outside = walk_down(g, u, r, lambda r, ids: level_of(ids) == r)
    inside = path_through_scaffold(g, target_set, w, target_center)
    if inside is None:
        return None
    verts = tuple(outside) + tuple(inside.vertices)
    if max_len is not None and len(verts) - 1 > max_len:
        return None
    return Path(verts)


def path_through_scaffold(g: Graph, scaffold, src: int, dst: int) -> Optional[Path]:
    """Shortest path from src to dst using only scaffold vertices (the
    endpoints are always allowed); None if there is none."""
    dst = int(dst)
    verts, levels = bfs_within(g, {int(v) for v in scaffold} | {dst}, [src], target=dst)
    level_of = within_levels(verts, levels)
    r = int(level_of(dst))
    if r < 0:
        return None
    return Path(tuple(walk_down(g, dst, r, lambda r, ids: level_of(ids) == r)))
