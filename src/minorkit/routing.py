"""Shared machinery for the staged constructions: interleaved ball growth
around many seed sets until a common hub vertex appears, chain recovery from
BFS level arrays, distance-based trimming, and two-phase path routing that
enters a target set exactly once.

Everything here is deterministic; all tie-breaks are by smallest vertex id.
Per-index ball growth is independent and could fan out over workers; the
sequential round-robin used here keeps results identical either way.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .graph import (
    Graph,
    Path,
    _layer_step,
    _mask,
    bfs_parents,
    first_exit,
    reached_in_order,
    trace_path,
)


class BallFamily:
    """Interleaved BFS balls around several seed sets, with coverage counts."""

    def __init__(self, g: Graph, seed_sets: dict, avoid_common=(), avoid_extra=None):
        self.g = g
        self.indices = sorted(seed_sets)
        self.levels = {}
        self.frontiers = {}
        self.sizes = {}
        self.coverage = np.zeros(g.n, dtype=np.int16)
        self._blocked = {}
        common = _mask(g.n, avoid_common)
        for i in self.indices:
            seeds = sorted(int(v) for v in seed_sets[i])
            lv = np.full(g.n, -1, dtype=np.int32)
            lv[seeds] = 0
            blocked = common | _mask(g.n, (avoid_extra or {}).get(i, ()))
            if blocked[seeds].any():
                raise ValueError(f"seed of ball {i} lies in its avoid set")
            self.levels[i] = lv
            self.frontiers[i] = np.asarray(seeds, dtype=np.int64)
            self.sizes[i] = len(seeds)
            self.coverage[seeds] += 1
            self._blocked[i] = blocked
        self.radius = 0

    def grow_round(self) -> bool:
        """Advance every ball by one BFS layer.  True if any grew."""
        grew = False
        for i in self.indices:
            frontier = self.frontiers[i]
            if not len(frontier):
                continue
            new, _ = _layer_step(self.g, frontier, self.levels[i], self._blocked[i])
            self.levels[i][new] = self.radius + 1
            self.coverage[new] += 1
            self.frontiers[i] = new
            self.sizes[i] += len(new)
            grew = grew or len(new) > 0
        if grew:
            self.radius += 1
        return grew

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
        return [i for i in self.indices if self.levels[i][v] >= 0]


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


def backtrack_chain(g: Graph, levels: np.ndarray, end: int) -> list:
    """Walk a BFS level array from ``end`` down to a level-0 seed.

    Returns the chain ``[seed, ..., end]``; at each step the smallest-id
    neighbor one level down is taken, so chains are deterministic.
    """
    r = int(levels[end])
    if r < 0:
        raise ValueError("end vertex not reached by this ball")
    chain = [int(end)]
    v = int(end)
    while r > 0:
        nxt = None
        for w in g.neighbors(v):
            w = int(w)
            if levels[w] == r - 1:
                nxt = w
                break
        if nxt is None:
            raise ValueError("broken level array")
        chain.append(nxt)
        v = nxt
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
    levels, _ = bfs_parents(g, [center], allowed=members)
    ranked = reached_in_order(levels)
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
    outside_allowed = (scaffold - target_set) | {source}
    levels, parents = bfs_parents(g, [source], allowed=outside_allowed)
    entry = first_exit(g, levels, target_set)
    if entry is None:
        return None
    _r, u, w = entry
    outside = trace_path(parents, u)
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
    allowed = {int(v) for v in scaffold}
    allowed.update((int(src), int(dst)))
    levels, parents = bfs_parents(g, [src], allowed=allowed, target=dst)
    if levels[dst] < 0:
        return None
    return Path(tuple(trace_path(parents, int(dst))))
