"""Seeded, reproducible graph generators and measured metadata.

All randomness flows from ``numpy.random.PCG64`` (or, for the regular-graph
pairing repair, Python's Mersenne Twister), both seeded from the spec's seed,
so the same spec always yields the same edge set on every platform.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from .graph import Graph, _bfs, _gather, load_graph

FAMILIES = ("gnp_avg_degree", "random_regular", "dense_blobs", "grid_torus", "file")

# failed pairings after which random_regular gives up; near-complete degrees
# (n=60, d=57) otherwise retry without end
MAX_PAIRING_ATTEMPTS = 1000


@dataclass(frozen=True)
class GeneratorSpec:
    family: str
    n: int = 0
    param: float = 0.0
    blob_count: int = 1
    seed: int = 0
    path: Optional[str] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        # the ranges are checked before any generator allocates for n or per blob
        if self.family == "file":
            if not self.path:
                raise ValueError("file family needs a path")
        elif not 1 <= self.n <= 2**31 - 1:
            raise ValueError(f"n = {self.n} outside 1..{2**31 - 1}")
        elif self.family == "dense_blobs" and not 1 <= self.blob_count <= self.n:
            raise ValueError(f"blob_count = {self.blob_count} outside 1..n = {self.n}")

    def label(self) -> str:
        if self.family == "file":
            return f"file:{self.path}"
        return f"{self.family}(n={self.n},param={self.param},blobs={self.blob_count},seed={self.seed})"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family, "n": self.n, "param": self.param,
            "blob_count": self.blob_count, "seed": self.seed, "path": self.path,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GeneratorSpec":
        return cls(
            family=d["family"], n=int(d.get("n", 0)), param=float(d.get("param", 0.0)),
            blob_count=int(d.get("blob_count", 1)), seed=int(d.get("seed", 0)),
            path=d.get("path"),
        )


@dataclass(frozen=True)
class GeneratedGraph:
    graph: Graph
    spec: GeneratorSpec
    realized_avg_degree: float
    girth: Optional[int]  # None when acyclic or not computed


def generate(spec: GeneratorSpec, with_girth: bool = True) -> GeneratedGraph:
    """Build the graph for a spec; same spec, same graph."""
    if spec.family == "gnp_avg_degree":
        g = _gnp_by_avg_degree(spec.n, spec.param, spec.seed)
    elif spec.family == "random_regular":
        g = _random_regular(spec.n, int(spec.param), spec.seed)
    elif spec.family == "dense_blobs":
        g = _dense_blobs(spec.n, spec.param, spec.blob_count, spec.seed)
    elif spec.family == "grid_torus":
        g = _grid_torus(spec.n)
    else:
        g = load_graph(spec.path)
    avg = 2.0 * g.edge_count / g.n if g.n else 0.0
    return GeneratedGraph(
        graph=g,
        spec=spec,
        realized_avg_degree=avg,
        girth=girth(g) if with_girth else None,
    )


def _pair_from_linear(n: int, linear: np.ndarray) -> tuple:
    """Invert upper-triangle pair indices: L -> (i, j) with i < j."""
    b = 2.0 * n - 1.0
    i = ((b - np.sqrt(b * b - 8.0 * linear)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    for _ in range(2):  # fix float off-by-ones
        start = i * (2 * n - i - 1) // 2
        i = np.where(linear < start, i - 1, i)
        start = i * (2 * n - i - 1) // 2
        over = linear >= start + (n - 1 - i)
        i = np.where(over, i + 1, i)
    start = i * (2 * n - i - 1) // 2
    j = linear - start + i + 1
    return i, j


def _gnp_by_avg_degree(n: int, avg_degree: float, seed: int) -> Graph:
    if n < 2:
        return Graph(n)
    p = min(max(avg_degree / (n - 1), 0.0), 1.0)
    if p == 0.0:
        return Graph(n)
    total = n * (n - 1) // 2
    if p >= 1.0:
        lin = np.arange(total, dtype=np.int64)
        return Graph(n, np.column_stack(_pair_from_linear(n, lin)))
    gen = np.random.Generator(np.random.PCG64(seed))
    # geometric skipping: visits only the sampled pair indices
    logq = math.log1p(-p)
    picked = []
    pos = -1
    batch = max(1024, int(total * p * 1.2) + 16)
    while pos < total:
        u = gen.random(batch)
        skips = np.floor(np.log1p(-u) / logq).astype(np.int64) + 1
        steps = np.cumsum(skips) + pos
        picked.append(steps[steps < total])
        if len(steps) and steps[-1] >= total:
            break
        pos = int(steps[-1]) if len(steps) else total
        batch = 1024
    lin = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    lin = lin[lin < total]
    return Graph(n, np.column_stack(_pair_from_linear(n, lin)))


def _random_regular(n: int, d: int, seed: int) -> Graph:
    """Pairing model with stub repair (same scheme the standard libraries use)."""
    if d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even for a d-regular graph")
    if d == 0:
        return Graph(n)
    rng = random.Random(seed)

    def suitable(edges, potential):
        if not potential:
            return True
        verts = sorted(potential)
        for s1 in verts:
            for s2 in verts:
                if s1 == s2:
                    break
                if (s2, s1) not in edges:
                    return True
        return False

    def try_once():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not suitable(edges, potential):
                return None
            stubs = [v for v, k in sorted(potential.items()) for _ in range(k)]
        return edges

    for _ in range(MAX_PAIRING_ATTEMPTS):
        edges = try_once()
        if edges is not None:
            pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
            return Graph(n, pairs.reshape(-1, 2))
    raise ValueError(
        f"no simple {d}-regular pairing on {n} vertices in {MAX_PAIRING_ATTEMPTS} attempts"
    )


def _dense_blobs(n: int, density: float, blob_count: int, seed: int) -> Graph:
    if not (0.0 <= density <= 1.0):
        raise ValueError("blob density must be a probability")
    base = n // blob_count
    extra = n % blob_count
    sizes = [base + (1 if i < extra else 0) for i in range(blob_count)]
    children = np.random.SeedSequence(seed).spawn(blob_count)
    blocks = [np.empty((0, 2), dtype=np.int64)]
    offset = 0
    for size, child in zip(sizes, children):
        gen = np.random.Generator(np.random.PCG64(child))
        if size >= 2:
            total = size * (size - 1) // 2
            lin = np.flatnonzero(gen.random(total) < density)
            blocks.append(np.column_stack(_pair_from_linear(size, lin)) + offset)
        offset += size
    return Graph(n, np.concatenate(blocks))


def _grid_torus(n: int) -> Graph:
    side = math.isqrt(n)
    if side * side != n:
        raise ValueError("grid_torus needs a square vertex count")
    if side < 3:
        raise ValueError("grid_torus needs side length >= 3")
    r, c = np.divmod(np.arange(n), side)
    right = np.column_stack((r * side + c, r * side + (c + 1) % side))
    down = np.column_stack((r * side + c, ((r + 1) % side) * side + c))
    return Graph(n, np.concatenate((right, down)))


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, None if acyclic.

    A BFS from each root in turn prices cycles from its levels alone: an
    edge inside layer L > 0 closes a cycle of length at most 2L + 1, and a
    vertex of layer L > 0 with two neighbors in layer L - 1 one of length
    at most 2L.  These are the non-tree edges between reached vertices, so
    the least such bound is at most the length of every cycle through the
    root.  A finished root is then deleted, as no cycle through it can beat
    that bound, and so is every vertex left with degree at most 1.  Once a
    cycle of length ``best`` is known, no BFS needs to go deeper than
    ``(best - 1) // 2`` to find a shorter one.
    """
    deg = g.degrees().copy()
    gone = np.zeros(g.n, dtype=bool)

    def delete(v):
        stack = [v]
        while stack:
            u = stack.pop()
            if gone[u]:
                continue
            gone[u] = True
            for w in g.neighbors(u):
                deg[w] -= 1
                if deg[w] <= 1:
                    stack.append(int(w))

    for v in np.flatnonzero(deg <= 1):
        delete(int(v))
    best = math.inf
    for root in range(g.n):
        if best == 3:
            break
        if gone[root]:
            continue
        radius = None if best == math.inf else (best - 1) // 2
        levels = _bfs(g, [root], gone, radius=radius)
        reached = np.flatnonzero(levels > 0)
        nbrs, counts = _gather(g, reached)
        owner = np.repeat(reached, counts)
        level, other = levels[owner], levels[nbrs]
        down = np.bincount(owner[other == level - 1], minlength=g.n)[reached]
        bounds = np.concatenate((2 * level[other == level] + 1, 2 * levels[reached[down >= 2]]))
        if len(bounds):
            best = min(best, int(bounds.min()))
        delete(root)
    return None if best == math.inf else int(best)
