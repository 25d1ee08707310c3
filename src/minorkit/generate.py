"""Seeded, reproducible graph generators and measured metadata.

All randomness flows from ``numpy.random.PCG64`` (or, for the regular-graph
pairing repair, Python's Mersenne Twister), both seeded from the spec's seed,
so the same spec always yields the same edge set on every platform.  The
pairing replays ``random.Random.shuffle``'s draws and swaps inline and pairs
the shuffled stubs with array steps.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .graph import Graph, _first_of_runs, _gather, bfs_levels, load_graph

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
        elif self.family == "random_regular" and not (float(self.param).is_integer() and self.param >= 0):
            raise ValueError(f"regular degree {self.param} is not a whole number >= 0")
        elif self.family == "gnp_avg_degree" and not self.param >= 0:
            raise ValueError(f"average degree {self.param} is not >= 0")

    def label(self) -> str:
        if self.family == "file":
            return f"file:{self.path}"
        return f"{self.family}(n={self.n},param={self.param},blobs={self.blob_count},seed={self.seed})"

    def to_json_dict(self) -> dict:
        return asdict(self)

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


def _pair_from_linear(n: int, linear: np.ndarray) -> np.ndarray:
    """Invert upper-triangle pair indices: L -> (i, j) with i < j, as rows.

    ``linear`` must be strictly increasing, as every caller draws it: then
    one ``searchsorted`` of the row starts counts the indices in each row.
    """
    rows = np.arange(max(n - 1, 0), dtype=np.int64)
    starts = rows * (2 * n - rows - 1) // 2
    counts = np.diff(np.searchsorted(linear, starts), append=len(linear))
    j = np.repeat(starts - rows - 1, counts)  # j = L - start + i + 1
    return np.column_stack((np.repeat(rows, counts), np.subtract(linear, j, out=j)))


def _gnp_by_avg_degree(n: int, avg_degree: float, seed: int) -> Graph:
    if n < 2:
        return Graph(n)
    p = min(max(avg_degree / (n - 1), 0.0), 1.0)
    if p == 0.0:
        return Graph(n)
    total = n * (n - 1) // 2
    if p >= 1.0:
        return Graph(n, _pair_from_linear(n, np.arange(total, dtype=np.int64)))
    gen = np.random.Generator(np.random.PCG64(seed))
    # geometric skipping: visits only the sampled pair indices
    logq = math.log1p(-p)
    picked = []
    pos = -1
    batch = max(1024, int(total * p * 1.2) + 16)
    while pos < total:
        u = gen.random(batch)  # skips = floor(log1p(-u) / logq) + 1, in place
        np.floor(np.divide(np.log1p(np.negative(u, out=u), out=u), logq, out=u), out=u)
        steps = u.astype(np.int64)
        steps += 1
        np.cumsum(steps, out=steps)
        steps += pos
        picked.append(steps[:np.searchsorted(steps, total)])
        pos = int(steps[-1])  # at least 1024 steps, each at least 1 long
        batch = 1024
    del u  # the last batch goes before the graph is built
    lin = picked[0] if len(picked) == 1 else np.concatenate(picked)
    return Graph(n, _pair_from_linear(n, lin))


def _random_regular(n: int, d: int, seed: int) -> Graph:
    """Pairing model with stub repair (same scheme the standard libraries use)."""
    if d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even for a d-regular graph")
    if d == 0:
        return Graph(n)
    rng = random.Random(seed)
    for _ in range(MAX_PAIRING_ATTEMPTS):
        key = _pairing(n, d, rng.getrandbits)
        if key is not None:
            return Graph(n, np.column_stack(np.divmod(key, n)))
    raise ValueError(
        f"no simple {d}-regular pairing on {n} vertices in {MAX_PAIRING_ATTEMPTS} attempts"
    )


def _pairing(n: int, d: int, getrandbits) -> Optional[np.ndarray]:
    """One attempt's kept edges as keys ``lo * n + hi``, or None when stuck.

    A pass keeps one pair of each key that is not a loop or an edge kept
    before; pairs of one key have the same ends, so which one is kept does
    not matter.  The other pairs' stubs go round again, sorted, while some
    two of their vertices are not adjacent; a leftover vertex has at most
    d - 1 edges, so over d of them always leave such a pair.  A pass costs
    what its stubs do, not what was kept: the first pass's keys stay a
    sorted array, searched with ``searchsorted``, and only the few keys of
    later passes go into a set.
    """
    first = None
    later = set()

    def known(keys: np.ndarray) -> np.ndarray:
        """Which of ``keys`` an earlier pass kept."""
        hit = np.zeros(len(keys), dtype=bool)
        if len(first):
            hit = first[np.minimum(first.searchsorted(keys), len(first) - 1)] == keys
        if later:
            hit |= np.fromiter(map(later.__contains__, keys.tolist()), dtype=bool, count=len(keys))
        return hit

    stubs = list(range(n)) * d
    while stubs:
        _shuffle(stubs, getrandbits)
        s = np.fromiter(stubs, dtype=np.int64, count=len(stubs))
        key = np.sort(np.minimum(s[0::2], s[1::2]) * n + np.maximum(s[0::2], s[1::2]))
        keep = _first_of_runs(key) & (key % (n + 1) != 0)  # a loop's key is lo * (n + 1)
        if first is None:
            first = key[keep]
        else:
            keep &= ~known(key)
            later.update(key[keep].tolist())
        left = np.sort(np.concatenate(np.divmod(key[~keep], n)))
        verts = left[_first_of_runs(left)]
        if len(verts) and len(verts) <= d:
            lo, hi = np.triu_indices(len(verts), 1)
            if known(verts[lo] * n + verts[hi]).all():
                return None
        stubs = left.tolist()
    return np.concatenate((first, np.fromiter(later, dtype=np.int64, count=len(later))))


def _shuffle(x: list, getrandbits) -> None:
    """``random.Random.shuffle(x)`` inline: from the last i down to 1, x[i] swaps with
    x[getrandbits(k)], redrawn while above i, for k = (i + 1).bit_length()."""
    for k in range(len(x).bit_length(), 1, -1):
        for i in range(min(len(x) - 1, (1 << k) - 2), (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


def _dense_blobs(n: int, density: float, blob_count: int, seed: int) -> Graph:
    if not (0.0 <= density <= 1.0):
        raise ValueError("blob density must be a probability")
    sizes = [n // blob_count + (i < n % blob_count) for i in range(blob_count)]
    children = np.random.SeedSequence(seed).spawn(blob_count)
    blocks = [np.empty((0, 2), dtype=np.int64)]
    offset = 0
    for size, child in zip(sizes, children):
        gen = np.random.Generator(np.random.PCG64(child))
        if size >= 2:
            total = size * (size - 1) // 2
            lin = np.flatnonzero(gen.random(total) < density)
            blocks.append(_pair_from_linear(size, lin) + offset)
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
        levels = bfs_levels(g, [root], avoid=gone, radius=radius)
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
