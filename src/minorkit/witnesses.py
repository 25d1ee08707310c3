"""Witness objects emitted by the builders: minor models, subdivisions, units.

All three are immutable value objects with a JSON round-trip.  They carry no
reference to the graph they were built in; verification against a host graph
lives in :mod:`minorkit.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graph import Path


@dataclass(frozen=True)
class MinorModel:
    """A complete-minor witness: t disjoint connected branch sets, pairwise adjacent."""

    t: int
    branch_sets: tuple  # tuple[frozenset[int], ...]
    stage_trace: Optional[dict] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "branch_sets", tuple(frozenset(map(int, b)) for b in self.branch_sets)
        )
        if len(self.branch_sets) != self.t:
            raise ValueError("branch set count differs from t")

    @property
    def total_vertices(self) -> int:
        return sum(len(b) for b in self.branch_sets)

    def remap(self, new_to_old) -> "MinorModel":
        return MinorModel(
            self.t,
            tuple(frozenset(new_to_old[v] for v in b) for b in self.branch_sets),
            stage_trace=self.stage_trace,
        )

    def to_json_dict(self) -> dict:
        out = {
            "t": self.t,
            "branch_sets": [sorted(b) for b in self.branch_sets],
            "total_vertices": self.total_vertices,
        }
        if self.stage_trace is not None:
            out["stage_trace"] = self.stage_trace
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "MinorModel":
        return cls(int(d["t"]), tuple(frozenset(b) for b in d["branch_sets"]),
                   stage_trace=d.get("stage_trace"))


@dataclass(frozen=True)
class SubdivisionModel:
    """A complete-subdivision witness: t corners and internally disjoint paths.

    ``edge_paths`` maps each unordered corner-index pair ``(i, j)`` with
    ``i < j`` (0-based positions into ``corners``) to the connecting path.
    """

    t: int
    corners: tuple
    edge_paths: dict  # {(i, j): Path}

    def __post_init__(self):
        object.__setattr__(self, "corners", tuple(int(c) for c in self.corners))
        paths = {}
        for key, p in self.edge_paths.items():
            i, j = (int(key[0]), int(key[1]))
            if i > j:
                i, j = j, i
            paths[(i, j)] = p if isinstance(p, Path) else Path(tuple(p))
        object.__setattr__(self, "edge_paths", paths)
        if len(self.corners) != self.t:
            raise ValueError("corner count differs from t")

    @property
    def total_vertices(self) -> int:
        used = set()
        for p in self.edge_paths.values():
            used.update(p.vertices)
        used.update(self.corners)
        return len(used)

    def remap(self, new_to_old) -> "SubdivisionModel":
        return SubdivisionModel(
            self.t,
            tuple(new_to_old[c] for c in self.corners),
            {k: Path(tuple(new_to_old[v] for v in p.vertices))
             for k, p in self.edge_paths.items()},
        )

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "corners": list(self.corners),
            "paths": {f"{i}-{j}": list(p.vertices) for (i, j), p in sorted(self.edge_paths.items())},
            "total_vertices": self.total_vertices,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SubdivisionModel":
        paths = {}
        for key, verts in d["paths"].items():
            i, j = key.split("-")
            paths[(int(i), int(j))] = Path(tuple(verts))
        return cls(int(d["t"]), tuple(d["corners"]), paths)


@dataclass(frozen=True)
class Unit:
    """A corner vertex with t spoke paths into t disjoint low-radius sets.

    ``spokes[i]`` runs from ``corner`` to ``centers[i]`` which lies in
    ``sets[i]``; spokes pairwise meet only at the corner and avoid every set
    other than their own.
    """

    corner: int
    spokes: tuple  # tuple[Path, ...]
    sets: tuple    # tuple[frozenset[int], ...]
    centers: tuple
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(map(int, s)) for s in self.sets))
        object.__setattr__(self, "centers", tuple(int(c) for c in self.centers))
        object.__setattr__(
            self, "spokes",
            tuple(p if isinstance(p, Path) else Path(tuple(p)) for p in self.spokes),
        )
        if not (len(self.spokes) == len(self.sets) == len(self.centers)):
            raise ValueError("spokes, sets and centers must align")
        if not 0.0 < self.sigma < 1.0:  # NaN fails it too
            raise ValueError(f"sigma must be in (0,1), got {self.sigma}")

    @property
    def t(self) -> int:
        return len(self.sets)

    def vertices(self) -> frozenset:
        out = {self.corner}
        for p in self.spokes:
            out.update(p.vertices)
        for s in self.sets:
            out.update(s)
        return frozenset(out)

    def remap(self, new_to_old) -> "Unit":
        return Unit(
            new_to_old[self.corner],
            tuple(Path(tuple(new_to_old[v] for v in p.vertices)) for p in self.spokes),
            tuple(frozenset(new_to_old[v] for v in s) for s in self.sets),
            tuple(new_to_old[c] for c in self.centers),
            self.sigma,
        )

    def to_json_dict(self) -> dict:
        return {
            "corner": self.corner,
            "spokes": [list(p.vertices) for p in self.spokes],
            "sets": [sorted(s) for s in self.sets],
            "centers": list(self.centers),
            "sigma": self.sigma,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Unit":
        return cls(
            int(d["corner"]),
            tuple(Path(tuple(p)) for p in d["spokes"]),
            tuple(frozenset(s) for s in d["sets"]),
            tuple(d["centers"]),
            float(d["sigma"]),
        )
