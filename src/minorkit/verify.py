"""Independent certification of emitted witnesses, plus brute-force oracles.

The verifiers re-derive every claimed property from the host graph and the
witness alone; they share no state with the builders.  All problems become
report entries rather than exceptions, so a verdict is always produced.

The brute-force oracles are exact ground truth for tiny instances: exhaustive
search for a complete minor (n <= 14) and exhaustive vertex-expansion checking
(m <= 18).  They are pure functions and safe to parallelize over instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import InvariantViolation
from .expansion import DerivedScales, size_cap, small_set_rate, small_size_cap
from .graph import Graph, eccentricity_within, is_connected_set, neighborhood
from .witnesses import MinorModel, SubdivisionModel, Unit

BRUTE_FORCE_MAX_N = 14
BRUTE_FORCE_MAX_T = 5
EXPANDER_CHECK_MAX_M = 18


@dataclass
class VerificationReport:
    valid: bool
    violations: list = field(default_factory=list)
    measured_size: int = 0

    def add(self, rule: str, witness: str):
        self.violations.append((rule, witness))
        self.valid = False

    def certify(self, what: str) -> None:
        """Raise InvariantViolation ``"<what>: <violations>"`` unless valid:
        a builder's own witness that fails its check is a bug."""
        if not self.valid:
            raise InvariantViolation(f"{what}: {self.violations}")

    def to_json_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [list(v) for v in self.violations],
            "measured_size": self.measured_size,
        }


def _in_range(g: Graph, vertices) -> bool:
    return all(0 <= int(v) < g.n for v in vertices)


def verify_minor_model(g: Graph, model: MinorModel) -> VerificationReport:
    """Check disjointness, branch connectivity, and pairwise adjacency."""
    report = VerificationReport(valid=True)
    report.measured_size = model.total_vertices
    sets = model.branch_sets
    if len(sets) != model.t:
        report.add("shape", f"expected {model.t} branch sets, got {len(sets)}")
        return report
    for r, b in enumerate(sets):
        if not b:
            report.add("nonempty", f"branch set {r} is empty")
        elif not _in_range(g, b):
            report.add("range", f"branch set {r} has out-of-range vertices")
    if not report.valid:
        return report
    seen = set()
    for r, b in enumerate(sets):
        overlap = seen & b
        if overlap:
            report.add("disjoint", f"branch set {r} reuses vertices {sorted(overlap)[:5]}")
        seen |= b
    for r, b in enumerate(sets):
        if not is_connected_set(g, b):
            report.add("connected", f"branch set {r} is not connected in G")
    for r in range(len(sets)):
        for s in range(r + 1, len(sets)):
            if not _sets_adjacent(g, sets[r], sets[s]):
                report.add("adjacent", f"no edge between branch sets {r} and {s}")
    return report


def _sets_adjacent(g: Graph, a, b) -> bool:
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    bigset = set(big)
    for v in small:
        for w in g.neighbors(v):
            if int(w) in bigset:
                return True
    return False


def verify_subdivision(g: Graph, model: SubdivisionModel) -> VerificationReport:
    """Check corner distinctness, path validity/endpoints, internal disjointness."""
    report = VerificationReport(valid=True)
    report.measured_size = model.total_vertices
    corners = model.corners
    if len(set(corners)) != len(corners):
        report.add("corners", "corner vertices are not distinct")
    if not _in_range(g, corners):
        report.add("range", "corner out of vertex range")
        return report
    expected_pairs = {(i, j) for i in range(model.t) for j in range(i + 1, model.t)}
    if set(model.edge_paths) != expected_pairs:
        report.add("shape", f"paths cover {sorted(model.edge_paths)} not all corner pairs")
        return report
    corner_set = set(corners)
    interiors = {}
    for (i, j), p in sorted(model.edge_paths.items()):
        name = f"path {i}-{j}"
        if not _in_range(g, p.vertices):
            report.add("range", f"{name} leaves the vertex range")
            continue
        if not p.valid_in(g):
            report.add("path", f"{name} uses a non-edge")
        if {p.start, p.end} != {corners[i], corners[j]}:
            report.add("endpoints", f"{name} does not join corners {corners[i]},{corners[j]}")
        interior = set(p.vertices[1:-1])
        if interior & corner_set:
            report.add("corner_passthrough", f"{name} passes through a corner")
        interiors[(i, j)] = interior
    pairs = sorted(interiors)
    for a in range(len(pairs)):
        for b in range(a + 1, len(pairs)):
            shared = interiors[pairs[a]] & interiors[pairs[b]]
            if shared:
                report.add(
                    "internal_disjoint",
                    f"paths {pairs[a]} and {pairs[b]} share {sorted(shared)[:5]}",
                )
    return report


def verify_unit(g: Graph, u: Unit, d: DerivedScales) -> VerificationReport:
    """Check the six defining invariants of a unit against the derived scales."""
    report = VerificationReport(valid=True)
    report.measured_size = len(u.vertices())
    t = u.t
    want_size = max(1, math.floor(d.m ** u.sigma))
    all_vertices = set(u.vertices())
    if not _in_range(g, all_vertices):
        report.add("range", "unit leaves the vertex range")
        return report
    seen = set()
    for i, s in enumerate(u.sets):
        if len(s) != want_size:
            report.add("set_size", f"set {i} has {len(s)} vertices, expected {want_size}")
        if u.centers[i] not in s:
            report.add("center", f"center of set {i} not inside it")
        if seen & s:
            report.add("sets_disjoint", f"set {i} overlaps an earlier set")
        seen |= s
    for i, s in enumerate(u.sets):
        ecc = eccentricity_within(g, s, u.centers[i])
        if ecc is None:
            report.add("set_connected", f"set {i} is not connected")
        elif ecc > d.k:
            report.add("set_radius", f"set {i} has center radius {ecc} > k = {d.k}")
    for i, p in enumerate(u.spokes):
        name = f"spoke {i}"
        if not p.valid_in(g):
            report.add("spoke_path", f"{name} uses a non-edge")
        if p.start != u.corner or p.end != u.centers[i]:
            report.add("spoke_endpoints", f"{name} does not run corner -> center {i}")
        if p.length > 6 * d.k:
            report.add("spoke_length", f"{name} has length {p.length} > 6k = {6 * d.k}")
        for j, s in enumerate(u.sets):
            if j != i and set(p.vertices) & s:
                report.add("spoke_avoids_sets", f"{name} intersects set {j}")
    for i in range(t):
        for j in range(i + 1, t):
            shared = set(u.spokes[i].vertices) & set(u.spokes[j].vertices)
            if shared != {u.corner}:
                report.add(
                    "spokes_disjoint",
                    f"spokes {i},{j} share {sorted(shared - {u.corner})[:5]}",
                )
    return report


# -- brute-force oracles -------------------------------------------------------


def brute_force_has_minor(g: Graph, t: int) -> bool:
    """Exhaustive complete-minor test for tiny graphs.

    Enumerates t disjoint connected branch sets (unused vertices allowed) with
    all pairwise edges present.  Branch sets are generated anchored at their
    smallest vertex with anchors increasing, so each candidate family is seen
    once.
    """
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"graph too large for brute force (n={g.n} > {BRUTE_FORCE_MAX_N})")
    if t > BRUTE_FORCE_MAX_T:
        raise ValueError(f"t too large for brute force (t={t} > {BRUTE_FORCE_MAX_T})")
    if t < 1:
        raise ValueError("t must be >= 1")
    if t == 1:
        return g.n >= 1
    n = g.n
    adj = [0] * n
    for v in range(n):
        for w in g.neighbors(v):
            adj[v] |= 1 << int(w)

    def nb_mask(mask: int) -> int:
        out = 0
        mm = mask
        while mm:
            lsb = mm & -mm
            out |= adj[lsb.bit_length() - 1]
            mm ^= lsb
        return out & ~mask

    full = (1 << n) - 1

    def place(r: int, used: int, chosen: list) -> bool:
        if r == t:
            return True
        lo = (chosen[-1] & -chosen[-1]).bit_length() if chosen else 0
        for anchor in range(lo, n):
            if used >> anchor & 1:
                continue
            for cand in _connected_masks(adj, anchor, used, n):
                cnb = nb_mask(cand)
                if any(not (cnb & prev) for prev in chosen):
                    continue
                if r + 1 < t:
                    # every set placed later must touch all current sets
                    future = full & ~(used | cand)
                    if not (cnb & future):
                        continue
                    if any(not (nb_mask(prev) & future) for prev in chosen):
                        continue
                if place(r + 1, used | cand, chosen + [cand]):
                    return True
        return False

    return place(0, 0, [])


def _connected_masks(adj, anchor: int, used: int, n: int):
    """Yield all connected vertex sets (as bitmasks) containing ``anchor``,
    avoiding ``used`` and any vertex smaller than ``anchor``."""
    banned_low = (1 << anchor) - 1
    forbidden0 = used | banned_low

    def rec(mask: int, ext: int, forbidden: int):
        yield mask
        mm = ext
        while mm:
            lsb = mm & -mm
            mm ^= lsb
            u = lsb.bit_length() - 1
            new_ext = (ext ^ lsb) | (adj[u] & ~forbidden & ~lsb)
            new_ext &= ~(forbidden | lsb)
            yield from rec(mask | lsb, new_ext & ~mask, forbidden | lsb)
            forbidden |= lsb  # sets containing u are generated above, never again

    start_ext = adj[anchor] & ~forbidden0
    yield from rec(1 << anchor, start_ext, forbidden0 | (1 << anchor))


def brute_force_expander_check(
    h: Graph,
    rate: float,
    eta: float,
    small_set: Optional[float] = None,
) -> tuple:
    """Exhaustively test vertex expansion of every set up to the size cap.

    Checks |N(S)| >= rate |S| for all nonempty S with |S| <= m^(1-eta); when
    ``small_set`` (a delta) is given, additionally checks the small-set rate
    for all S with |S| <= m^(1/3).  Returns ``(ok, worst_set, worst_ratio)``
    where the worst set minimizes |N(S)|/|S| over the checked family.
    """
    from itertools import combinations

    m = h.n
    if m > EXPANDER_CHECK_MAX_M:
        raise ValueError(f"graph too large for exhaustive check (m={m})")
    if m == 0:
        raise ValueError("empty graph")
    cap = max(size_cap(m, eta), 1)
    cap3 = small_size_cap(m) if small_set is not None else 0
    ok = True
    worst = None  # (ratio, size, tuple) minimal
    for size in range(1, max(cap, cap3) + 1):
        for combo in combinations(range(m), size):
            s = frozenset(combo)
            nb = len(neighborhood(h, s))
            if size <= cap:
                ratio = nb / size
                if worst is None or ratio < worst[0]:
                    worst = (ratio, size, combo)
                if nb < rate * size:
                    ok = False
            if small_set is not None and size <= cap3:
                if nb < small_set_rate(size, small_set) * size:
                    ok = False
    worst_set = frozenset(worst[2]) if worst else frozenset()
    worst_ratio = worst[0] if worst else float("inf")
    return ok, worst_set, worst_ratio
