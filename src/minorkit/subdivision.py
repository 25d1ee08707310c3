"""Construction of units and complete-subdivision witnesses.

A unit is a corner vertex with t disjoint spoke paths leading to t disjoint
low-radius sets; units are the building blocks for subdivisions.  The builder
splits by degree profile: graphs with many high-degree vertices yield units
around star centers (:func:`build_units_dense`); bounded-degree graphs route
through corner-ball growth (:func:`build_units_sparse`), which can also short
circuit into a small subdivision directly when exits keep funnelling into the
forbidden region.  :func:`connect_units` then joins unit corners pairwise
along a proper edge coloring of the complete graph.

As in the minor builder, the asymptotic cardinalities (fractional powers of
m) degenerate to constants at realistic sizes; targets are treated as soft,
progress requires only enough survivors to finish, and every emitted object
is certified by the independent verifier before being returned.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .bounds import degree_floor as default_degree_floor
from .bounds import subdivision_density_target
from .errors import ConstructionStalled, InvariantViolation
from .expansion import (
    DEFAULT_STOP_FLOOR,
    MODE_BELOW_THRESHOLD,
    DerivedScales,
    ExpansionParams,
    derived_scales,
    extract_expander,
    size_cap,
)
from .graph import (
    Graph,
    Path,
    _mask,
    average_degree,
    bfs_levels,
    bfs_parents,
    exit_map,
    first_exit_on_map,
    neighbor_counts,
    reached_in_order,
    walk_down,
)
from .minor import (
    PipelineResult,
    build_small_minor,
    check_pipeline_args,
    handoff_result,
    route_and_prune,
)
from .routing import (
    backtrack_chain,
    grow_balls_to_common_hub,
    path_through_scaffold,
    trim_to_size,
)
from .verify import verify_minor_model, verify_subdivision, verify_unit
from .witnesses import SubdivisionModel, Unit

log = logging.getLogger(__name__)

CASE_STARS = "stars"
CASE_SPARSE = "sparse"


def log2m(m: int) -> int:
    """Integer star-degree threshold ceil(log^2 m)."""
    return max(1, math.ceil(math.log(m) ** 2))


def unit_set_size(m: int, sigma: float) -> int:
    return max(1, math.floor(m ** sigma))


@dataclass(frozen=True)
class DegreeSplit:
    """Outcome of the high-degree star extraction.

    Either ``kind == "stars"`` with the extracted disjoint stars (center plus
    threshold-many neighbors each), or ``kind == "sparse"`` with the removal
    set ``x`` after which the maximum degree is below the threshold.
    """

    kind: str
    stars: tuple = ()
    x: frozenset = frozenset()
    threshold: int = 0

    def __post_init__(self):
        object.__setattr__(
            self, "stars",
            tuple((int(c), frozenset(map(int, s))) for c, s in self.stars),
        )
        object.__setattr__(self, "x", frozenset(map(int, self.x)))


def split_by_degree(h: Graph, sigma: float, min_stars: Optional[int] = None) -> DegreeSplit:
    """Greedy star extraction around residual-degree >= ceil(log^2 m) vertices.

    Stops with case ``stars`` once ``max(floor(m^(6 sigma)), min_stars)``
    disjoint stars are found, or case ``sparse`` when no high-degree vertex
    remains, returning the union of everything extracted as ``x``.
    """
    m = h.n
    if m == 0:
        raise ValueError("empty graph")
    thr = log2m(m)
    target = max(1, math.floor(m ** (6.0 * sigma)), min_stars or 1)
    removed = np.zeros(m, dtype=bool)
    deg = h.degrees().astype(np.int64)  # residual degree; -1 once removed
    stars = []
    while len(stars) < target:
        candidate = int(np.argmax(deg))  # the first maximum has the smallest id
        if deg[candidate] < thr:
            return DegreeSplit(kind=CASE_SPARSE, x=frozenset(np.flatnonzero(removed).tolist()),
                               stars=tuple(stars), threshold=thr)
        row = h.neighbors(candidate)
        members = row[~removed[row]][:thr]
        stars.append((candidate, frozenset(members.tolist())))
        star = np.append(members, candidate)
        removed[star] = True
        deg = np.where(removed, -1, deg - neighbor_counts(h, star))
    return DegreeSplit(kind=CASE_STARS, stars=tuple(stars), threshold=thr)


# -- edge coloring --------------------------------------------------------------


def kt_edge_coloring(t: int) -> tuple:
    """Proper edge coloring of K_t with <= t colors plus a distinguishing map.

    Returns ``(color, tag)``, both keyed by vertex pairs ``(i, j)`` with
    ``i < j`` over ``0..t-1``.  Colors are in ``1..t``; within each color
    class the ``tag`` values are 1, 2, ... so the pair (color, tag) is
    injective over the edges.  Round-robin (circle) construction.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    color = {}
    if t % 2 == 1:
        for i in range(t):
            for j in range(i + 1, t):
                color[(i, j)] = (i + j) % t + 1
    else:
        base = t - 1
        for i in range(base):
            for j in range(i + 1, base):
                color[(i, j)] = (i + j) % base + 1
        for i in range(base):
            color[(i, base)] = (2 * i) % base + 1
    tag = {}
    per_color = {}
    for pair in sorted(color):
        c = color[pair]
        per_color[c] = per_color.get(c, 0) + 1
        tag[pair] = per_color[c]
    return color, tag


# -- dense route -----------------------------------------------------------------


def build_units_dense(
    h: Graph,
    split: DegreeSplit,
    t: int,
    d: DerivedScales,
    p: ExpansionParams,
    max_units: Optional[int] = None,
) -> list:
    """Build disjoint units around star centers (many-high-degrees case).

    Each unit set is trimmed out of one star, so a set size
    ``floor(m^sigma)`` above the star size ``threshold + 1`` is rejected.
    """
    if split.kind != CASE_STARS:
        raise ValueError("dense unit builder needs a star split")
    if t < 1:
        raise ValueError("t must be >= 1")
    m = h.n
    set_size = unit_set_size(m, p.sigma)
    if set_size > split.threshold + 1:
        raise ValueError(
            f"unit sets of {set_size} vertices exceed the star size {split.threshold + 1}"
        )
    target = max_units if max_units is not None else max(1, math.floor(m ** p.sigma))
    units = []
    w0 = set()
    while len(units) < target:
        try:
            unit = _one_dense_unit(h, split, t, d, p, w0, set_size)
        except ConstructionStalled:
            if units:
                break
            raise
        units.append(unit)
        w0 |= unit.vertices()
    return units


def _one_dense_unit(h, split, t, d, p, w0, set_size) -> Unit:
    m = h.n
    live = [(c, s) for c, s in split.stars if not (({c} | s) & w0)]
    n_sets = max(math.floor(m ** (4.0 * p.sigma)), 4 * (t + 1))
    if len(live) < t + 1:
        raise ConstructionStalled(
            f"only {len(live)} stars clear of the forbidden set, need {t + 1}",
            stage="star-extension",
            diagnostics={"stars_live": len(live), "forbidden": len(w0)},
        )
    live = live[: max(n_sets, t + 1)]
    centers = {i: c for i, (c, _s) in enumerate(live)}
    star_sets = {i: (frozenset(s) | {c}) for i, (c, s) in enumerate(live)}
    state = _ConnectState(indices=sorted(star_sets))
    for round_no in range(1, t + 1):
        _dense_round(h, t, d, p, w0, centers, star_sets, state, round_no)
    return _assemble_unit(h, t, d, p, state, centers, star_sets, set_size)


@dataclass
class _ConnectState:
    """Surviving indices of the unit rounds and their stored paths: ``paths``
    keyed (round, idx), or (alpha, beta, unit) in the unit connection, plus
    on the sparse route the boundary paths ``qpaths`` keyed (beta, idx) and
    the boundary corners ``bhubs``.  Paths are kept for surviving indices
    only; a key's last element is its index."""

    indices: list
    paths: dict = field(default_factory=dict)
    qpaths: dict = field(default_factory=dict)
    bhubs: list = field(default_factory=list)

    def used(self, w) -> set:
        """``w`` plus every vertex of a stored path."""
        out = set(w)
        for path in (*self.paths.values(), *self.qpaths.values()):
            out.update(path.vertices)
        return out

    def drop_to(self, survivors):
        self.indices = sorted(survivors)
        keep = set(self.indices)
        self.paths = {k: v for k, v in self.paths.items() if k[-1] in keep}
        self.qpaths = {k: v for k, v in self.qpaths.items() if k[-1] in keep}


def _dense_round(h, t, d, p, w0, centers, star_sets, state, round_no):
    # a stored path meets no other surviving star, so only the own centers
    # of the survivors come back out of the avoid set
    avoid = state.used(w0) - {centers[i] for i in state.indices}
    seeds = {i: {v for v in star_sets[i] if v not in avoid} for i in state.indices}
    hub, covered, fam = grow_balls_to_common_hub(
        h, seeds, avoid_common=avoid, radius_cap=2 * d.k + 1,
        size_cap=size_cap(d.m, p.eta), forbid=avoid,
    )

    def route(i, hub, fam):
        chain = backtrack_chain(fam, i, hub)
        return Path(tuple(chain) if chain[0] == centers[i] else (centers[i],) + tuple(chain))

    kept = route_and_prune(round_no, hub, covered, fam, t + 1, route, star_sets, 2 * d.k + 2)
    for i, path in kept.items():
        state.paths[(round_no, i)] = path
    state.drop_to(kept)


def _assemble_unit(h, t, d, p, state, centers, work_sets, set_size) -> Unit:
    if len(state.indices) < t + 1:
        raise ConstructionStalled(
            f"{len(state.indices)} indices finished the connection rounds, need {t + 1}",
            stage="assembly",
            diagnostics={"survivors": list(state.indices)},
        )
    chosen = sorted(state.indices)[: t + 1]
    corner_idx = chosen[-1]
    owners = chosen[:t]
    corner = centers[corner_idx]
    spokes = []
    final_sets = []
    for s in range(1, t + 1):
        owner = owners[s - 1]
        pieces = (state.paths.get((s, corner_idx)), state.paths.get((s, owner)))
        spokes.append(_join(h, pieces, corner, centers[owner], 6 * d.k, f"the round-{s} spoke"))
        final_sets.append(trim_to_size(h, work_sets[owner], centers[owner], set_size))
    unit = Unit(
        corner=corner,
        spokes=tuple(spokes),
        sets=tuple(final_sets),
        centers=tuple(centers[o] for o in owners),
        sigma=p.sigma,
    )
    verify_unit(h, unit, d).certify("built unit failed verification")
    return unit


def _join(h, pieces, a, b, bound, what) -> Path:
    """Shortest ``a``-``b`` path inside the union of the stored ``pieces``,
    at most ``bound`` long; a missing piece, no such path or a longer one
    is a bug."""
    if any(piece is None for piece in pieces):
        raise InvariantViolation(f"a stored path of {what} is missing")
    path = path_through_scaffold(h, set().union(*(piece.vertices for piece in pieces)), a, b)
    if path is None:
        raise InvariantViolation(f"the stored paths of {what} do not join")
    if path.length > bound:
        raise InvariantViolation(f"{what} has length {path.length} > {bound}")
    return path


# -- sparse route ----------------------------------------------------------------


def build_units_sparse(
    h: Graph,
    x,
    t: int,
    d: DerivedScales,
    p: ExpansionParams,
    degree_floor: Optional[float] = None,
    max_units: Optional[int] = None,
) -> Union[list, SubdivisionModel]:
    """Units (or a direct small subdivision) in the bounded-degree case.

    ``x`` is the removal set from :func:`split_by_degree` (max degree of
    ``h - x`` is below the star threshold).  Requires min degree at least the
    declared floor (warned, not raised, when violated).  Returns either a
    list of units or a SubdivisionModel when the corner balls keep exiting
    into the forbidden region (the funnel case).
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    m = h.n
    x = {int(v) for v in x}
    thr = log2m(m)
    rest_max = _rest_max_degree(h, x)
    if rest_max > thr:
        raise ValueError(f"max degree {rest_max} of h - x exceeds the threshold {thr}")
    floor = degree_floor if degree_floor is not None else default_degree_floor(t)
    if h.n and h.min_degree() < floor:
        log.warning(
            "min degree %d below the declared floor %.2f; corner growth may stall",
            h.min_degree(), floor,
        )
    target = max_units if max_units is not None else max(1, math.floor(m ** p.sigma))
    units = []
    w_global = set(x)
    while len(units) < target:
        try:
            got = _one_sparse_round(h, w_global, x, t, d, p)
        except ConstructionStalled:
            if units:
                break
            raise
        if isinstance(got, SubdivisionModel):
            return got
        units.append(got)
        w_global |= got.vertices()
    return units


def _rest_max_degree(h, x) -> int:
    """Largest degree in ``h - x`` (0 when nothing is left)."""
    rest = np.ones(h.n, dtype=bool)
    rest[list(x)] = False
    if not rest.any():
        return 0
    return int((h.degrees() - neighbor_counts(h, x))[rest].max())


def _harvest_corners(h, w, t, d, p):
    """Disjoint corner pockets: spaced centers with a trimmed residual ball each."""
    m = h.n
    thr = log2m(m)
    set_size = unit_set_size(m, p.sigma)
    want = max(math.floor(m ** 0.25), 4 * max(t + 1, t * (t - 1) // 2))
    free = np.ones(m, dtype=bool)
    free[list(w)] = False
    order = np.flatnonzero(free)
    order = order[np.argsort(-h.degrees()[order], kind="stable")].tolist()  # by (-degree, id)
    used = set(w)
    pockets = {}
    centers = {}
    for v in order:
        if len(pockets) >= want:
            break
        if v in used:
            continue
        lv = bfs_levels(h, [v], avoid=used, radius=d.l, stop_size=thr)
        reached = reached_in_order(lv)
        if len(reached) < set_size:
            continue
        keep = frozenset(reached[:thr].tolist())
        pockets[len(pockets)] = keep
        centers[len(centers)] = v
        used |= keep
    return pockets, centers


def _one_sparse_round(h, w, x, t, d, p) -> Union[Unit, SubdivisionModel]:
    # w is everything to stay out of (x plus units built so far); exits are
    # pursued only into x itself so that finished units do not keep pulling
    # every later corner ball into the boundary route
    m = h.n
    thr = log2m(m)
    set_size = unit_set_size(m, p.sigma)
    need_units = t + 1
    need_subdiv = t * (t - 1) // 2
    pockets, centers = _harvest_corners(h, w, t, d, p)
    if len(pockets) < max(need_units, need_subdiv):
        raise ConstructionStalled(
            f"harvested {len(pockets)} corner pockets, need {max(need_units, need_subdiv)}",
            stage="harvest",
            diagnostics={"pockets": len(pockets), "forbidden": len(w)},
        )
    state = _ConnectState(indices=sorted(pockets))
    alpha = 0
    beta = 0
    while alpha < t and beta < t:
        exits, balls = _probe_corner_balls(h, w, x, state, centers, d)
        case1 = sorted(i for i in state.indices if exits.get(i) is not None)
        case2 = sorted(i for i in state.indices if exits.get(i) is None)

        def q_step():
            need = need_subdiv if beta + 1 == t else 2
            _sparse_q_step(h, w, state, centers, exits, balls, beta + 1, d, need)

        def p_step():
            need = need_units if alpha + 1 == t else 2
            _sparse_p_step(h, w, state, centers, pockets, balls, case2, alpha + 1, d, p, thr, need)

        # majority rule decides which case to pursue; if that step cannot keep
        # enough survivors the other one is attempted before giving up
        first, second = (q_step, p_step) if len(case1) >= len(case2) else (p_step, q_step)
        try:
            first()
            took_q = first is q_step
        except ConstructionStalled as first_stall:
            try:
                second()
            except ConstructionStalled as exc:
                exc.diagnostics["first_step"] = {
                    "stage": first_stall.stage,
                    "detail": str(first_stall),
                    "diagnostics": first_stall.diagnostics,
                }
                raise
            took_q = second is q_step
        if took_q:
            beta += 1
        else:
            alpha += 1
    if alpha >= t:
        work_sets = {i: pockets[i] for i in state.indices}
        return _assemble_unit(h, t, d, p, state, centers, work_sets, set_size)
    return _assemble_direct_subdivision(h, t, d, state, centers)


def _probe_corner_balls(h, w, x, state, centers, d):
    """Residual corner balls plus the first exit (if any) into x minus B."""
    size_budget = 2 * log2m(h.n) + 32
    exits_into = exit_map(h, set(x) - set(state.bhubs))
    # corner balls stay clear of every other live corner so that
    # boundary paths of different indices can never cross; one mask serves
    # every corner, since a BFS visits its own seed even when it is blocked
    blocked = _blocked_mask(h, state, w, centers)
    exits = {}
    balls = {}
    for i in state.indices:
        balls[i] = bfs_parents(h, [centers[i]], avoid=blocked, radius=d.l, stop_size=size_budget)
        exits[i] = first_exit_on_map(balls[i], exits_into, max_level=d.l - 1)
    return exits, balls


def _blocked_mask(h, state, w, centers) -> np.ndarray:
    """``state.used(w)`` and the live corners as one boolean mask."""
    return _mask(h.n, state.used(w) | {centers[j] for j in state.indices})


def _sparse_q_step(h, w, state, centers, exits, balls, beta, d, need):
    counts = {}
    for i in state.indices:
        ex = exits.get(i)
        if ex is not None:
            counts[ex[2]] = counts.get(ex[2], 0) + 1
    if not counts:
        raise ConstructionStalled(
            "no exits available for a corner-to-boundary step",
            stage=("q", beta),
            diagnostics={"survivors": len(state.indices)},
        )
    b = min(counts, key=lambda cand: (-counts[cand], cand))
    taken = set()
    # what a re-routed path avoids: the probe's mask plus every path taken so far
    blocked = _blocked_mask(h, state, w, centers)
    new_paths = {}
    for i in state.indices:
        path = _route_exit(h, balls[i], exits[i], centers[i], b, taken, blocked, d)
        if path is None:
            continue
        new_paths[(beta, i)] = path
        taken.update(path.vertices[:-1])
        blocked[list(path.vertices[:-1])] = True
    if len(new_paths) < need:
        raise ConstructionStalled(
            f"corner-to-boundary step kept {len(new_paths)} survivors, need {need}",
            stage=("q", beta),
            diagnostics={"endpoint": b, "candidates": counts},
        )
    state.qpaths.update(new_paths)
    state.bhubs.append(b)
    state.drop_to(i for _beta, i in new_paths)


def _route_exit(h, levels, ex, v, b, taken, blocked, d):
    # the probe's exit still stands if it leads to b and its ball meets no
    # path taken this step (bhubs, and so the exit targets, are unchanged)
    if ex is not None and ex[2] == b and not any(levels[u] >= 0 for u in taken):
        return Path(tuple(walk_down(h, ex[1], ex[0], lambda r, ids: levels[ids] == r)) + (b,))
    # an exit lies within radius l - 1, so the last layer is never needed
    path = _path_to(h, v, blocked, h.neighbors(b), d.l - 1)
    return None if path is None else Path(tuple(path) + (b,))


def _path_to(h, v, avoid, targets, radius=None) -> Optional[list]:
    """Shortest path ``[v, ..., u]`` through ``h - avoid`` to the vertex
    ``u`` of ``targets`` of smallest (level, id) within ``radius``; None if
    the search reaches none of them.

    Once a layer reaches a target, later layers change neither that target
    nor the levels below it, so the BFS stops after that layer.
    """
    levels = bfs_parents(h, [v], avoid=avoid, radius=radius, target=targets)
    targets = np.asarray(targets, dtype=np.int64)
    lv = levels[targets]
    if not (lv >= 0).any():
        return None
    r = lv[lv >= 0].min()
    u = targets[lv == r].min()
    return walk_down(h, u, r, lambda r, ids: levels[ids] == r)


def _sparse_p_step(h, w, state, centers, pockets, balls, case2, alpha, d, p, thr, need):
    if len(case2) < need:
        raise ConstructionStalled(
            f"corner-growth step has {len(case2)} inward corners, need {need}",
            stage=("p", alpha),
            diagnostics={"survivors": len(state.indices)},
        )
    tsets = {}
    for i in case2:
        tsets[i] = frozenset(reached_in_order(balls[i])[:thr].tolist())
    # each trimmed ball starts with its own corner, so the corners leave too
    avoid = state.used(w) - set().union(*tsets.values())
    hub, covered, fam = grow_balls_to_common_hub(
        h, tsets, avoid_common=avoid, radius_cap=2 * d.k,
        size_cap=size_cap(d.m, p.eta), forbid=avoid | set(w),
    )

    def route(i, hub, fam):
        chain = backtrack_chain(fam, i, hub)
        inner = path_through_scaffold(h, tsets[i], centers[i], chain[0])
        if inner is None:
            return None
        return Path(tuple(inner.vertices) + tuple(chain[1:]))

    kept = route_and_prune(("p", alpha), hub, covered, fam, need, route, pockets, 2 * d.k + d.l)
    for i, path in kept.items():
        state.paths[(alpha, i)] = path
    state.drop_to(kept)


def _assemble_direct_subdivision(h, t, d, state, centers) -> SubdivisionModel:
    need = t * (t - 1) // 2
    if len(state.indices) < need or len(state.bhubs) < t:
        raise ConstructionStalled(
            f"subdivision route finished with {len(state.indices)} indices and"
            f" {len(state.bhubs)} boundary corners, need {need} and {t}",
            stage="subdivision-assembly",
            diagnostics={"survivors": len(state.indices), "corners": len(state.bhubs)},
        )
    chosen = sorted(state.indices)[:need]
    corners = tuple(state.bhubs[:t])
    pairs = [(i, j) for i in range(t) for j in range(i + 1, t)]
    edge_paths = {}
    for pos, (i, j) in enumerate(pairs):
        idx = chosen[pos]
        pieces = (state.qpaths.get((i + 1, idx)), state.qpaths.get((j + 1, idx)))
        edge_paths[(i, j)] = _join(h, pieces, corners[i], corners[j], 2 * d.l + 2,
                                   f"boundary pair {(i, j)}")
    model = SubdivisionModel(t, corners, edge_paths)
    verify_subdivision(h, model).certify("direct subdivision failed verification")
    return model


# -- connecting units ------------------------------------------------------------


def connect_units(
    h: Graph,
    units: list,
    t: int,
    d: DerivedScales,
    p: ExpansionParams,
) -> SubdivisionModel:
    """Join unit corners pairwise into a verified complete subdivision.

    Walks the lexicographic order on (spoke index, repetition), at each step
    growing balls from the units' current sets to a common hub and routing a
    bounded-length path per unit, pruning conflicts.  Finally the corner pairs
    are wired through the proper edge coloring so each spoke/hub path is used
    by exactly one pair.
    """
    if len(units) < t + 1:
        raise ValueError(f"need at least {t + 1} units, got {len(units)}")
    for u in units:
        if u.t < t:
            raise ValueError("unit has fewer spokes than requested t")
    seen = set()
    for u in units:
        vs = u.vertices()
        if seen & vs:
            raise ValueError("units are not pairwise disjoint")
        seen |= vs
    m = h.n
    trimmed = {}
    for i, u in enumerate(units):
        for j in range(t):
            size = max(1, math.floor(m ** (p.sigma - j * p.eta)))
            size = min(size, len(u.sets[j]))
            trimmed[(i, j)] = trim_to_size(h, u.sets[j], u.centers[j], size)

    state = _ConnectState(indices=list(range(len(units))))
    for alpha in range(1, t + 1):
        for beta in range(1, t + 1):
            _connect_step(h, units, trimmed, state, alpha, beta, t, d, p)
    chosen = sorted(state.indices)[:t]
    color, tag = kt_edge_coloring(t)
    edge_paths = {}
    for (i, j), c in sorted(color.items()):
        e = tag[(i, j)]
        ui, uj = units[chosen[i]], units[chosen[j]]
        pieces = (ui.spokes[c - 1], state.paths.get((c, e, chosen[i])),
                  state.paths.get((c, e, chosen[j])), uj.spokes[c - 1])
        edge_paths[(i, j)] = _join(h, pieces, ui.corner, uj.corner, 16 * d.k,
                                   f"corner pair {(i, j)}")
    model = SubdivisionModel(t, tuple(units[c].corner for c in chosen), edge_paths)
    verify_subdivision(h, model).certify("connected subdivision failed verification")
    return model


def _connect_step(h, units, trimmed, state: _ConnectState, alpha, beta, t, d, p):
    # one step of the lexicographic connection; the stored hub paths are
    # keyed (alpha, beta, unit), and every step keeps at least t survivors
    indices = state.indices
    qmap = state.paths
    w = state.used(v for i in indices for sp in units[i].spokes for v in sp.vertices)
    seeds = {}
    avoid_extra = {}
    for i in indices:
        own = trimmed[(i, alpha - 1)]
        later = set().union(*[trimmed[(i, a)] for a in range(alpha, t)]) if alpha < t else set()
        seeds[i] = set(own)
        avoid_extra[i] = (w - set(own)) | (later - set(own))
    hub, covered, fam = grow_balls_to_common_hub(
        h, seeds, avoid_common=(), avoid_extra=avoid_extra,
        radius_cap=d.k, size_cap=size_cap(d.m, p.eta), forbid=w,
    )
    taken = set()

    def route(i, hub, fam):
        path = _route_unit_hub_path(h, units, trimmed, fam, i, alpha, hub, taken, avoid_extra[i], d)
        if path is not None:
            _assert_connect_bullets(path, qmap, units, indices, i, alpha, beta, hub, t)
            taken.update(set(path.vertices) - {hub})
        return path

    msets = {i: frozenset().union(*[trimmed[(i, a)] for a in range(alpha - 1, t)]) for i in covered}
    kept = route_and_prune((alpha, beta), hub, covered, fam, t, route, msets, 2 * d.k)
    for i, path in kept.items():
        qmap[(alpha, beta, i)] = path
    state.drop_to(kept)


def _route_unit_hub_path(h, units, trimmed, fam, i, alpha, hub, taken, avoid_extra, d):
    center = units[i].centers[alpha - 1]
    own = trimmed[(i, alpha - 1)]
    chain = backtrack_chain(fam, i, hub)
    dirty = any(v in taken for v in chain)
    if not dirty:
        inner = path_through_scaffold(h, own, center, chain[0])
        if inner is not None:
            verts = tuple(inner.vertices) + tuple(chain[1:])
            path = Path(verts)
            if path.length <= 2 * d.k:
                return path
    avoid = (set(avoid_extra) - own) | (taken - {hub})
    path = _path_to(h, center, avoid, [hub])
    if path is None or len(path) - 1 > 2 * d.k:
        return None
    return Path(tuple(path))


def _assert_connect_bullets(path, qmap, units, indices, i, alpha, beta, hub, t):
    """The stored-path conditions of the lexicographic connection, checked at
    insertion: correct endpoints, no crossing of other spoke rounds, no
    crossing of other units' hub paths, no crossing of foreign spokes."""
    if path.vertices[-1] != hub:
        raise InvariantViolation("hub path does not end at the hub")
    if path.vertices[0] != units[i].centers[alpha - 1]:
        raise InvariantViolation("hub path does not start at the spoke center")
    pset = set(path.vertices)
    for (a2, b2, j), other in qmap.items():
        shared = pset & set(other.vertices)
        if a2 != alpha and shared:
            raise InvariantViolation(f"hub path crosses a path of spoke round {a2}")
        if a2 == alpha and b2 != beta and j != i and shared:
            raise InvariantViolation("hub path crosses another unit's earlier hub path")
    for j in indices:
        for a2 in range(t):
            if j == i and a2 == alpha - 1:
                continue
            if pset & set(units[j].spokes[a2].vertices):
                raise InvariantViolation(
                    f"hub path crosses spoke {a2} of unit {j}"
                )


# -- pipeline ---------------------------------------------------------------------


MODE_SUBDIVISION = "subdivision"
MODE_MINOR_OR_SUBDIVISION = "minor_or_subdivision"


def find_subdivision_pipeline(
    g: Graph,
    t: int,
    epsilon: float,
    mode: str = MODE_SUBDIVISION,
    degree_floor_coeff: Optional[float] = None,
    stop_floor: int = DEFAULT_STOP_FLOOR,
    budget_ops: Optional[int] = None,
    max_units: Optional[int] = None,
) -> PipelineResult:
    """End-to-end: small-set extraction, degree split, units, connection.

    delta = epsilon/3 (capped below 1/2), eta = 1/300 t^3, sigma = 1/100t.
    Below-threshold extractions hand off to the brute-force minor oracle when
    small enough (for t <= 4 a complete minor and a complete subdivision are
    equivalent, so the answer is exact there).  In minor-or-subdivision mode
    a handoff or a stall first tries the constant-size minor fallback.
    """
    check_pipeline_args(g, t, epsilon)
    if mode not in (MODE_SUBDIVISION, MODE_MINOR_OR_SUBDIVISION):
        raise ValueError(f"unknown mode {mode!r}")
    if average_degree(g) < subdivision_density_target(t):
        log.warning(
            "input density %.3f below the declared subdivision target %.3f",
            float(average_degree(g)), subdivision_density_target(t),
        )
    delta = min(epsilon / 3.0, 0.45)
    params = ExpansionParams.for_subdivision(t=t, delta=delta, ambient_n=g.n)
    extraction = extract_expander(
        g, params, small_set_mode=True, stop_floor=stop_floor, budget_ops=budget_ops
    )
    sub = extraction.subgraph
    h = sub.graph

    def minor_fallback(res, detail) -> PipelineResult:
        # minor-or-subdivision mode: a complete-minor witness in the small
        # extracted graph, where the subdivision machinery does not fit
        if mode != MODE_MINOR_OR_SUBDIVISION or h.n < t or h.n < 3:
            return res
        mparams = ExpansionParams.for_minor(t=t, delta=delta, ambient_n=max(h.n, 3))
        try:
            local = build_small_minor(h, t, derived_scales(h.n, mparams), mparams)
        except (ConstructionStalled, ValueError):
            return res
        model = local.remap(sub.new_to_old)
        verify_minor_model(g, model).certify("fallback minor failed verification")
        res.outcome, res.model, res.route, res.detail = "minor", model, "minor-fallback", detail
        return res

    if extraction.mode == MODE_BELOW_THRESHOLD:
        return minor_fallback(
            handoff_result(extraction, t, params=params, route=""),
            f"constant-size minor inside the n={h.n} handoff graph",
        )
    m = h.n
    scales = derived_scales(m, params)
    if max_units is None:
        max_units = max(t + 2, math.floor(m ** params.sigma))
    stars_wanted = 4 * (t + 1) + 2
    split = split_by_degree(h, params.sigma, min_stars=stars_wanted)
    common = dict(extraction=extraction, params=params, scales=scales)
    units = None
    try:
        if split.kind == CASE_STARS:
            route = "dense"
            got = build_units_dense(h, split, t, scales, params, max_units=max_units)
        else:
            route = "sparse"
            floor = None if degree_floor_coeff is None else default_degree_floor(t, degree_floor_coeff)
            got = build_units_sparse(h, split.x, t, scales, params,
                                     degree_floor=floor, max_units=max_units)
        if isinstance(got, SubdivisionModel):
            route, local = "sparse-direct", got
        else:
            units = got
            if len(units) < t + 1:
                raise ConstructionStalled(
                    f"only {len(units)} units built, need {t + 1} to connect",
                    stage="units",
                    diagnostics={"units": len(units), "needed": t + 1},
                )
            local = connect_units(h, units, t, scales, params)
    except ConstructionStalled as exc:
        return minor_fallback(
            PipelineResult("stalled", detail=str(exc), diagnostics=exc.diagnostics,
                           route=route, **common),
            f"unit construction stalled ({exc}); built a minor witness instead",
        )
    model = local.remap(sub.new_to_old)
    verify_subdivision(g, model).certify("subdivision failed verification")
    if units is not None:
        units = [u.remap(sub.new_to_old) for u in units]
    return PipelineResult("subdivision", model=model, units=units, route=route, **common)

