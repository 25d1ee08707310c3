"""Construction of small complete-minor witnesses inside extracted expanders.

The staged process: harvest many disjoint low-radius "nice" sets, then for
t-1 stages grow balls around the survivors until a common hub vertex appears,
route a path from the hub set's center into each surviving set (entering it
exactly once), prune conflicts with the greedy independent-set rule, and
forbid the used path segments.  The final branch sets are assembled from the
stored path pieces and certified by the independent verifier before return.

Asymptotic cardinality targets (all the fractional powers of m) are treated
as soft at realistic sizes: the construction proceeds as long as enough
indices survive to finish, and the quantitative targets are only asserted by
the harness tests at scales where they are meaningful.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .bounds import minor_density_target
from .errors import ConstructionStalled, InvariantViolation
from .expansion import (
    DEFAULT_STOP_FLOOR,
    MODE_BELOW_THRESHOLD,
    DerivedScales,
    ExpansionParams,
    ExtractionResult,
    derived_scales,
    extract_expander,
    size_cap,
)
from .graph import Graph, Path, average_degree, bfs_levels, reached_in_order
from .routing import (
    backtrack_chain,
    entry_path,
    grow_balls_to_common_hub,
    path_through_scaffold,
)
from .verify import brute_force_has_minor, verify_minor_model, BRUTE_FORCE_MAX_N, BRUTE_FORCE_MAX_T
from .witnesses import MinorModel, SubdivisionModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NiceSet:
    """A low-radius set of prescribed size with a distinguished center."""

    vertices: frozenset
    center: int
    radius_bound: int

    def __post_init__(self):
        if self.center not in self.vertices:
            raise ValueError("center outside the set")


@dataclass
class StageState:
    """Bookkeeping of one staged construction run (kept for diagnostics)."""

    alpha: int = 0
    index_set: list = field(default_factory=list)
    forbidden: set = field(default_factory=set)
    hubs: list = field(default_factory=list)
    stage_paths: dict = field(default_factory=dict)  # (alpha, i) -> Path

    def summary(self) -> dict:
        return {
            "alpha": self.alpha,
            "surviving": list(self.index_set),
            "forbidden_size": len(self.forbidden),
            "hubs": list(self.hubs),
            "paths": len(self.stage_paths),
        }


def find_nice_sets(
    h: Graph,
    count: int,
    size: int,
    d: DerivedScales,
    p: ExpansionParams,
) -> list:
    """Harvest up to ``count`` disjoint size-``size`` sets of radius <= k.

    Probes candidate centers (ascending id, floor(m^(5/8)) of them per round)
    for one whose ball in the unused part of the graph reaches ``size``
    vertices within radius k, then trims the ball to exactly ``size`` by
    distance (farthest out first, larger ids dropped first on ties).  Returns
    a partial list if expansion stalls before ``count`` sets are found.
    """
    if size < 1 or count < 1:
        raise ValueError("count and size must be positive")
    m = h.n
    free = np.ones(m, dtype=bool)
    probe_size = max(1, math.floor(m ** 0.625))
    out = []
    while len(out) < count:
        used = ~free  # one mask, shared by every probe of the round
        found = None
        for v in np.flatnonzero(free)[:probe_size].tolist():
            levels = bfs_levels(h, [v], avoid=used, radius=d.k, stop_size=size)
            reached = reached_in_order(levels)
            if len(reached) >= size:
                found = (v, reached[:size], int(levels[reached[size - 1]]))
                break
        if found is None:
            log.info("nice-set harvest stalled after %d of %d sets", len(out), count)
            break
        v, reached, radius = found
        kept = frozenset(reached.tolist())
        out.append(NiceSet(vertices=kept, center=v, radius_bound=radius))
        free[reached] = False
    return out


# -- greedy independent set ----------------------------------------------------


def greedy_independent_set(adjacency: dict) -> list:
    """Min-degree greedy independent set (keeps the Caro-Wei guarantee).

    Repeatedly keeps a vertex of minimum degree (smallest id on ties) and
    deletes its closed neighborhood.  The result has size at least
    sum_v 1/(d(v)+1).
    """
    live = {v: set(nb) for v, nb in adjacency.items()}
    chosen = []
    while live:
        v = min(live, key=lambda u: (len(live[u]), u))
        chosen.append(v)
        dead = live[v] | {v}
        for u in dead:
            live.pop(u, None)
        for u in live:
            live[u] -= dead
    return sorted(chosen)


def caro_wei_bound(adjacency: dict) -> Fraction:
    """Exact value of sum_v 1/(d(v)+1)."""
    return sum((Fraction(1, len(nb) + 1) for nb in adjacency.values()), Fraction(0))


def conflict_prune(sets: list, paths: list, path_len_bound: int) -> list:
    """Select indices whose sets and paths do not cross each other.

    Builds the conflict graph (i ~ j iff S_i hits P_j or P_i hits S_j) and
    returns a greedy independent set, guaranteed to have at least
    ceil(s / (2 * path_len_bound + 3)) members; smaller output would
    contradict the counting bound and raises InvariantViolation.
    """
    s = len(sets)
    if s != len(paths):
        raise ValueError("sets and paths must align")
    if s == 0:
        return []
    owner = {}
    for i, st in enumerate(sets):
        for v in st:
            if v in owner:
                raise ValueError("sets are not pairwise disjoint")
            owner[int(v)] = i
    adjacency = {i: set() for i in range(s)}
    for j, p in enumerate(paths):
        if p.length > path_len_bound:
            raise ValueError(f"path {j} longer than the declared bound")
        for v in p.vertices:
            i = owner.get(int(v))
            if i is not None and i != j:
                adjacency[i].add(j)
                adjacency[j].add(i)
    chosen = greedy_independent_set(adjacency)
    need = -(-s // (2 * path_len_bound + 3))  # ceil
    if len(chosen) < need:
        raise InvariantViolation(
            f"greedy conflict pruning kept {len(chosen)} < guaranteed {need}"
        )
    return chosen


def route_and_prune(stage, hub, covered, fam, need, route, prune_sets, path_bound) -> dict:
    """The rest of one hub round, after ``grow_balls_to_common_hub``.

    Calls ``route(i, hub, fam)`` for every covered index, drops paths that are
    None or longer than ``path_bound``, and keeps a conflict-free subset by
    :func:`conflict_prune` against ``prune_sets[i]``.  Returns
    ``{index: path}`` for the survivors in index order.  Raises
    ConstructionStalled when fewer than ``need`` balls are covered or fewer
    than ``need`` paths survive; its diagnostics always carry the keys
    ``stage``, ``covered``, ``routed``, ``pruned_to``, ``needed`` and
    ``ball_sizes``.
    """
    def stall(reason, routed, pruned_to):
        raise ConstructionStalled(
            f"construction stalled at stage {stage}: {reason}, need {need}",
            stage=stage,
            diagnostics={
                "stage": stage, "covered": len(covered), "routed": routed,
                "pruned_to": pruned_to, "needed": need, "ball_sizes": dict(fam.sizes),
            },
        )

    if len(covered) < need:
        stall(f"hub covers {len(covered)} balls", 0, 0)
    routed = {}
    for i in covered:
        path = route(i, hub, fam)
        if path is not None and path.length <= path_bound:
            routed[i] = path
    kept = list(routed)
    keep_pos = conflict_prune([prune_sets[i] for i in kept], list(routed.values()), path_bound)
    if len(keep_pos) < need:
        stall(f"{len(keep_pos)} survivors of {len(kept)} routed paths", len(kept), len(keep_pos))
    return {kept[pos]: routed[kept[pos]] for pos in keep_pos}


# -- staged construction --------------------------------------------------------


def build_small_minor(
    h: Graph,
    t: int,
    d: DerivedScales,
    p: ExpansionParams,
) -> MinorModel:
    """Build a verified complete-minor witness on t branch sets inside ``h``.

    Raises ConstructionStalled (with stage diagnostics) when some stage runs
    out of surviving indices; the returned model always passes
    verify_minor_model.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    m = h.n
    if m == 0:
        raise ValueError("empty graph")
    if t == 1:
        model = MinorModel(1, (frozenset({0}),))
        verify_minor_model(h, model).certify("built minor model failed verification")
        return model

    set_size = max(1, math.floor(m ** 0.25))
    count = max(math.floor(m ** 0.25), 4 * (t + 1))
    count = min(count, max(t + 1, m // (2 * set_size)))
    sets = find_nice_sets(h, count, set_size, d, p)
    if len(sets) < t + 1:
        raise ConstructionStalled(
            f"only {len(sets)} nice sets of size {set_size} available, need {t + 1}",
            stage=-1,
            diagnostics={"nice_sets": len(sets), "requested": count},
        )
    by_index = {i: ns for i, ns in enumerate(sets)}
    state = StageState(index_set=sorted(by_index))
    ball_cap = size_cap(m, p.eta)

    for alpha in range(t - 1):
        state.alpha = alpha
        state.index_set = _run_stage(h, t, d, state, by_index, ball_cap, alpha)

    # every stage keeps at least t-1-alpha survivors, so one is left here
    state.hubs.append(min(state.index_set))

    model = _assemble_branch_sets(t, state, by_index)
    verify_minor_model(h, model).certify("built minor model failed verification")
    if _asymptotic_targets_met(m, t, count) and model.total_vertices > 4 * d.k * t * t:
        raise InvariantViolation(
            f"model uses {model.total_vertices} vertices, above the 4kt^2 bound"
        )
    return model


def _run_stage(h, t, d, state, by_index, ball_cap, alpha) -> list:
    # the index set never holds a retired hub: a stage's hub index is its
    # least covered index, and only the other covered indices survive
    seed_sets = {i: by_index[i].vertices for i in state.index_set}
    hub, covered, fam = grow_balls_to_common_hub(
        h, seed_sets, avoid_common=state.forbidden, radius_cap=d.k, size_cap=ball_cap
    )
    hub_index = min(covered, default=None)
    hub_leg = None
    if hub_index is not None:
        # the hub set's leg, center to hub, is the same for every index it joins
        chain_hub = backtrack_chain(fam, hub_index, hub)
        hub_leg = (chain_hub, path_through_scaffold(
            h, by_index[hub_index].vertices, by_index[hub_index].center, chain_hub[0]))
    kept = route_and_prune(
        alpha, hub, covered, fam, t - 1 - alpha,
        lambda i, hub, fam: _route_stage_path(h, d, by_index, hub_index, hub_leg, i, hub, fam),
        {i: by_index[i].vertices for i in covered}, 4 * d.k,
    )
    # forbid the used outside segments, and retire the hub along with the
    # interior segments already routed into its set at earlier stages
    for i, path in kept.items():
        state.stage_paths[(alpha, i)] = path
        state.forbidden.update(v for v in path.vertices if v not in by_index[i].vertices)
    hub_set = by_index[hub_index].vertices
    for s in range(alpha):
        prev = state.stage_paths.get((s, hub_index))
        if prev is not None:
            state.forbidden.update(v for v in prev.vertices if v in hub_set)
    state.hubs.append(hub_index)
    for i in kept:
        if state.forbidden & by_index[i].vertices:
            raise InvariantViolation("forbidden set leaked into a surviving nice set")
    return list(kept)


def _route_stage_path(h, d, by_index, hub_index, hub_leg, i, hub, fam):
    """Path from the hub set's center through ``hub`` into set ``i``, entering
    it once; None for the hub index itself or when no such path exists.
    ``hub_leg`` is the hub ball's chain to ``hub`` and the path inside the hub
    set from its center to the chain's seed."""
    chain_hub, inside0 = hub_leg
    if i == hub_index or inside0 is None:
        return None
    hub_set, target = by_index[hub_index], by_index[i]
    chain_tgt = backtrack_chain(fam, i, hub)
    scaffold = set(inside0.vertices) | set(chain_hub) | set(chain_tgt) | set(target.vertices)
    path = entry_path(
        h,
        scaffold,
        source=hub_set.center,
        target_set=target.vertices,
        target_center=target.center,
        max_len=4 * d.k,
    )
    if path is not None:
        _assert_stage_path_shape(path, target.vertices, 4 * d.k)
    return path


def _assert_stage_path_shape(path: Path, target_set: frozenset, max_len: int):
    """Stored stage paths must split as a contiguous outside part followed by
    a contiguous inside part, and respect the length bound."""
    if path.length > max_len:
        raise InvariantViolation(f"stage path length {path.length} exceeds {max_len}")
    inside = [v in target_set for v in path.vertices]
    if not inside[-1]:
        raise InvariantViolation("stage path does not end inside its target set")
    first = inside.index(True)
    if not all(inside[first:]):
        raise InvariantViolation("stage path re-enters its target set")


def _assemble_branch_sets(t: int, state: StageState, by_index: dict) -> MinorModel:
    hubs = state.hubs
    if len(hubs) != t:
        raise InvariantViolation(f"expected {t} branch indices, got {len(hubs)}")
    branch_sets = []
    for r in range(t):
        idx = hubs[r]
        own = by_index[idx].vertices
        piece = set()
        for s in range(r):
            p = state.stage_paths.get((s, idx))
            if p is None:
                raise InvariantViolation(f"missing stage path ({s}, {idx})")
            piece.update(v for v in p.vertices if v in own)
        for s in range(r + 1, t):
            p = state.stage_paths.get((r, hubs[s]))
            if p is None:
                raise InvariantViolation(f"missing stage path ({r}, {hubs[s]})")
            other = by_index[hubs[s]].vertices
            piece.update(v for v in p.vertices if v not in other)
        if not piece:
            piece = {by_index[idx].center}
        branch_sets.append(frozenset(piece))
    return MinorModel(t, tuple(branch_sets), stage_trace=state.summary())


def _asymptotic_targets_met(m: int, t: int, count: int) -> bool:
    """True when the harvested family met the full asymptotic cardinality target."""
    return count >= math.floor(m ** 0.25) >= 4 * (t + 1)


# -- pipeline -------------------------------------------------------------------


@dataclass
class PipelineResult:
    """What either pipeline returns.  ``model`` holds the certified witness,
    a MinorModel or a SubdivisionModel, and is set exactly when ``outcome``
    is ``"minor"`` or ``"subdivision"``; in minor-or-subdivision mode a
    fallback minor is there too.  ``units`` and ``route`` are the
    subdivision pipeline's (``route`` stays None in the minor pipeline)."""

    outcome: str  # "minor" | "subdivision" | "handoff" | "stalled"
    model: Optional[Union[MinorModel, SubdivisionModel]] = None
    units: Optional[list] = None
    extraction: Optional[ExtractionResult] = None
    brute_force_answer: Optional[bool] = None
    detail: str = ""
    diagnostics: dict = field(default_factory=dict)  # ConstructionStalled.diagnostics
    params: Optional[ExpansionParams] = None
    scales: Optional[DerivedScales] = None
    route: Optional[str] = None

    @property
    def witness_size(self) -> Optional[int]:
        return self.model.total_vertices if self.model is not None else None


def check_pipeline_args(g: Graph, t: int, epsilon: float) -> None:
    """Reject ``t < 1``, ``epsilon <= 0`` (or NaN) and an empty graph
    before any work."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if g.n == 0:
        raise ValueError("empty graph")


def handoff_result(extraction: ExtractionResult, t: int, **fields) -> PipelineResult:
    """The below-threshold result: the brute-force minor answer when the
    extracted graph is small enough, and where extraction stopped."""
    h = extraction.subgraph.graph
    answer = None
    if h.n <= BRUTE_FORCE_MAX_N and t <= BRUTE_FORCE_MAX_T:
        answer = brute_force_has_minor(h, t)
    return PipelineResult(
        outcome="handoff", extraction=extraction, brute_force_answer=answer,
        detail=f"extraction stopped below threshold at n={h.n}", **fields,
    )


def find_minor_pipeline(
    g: Graph,
    t: int,
    epsilon: float,
    density_target: Optional[float] = None,
    stop_floor: int = DEFAULT_STOP_FLOOR,
    budget_ops: Optional[int] = None,
) -> PipelineResult:
    """End-to-end: extract an expander, build a K_t-minor witness, certify it.

    delta is set to epsilon / (3 * density_target), capped at 1/2, and eta
    to 1/8t.  A ``density_target`` that is not above 0 (NaN included)
    raises ValueError before any work.  Inputs whose density is below the declared
    target are processed anyway with a warning; the guarantee simply lapses.
    Below-threshold extractions are handed to the brute-force oracle when
    small enough.
    """
    check_pipeline_args(g, t, epsilon)
    if density_target is None:
        density_target = minor_density_target(t)
    elif not density_target > 0:
        raise ValueError(f"density_target must be > 0, got {density_target}")
    if average_degree(g) < density_target:
        log.warning(
            "input density %.3f below declared target %.3f; proceeding anyway",
            float(average_degree(g)), density_target,
        )
    delta = min(epsilon / (3.0 * density_target), 0.5)
    params = ExpansionParams.for_minor(t=t, delta=delta, ambient_n=g.n)
    extraction = extract_expander(
        g, params, small_set_mode=False, stop_floor=stop_floor, budget_ops=budget_ops
    )
    sub = extraction.subgraph
    if extraction.mode == MODE_BELOW_THRESHOLD:
        return handoff_result(extraction, t, params=params)

    scales = derived_scales(sub.graph.n, params)
    common = dict(extraction=extraction, params=params, scales=scales)
    try:
        local = build_small_minor(sub.graph, t, scales, params)
    except ConstructionStalled as exc:
        return PipelineResult("stalled", detail=str(exc), diagnostics=exc.diagnostics, **common)
    model = local.remap(sub.new_to_old)
    verify_minor_model(g, model).certify("remapped model failed verification")
    return PipelineResult("minor", model=model, **common)
