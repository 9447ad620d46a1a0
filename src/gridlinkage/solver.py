"""Exact solving of vertex-disjoint path problems at desk scale.

An instance is a graph plus an ordered list of terminal pairs; a solution
links every pair by a path, pairwise vertex-disjoint.  solve() runs a
canonical backtracking search (pairs in input order, neighbors in
ascending id order) whose pruning never removes solutions, so decision,
capped counting and full enumeration are all exact.  brute_force_oracle()
re-derives the same answers by unpruned enumeration and exists to keep the
search honest in tests.

The prunes work on the free set: the vertices that are neither blocked
nor terminals nor on a path yet.  Two vertices can still be joined iff
they are adjacent or one connected component of the free set touches
both of their neighborhoods.  A search node answers every reachability
question from component labels.  It inherits them from its parent:
a child's free set is the parent's less the vertex v the path moved to
(or the same set, when a pair closes), so only the component C holding
v changes, to C - v.  C - v is known to be connected when v has one
neighbor in it, or when v's neighbors in it are linked through their
own neighborhoods; otherwise a flood from those neighbors stops once it
holds them all, or runs dry and so finds a piece that split off.  A
component no label covers yet is flooded when a prune first asks about
it.

Every emitted solution is re-checked inside the search, with the same
adjacency masks: each path once, when its pair closes (ends, edges, no
repeated vertex, none used by an earlier path), and at emission the
last path plus the spanning test.  check_linkage() stays the separate
public checker and raises the same messages.

Budgets bound the search; an exhausted budget surfaces as status
"aborted" and is never coerced into an answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .bitsets import adjacency_masks, components, iter_bits, split_components
from .graphs import Graph, GridLayout, ROLE_BORDER, ROLE_EXTERIOR, validate_path

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_TIME_BUDGET = 600.0

STATUS_SOLVABLE = "solvable"
STATUS_UNSOLVABLE = "unsolvable"
STATUS_ABORTED = "aborted"


class SearchAborted(RuntimeError):
    """Raised where an exhausted search budget leaves a predicate unknown."""


@dataclass(frozen=True)
class Instance:
    """A disjoint-paths problem: host graph and ordered terminal pairs."""

    graph: Graph
    pairs: tuple[tuple[int, int], ...]
    layout: GridLayout | None = None
    meta: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for s, t in self.pairs:
            for v in (s, t):
                if not 0 <= v < self.graph.vertex_count:
                    raise ValueError(f"terminal {v} out of range")
                if v in seen:
                    raise ValueError(f"terminal {v} appears twice")
                seen.add(v)
        if self.layout is not None:
            roles = self.layout.roles
            for v in seen:
                if roles.get(v) not in (ROLE_BORDER, ROLE_EXTERIOR):
                    raise ValueError(
                        f"terminal {v} must sit on the grid border or outside the grid"
                    )

    @property
    def meta_map(self) -> dict[str, object]:
        return dict(self.meta)

    def construction_k(self) -> int | None:
        """The construction parameter meta["k"], or None when there is none.

        Raises ValueError unless it is a non-negative int (a bool is not).
        """
        meta = self.meta_map
        if "k" not in meta:
            return None
        k = meta["k"]
        if type(k) is not int or k < 0:
            raise ValueError(f"meta k must be a non-negative integer, got {k!r}")
        return k

    @classmethod
    def make(
        cls,
        graph: Graph,
        pairs: Iterable[tuple[int, int]],
        layout: GridLayout | None = None,
        meta: Mapping[str, object] | None = None,
    ) -> "Instance":
        return cls(graph, tuple((s, t) for s, t in pairs), layout,
                   tuple(sorted((meta or {}).items())))


@dataclass(frozen=True)
class Linkage:
    """Vertex-disjoint paths in a host graph, one per terminal pair.

    Paths are stored oriented from s_i to t_i; a path and its reversal
    are the same path.
    """

    paths: tuple[tuple[int, ...], ...]
    host: Graph = field(compare=False)

    def vertices(self) -> frozenset[int]:
        return frozenset(v for p in self.paths for v in p)

    def canonical_key(self) -> tuple[tuple[int, ...], ...]:
        """Order-free form: each path min-endpoint first, paths sorted."""
        oriented = [p if p[0] <= p[-1] else tuple(reversed(p)) for p in self.paths]
        return tuple(sorted(oriented))


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    solutions: tuple[Linkage, ...]
    nodes_explored: int
    wall_time: float = field(compare=False)


class _CapHit(Exception):
    pass


class _BudgetExhausted(Exception):
    pass


def check_linkage(
    instance: Instance, paths: Iterable[tuple[int, ...]], require_spanning: bool = False
) -> None:
    """Independent validity check; raises ValueError on any violation."""
    paths = tuple(tuple(p) for p in paths)
    if len(paths) != len(instance.pairs):
        raise ValueError("one path per terminal pair required")
    used: set[int] = set()
    for path, (s, t) in zip(paths, instance.pairs):
        validate_path(instance.graph, path)
        if path[0] != s or path[-1] != t:
            raise ValueError(f"path endpoints {path[0]},{path[-1]} differ from pair {s},{t}")
        overlap = used.intersection(path)
        if overlap:
            raise ValueError(f"paths share vertices {sorted(overlap)}")
        used.update(path)
    if require_spanning and len(used) != instance.graph.vertex_count:
        raise ValueError("linkage does not span all vertices")


def _check_closed(
    adj: list[int],
    pairs: tuple[tuple[int, int], ...],
    paths: list[tuple[int, ...]],
    used: int,
    cover: int | None = None,
) -> int:
    """The check solve() runs when it closes a pair: paths[-1] must join
    pairs[len(paths) - 1] along edges of adj, repeat no vertex and miss
    used, the vertex mask of the paths before it.  Returns used with the
    path's vertices added.

    cover is None while the linkage is still being built.  When it is a
    mask, paths is the whole linkage: there must be one path per pair
    and the paths' vertices must include cover.  Every fault raises the
    ValueError check_linkage raises for it.
    """
    if cover is not None and len(paths) != len(pairs):
        raise ValueError("one path per terminal pair required")
    if paths:
        path = paths[-1]
        if not path:
            raise ValueError("empty vertex sequence is not a path")
        mask = 0
        for v in path:
            mask |= 1 << v
        if mask.bit_count() != len(path):
            raise ValueError("path repeats a vertex")
        a = path[0]
        for b in path[1:]:
            if not adj[a] >> b & 1:
                raise ValueError(f"({a}, {b}) is not an edge")
            a = b
        s, t = pairs[len(paths) - 1]
        if path[0] != s or a != t:
            raise ValueError(f"path endpoints {path[0]},{a} differ from pair {s},{t}")
        if used & mask:
            raise ValueError(f"paths share vertices {list(iter_bits(used & mask))}")
        used |= mask
    if cover and cover & ~used:
        raise ValueError("linkage does not span all vertices")
    return used


ORDER_ASCENDING = "ascending"
ORDER_MIN_DEGREE = "min-degree"
PAIR_ORDER_INPUT = "input"
PAIR_ORDER_AUTO = "auto"


def solve(
    instance: Instance,
    mode: str = "decide",
    cap: int | None = None,
    require_spanning: bool = False,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
    pruning: bool = True,
    blocked: Iterable[int] = (),
    order: str = ORDER_ASCENDING,
    pair_order: str = PAIR_ORDER_INPUT,
) -> SolveOutcome:
    """Solve a disjoint-paths instance exactly.

    mode is one of "decide" (stop at the first solution), "count_up_to"
    (stop once cap solutions are found) and "enumerate_all".  Vertices in
    blocked are removed from play, which is equivalent to deleting them;
    terminals cannot be blocked.  Pruning is sound, so all modes return
    exactly what the unpruned search would; pruning=False disables it for
    cross-checking.  Solutions come back in canonical order.

    order picks the neighbor exploration order: "ascending" (canonical
    default) or "min-degree", a most-constrained-first heuristic that can
    reach a first solution much sooner on large structured instances.
    pair_order picks which pair is routed first: "input" (canonical
    default) or "auto", which routes pairs whose tighter endpoint has the
    fewest open neighbors first; ties keep input order.  Reported paths
    always follow the input pair order.  All four combinations are
    deterministic and none changes the solution set.  With
    require_spanning a solution must cover every vertex not blocked.

    A node is pruned when a pair can no longer be joined: the current
    pair from its path head to t, or a pending pair from s to t.  The
    test is the joinability rule of the module docstring, which is
    exactly what a breadth-first search through the free set reports,
    so no solution is lost and node counts equal those of one search
    per pair.  With require_spanning a node is also pruned when a free
    component lies next to neither the head nor a terminal still to be
    linked, since no path can enter it, or when a free vertex keeps
    fewer than two possible path neighbors.  A node with one pair left
    and no spanning test floods from the head only until it touches t.
    Every other node starts from the component labels of its parent and
    updates only the component the path entered; a split is found by a
    local test around the entered vertex, or else by a flood from its
    neighbors that runs dry before it reaches them all.  The search
    keeps its own stack, so long paths do not hit the recursion limit.

    The search checks each path once, when it closes the path's pair,
    against the adjacency masks and the OR of the paths closed before
    it (see _check_closed).  A solution is emitted only after its last
    path and, under require_spanning, its cover pass the same check.
    A fault raises the ValueError check_linkage() would raise.
    """
    if mode == "decide":
        cap = 1
    elif mode == "count_up_to":
        if cap is None or cap < 1:
            raise ValueError("count_up_to requires cap >= 1")
    elif mode == "enumerate_all":
        cap = None
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if order not in (ORDER_ASCENDING, ORDER_MIN_DEGREE):
        raise ValueError(f"unknown order {order!r}")
    if pair_order not in (PAIR_ORDER_INPUT, PAIR_ORDER_AUTO):
        raise ValueError(f"unknown pair_order {pair_order!r}")

    graph, pairs = instance.graph, instance.pairs
    n = graph.vertex_count
    blocked_mask = 0
    for v in blocked:
        if not 0 <= v < n:
            raise ValueError(f"blocked vertex {v} out of range")
        blocked_mask |= 1 << v
    terminal_mask = 0
    for s, t in pairs:
        terminal_mask |= (1 << s) | (1 << t)
    if terminal_mask & blocked_mask:
        raise ValueError("terminals cannot be blocked")

    adj = adjacency_masks(graph)
    all_mask = (1 << n) - 1 if n else 0
    free0 = all_mask & ~terminal_mask & ~blocked_mask
    if pair_order == PAIR_ORDER_AUTO:
        def tightness(i: int) -> tuple[int, int]:
            s, t = pairs[i]
            return (
                min((adj[s] & free0).bit_count(), (adj[t] & free0).bit_count()),
                i,
            )
        proc = tuple(sorted(range(len(pairs)), key=tightness))
        search_pairs = tuple(pairs[i] for i in proc)
    else:
        proc = range(len(pairs))
        search_pairs = pairs
    last = len(search_pairs) - 1
    if require_spanning:
        # pending_terms[i] / pending_nbrs[i]: terminals of search pairs
        # i..last and the union of their neighbor sets.
        pending_terms = [0] * (last + 2)
        pending_nbrs = [0] * (last + 2)
        for idx in range(last, -1, -1):
            s, t = search_pairs[idx]
            pending_terms[idx] = pending_terms[idx + 1] | (1 << s) | (1 << t)
            pending_nbrs[idx] = pending_nbrs[idx + 1] | adj[s] | adj[t]

    start = time.monotonic()
    deadline = start + max_seconds
    nodes = 0
    found: list[tuple[tuple[int, ...], ...]] = []
    # done_paths holds the closed paths in search order; used_masks[j]
    # is the vertex mask of the first j of them.
    done_paths: list[tuple[int, ...]] = []
    used_masks = [0]
    # The vertices a complete linkage must cover: under require_spanning
    # all but the blocked ones, which count as deleted.
    cover = all_mask & ~blocked_mask if require_spanning else 0
    no_labels: tuple[list[int], int] = ([], 0)

    def feasible(
        idx: int, head: int, free: int, labels: tuple[list[int], int]
    ) -> tuple[list[int], int] | None:
        # labels = (comps, labelled): components of free already
        # labelled and their union, inherited from the parent node.
        # Returns None to prune, else the labels the children inherit;
        # the list passed in is never changed, since siblings share it.
        t_cur = search_pairs[idx][1]
        if idx == last and not require_spanning:
            # One question only: flood out of the head's neighborhood and
            # stop as soon as the flood touches t_cur's.  No labels are
            # kept; the children are last-pair nodes too.
            if adj[head] >> t_cur & 1:
                return no_labels
            target = adj[t_cur] & free
            frontier = adj[head] & free
            rest = free ^ frontier
            while frontier:
                if frontier & target:
                    return no_labels
                grow = 0
                while frontier:
                    low = frontier & -frontier
                    grow |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = grow & rest
                rest ^= frontier
            return None
        # Every pair must be joinable: adjacent ends, or one component of
        # free touching both ends' neighborhoods.  Components are flooded
        # on first touch and shared by all pairs and the spanning check.
        comps, labelled = labels
        for a, b in ((head, t_cur),) + search_pairs[idx + 1:]:
            if adj[a] >> b & 1:
                continue
            near_a = adj[a] & free
            fresh = near_a & ~labelled
            if fresh:
                new = components(adj, free & ~labelled, fresh)
                comps = comps + new
                for comp in new:
                    labelled |= comp
            near_b = adj[b] & free
            for comp in comps:
                if comp & near_a and comp & near_b:
                    break
            else:
                return None
        if require_spanning and free:
            # Each free vertex must lie in a component some terminal (or
            # the head) can enter, and must keep two possible path
            # neighbors.  Inherited labels may hold a component next to
            # no seed, so every labelled component is tested.
            seeds = (adj[head] | adj[t_cur] | pending_nbrs[idx + 1]) & free
            fresh = seeds & ~labelled
            if fresh:
                new = components(adj, free & ~labelled, fresh)
                comps = comps + new
                for comp in new:
                    labelled |= comp
            if labelled != free:
                return None
            for comp in comps:
                if not comp & seeds:
                    return None
            attach_base = free | (1 << head) | pending_terms[idx + 1] | (1 << t_cur)
            m = free
            while m:
                low = m & -m
                if (adj[low.bit_length() - 1] & attach_base).bit_count() < 2:
                    return None
                m ^= low
        if labelled == labels[1]:
            return labels  # nothing flooded: hand the same labels on
        return comps, labelled

    def complete(free: int) -> None:
        if require_spanning and free:
            return
        # The paths before the last were checked as their pairs closed.
        _check_closed(adj, search_pairs, done_paths, used_masks[-1], cover)
        by_input: list[tuple[int, ...]] = [()] * len(pairs)
        for j, p in enumerate(done_paths):
            by_input[proc[j]] = p
        paths = tuple(by_input)
        found.append(paths)
        if cap is not None and len(found) >= cap:
            raise _CapHit

    min_degree = order == ORDER_MIN_DEGREE
    # Depth-first search with an explicit stack, so path length is not
    # bounded by the interpreter's recursion limit.  A frame is
    # [pair index, free set, t of the pair, candidates still to try,
    # labels from feasible()]: candidates are a bitmask taken lowest bit
    # first, or for min-degree a list of (degree, v) sorted in reverse
    # and popped from the end.  route holds the vertex lists of the
    # pairs being routed, the current pair last.
    stack: list[list] = []
    route: list[list[int]] = []
    aborted = False
    try:
        if search_pairs:
            idx, head, free = 0, search_pairs[0][0], free0
            labels = no_labels
            route.append([head])
            while True:
                # Enter the node (idx, head, free) with the labels it
                # inherits: count it, prune it or push its frame.  A
                # pruned node gets a frame without candidates, which the
                # loop below pops and undoes.
                nodes += 1
                if nodes > max_nodes:
                    raise _BudgetExhausted
                if nodes % 4096 == 0 and time.monotonic() > deadline:
                    raise _BudgetExhausted
                t = search_pairs[idx][1]
                if pruning:
                    labels = feasible(idx, head, free, labels)
                if labels is None:
                    stack.append([idx, free, t, 0, None])
                else:
                    candidates = adj[head] & (free | (1 << t))
                    if min_degree and candidates:
                        ranked = []
                        while candidates:
                            low = candidates & -candidates
                            v = low.bit_length() - 1
                            ranked.append(((adj[v] & free).bit_count(), v))
                            candidates ^= low
                        ranked.sort(reverse=True)
                        candidates = ranked
                    stack.append([idx, free, t, candidates, labels])
                # Find the next node to enter.
                while stack:
                    frame = stack[-1]
                    idx, free, t, candidates, labels = frame
                    if not candidates:
                        stack.pop()
                        path = route[-1]
                        if len(path) > 1:
                            path.pop()
                        else:
                            route.pop()
                            if idx:
                                done_paths.pop()
                                used_masks.pop()
                        continue
                    if min_degree:
                        v = candidates.pop()[1]
                    else:
                        low = candidates & -candidates
                        frame[3] = candidates ^ low
                        v = low.bit_length() - 1
                    if v != t:
                        route[-1].append(v)
                        bit = 1 << v
                        head, free = v, free ^ bit
                        comps, labelled = labels
                        if labelled & bit:
                            # The child's free set lacks v: only the
                            # component C holding v changes, to C - v,
                            # which can fall apart only where v has two
                            # or more neighbors in it.
                            i = 0
                            while not comps[i] & bit:
                                i += 1
                            comp = comps[i] ^ bit
                            ends = adj[v] & comp
                            if ends & (ends - 1):
                                comps = comps[:i] + split_components(adj, comp, ends) + comps[i + 1:]
                            else:
                                comps = comps.copy()
                                if ends:
                                    comps[i] = comp
                                else:
                                    del comps[i]
                            labels = comps, labelled ^ bit
                        break
                    # Closing a pair leaves free, and so the labels, as
                    # they are.
                    done_paths.append(tuple(route[-1]) + (t,))
                    if idx == last:
                        complete(free)
                        done_paths.pop()
                        continue
                    used_masks.append(
                        _check_closed(adj, search_pairs, done_paths, used_masks[-1])
                    )
                    idx += 1
                    head = search_pairs[idx][0]
                    route.append([head])
                    break
                else:
                    break
        else:
            complete(free0)
    except _CapHit:
        pass
    except _BudgetExhausted:
        aborted = True

    solutions = tuple([Linkage(paths, graph) for paths in sorted(found)])
    wall = time.monotonic() - start
    if aborted:
        status = STATUS_ABORTED
    elif solutions:
        status = STATUS_SOLVABLE
    else:
        status = STATUS_UNSOLVABLE
    return SolveOutcome(status, solutions, nodes, wall)


def brute_force_oracle(instance: Instance, require_spanning: bool = False) -> SolveOutcome:
    """Enumerate all solutions with no pruning whatsoever.

    Textbook nested path enumeration over adjacency lists and Python
    sets; exponential and intended only for small test instances.  The
    solution list and its order match solve() exactly.
    """
    graph, pairs = instance.graph, instance.pairs
    adjacency = graph.adjacency
    terminals = {v for pair in pairs for v in pair}
    start = time.monotonic()
    nodes = 0
    found: list[tuple[tuple[int, ...], ...]] = []

    def all_paths(s: int, t: int, banned: set[int]) -> list[tuple[int, ...]]:
        # Depth-first walk from s on an explicit stack of neighbour
        # iterators, one per trail vertex, so long paths cannot exhaust
        # the interpreter's recursion limit.
        nonlocal nodes
        collected: list[tuple[int, ...]] = []
        trail = [s]
        trail_set = {s}
        nodes += 1
        stack = [iter(adjacency[s])]
        while stack:
            for w in stack[-1]:
                if w == t:
                    collected.append(tuple(trail) + (t,))
                elif w not in banned and w not in trail_set and w not in terminals:
                    trail.append(w)
                    trail_set.add(w)
                    nodes += 1
                    stack.append(iter(adjacency[w]))
                    break
            else:
                stack.pop()
                trail_set.remove(trail.pop())
        return collected

    def recurse(idx: int, used: set[int], chosen: list[tuple[int, ...]]) -> None:
        if idx == len(pairs):
            covered = set().union(*chosen) if chosen else set()
            if require_spanning and len(covered) != graph.vertex_count:
                return
            found.append(tuple(chosen))
            return
        s, t = pairs[idx]
        for path in all_paths(s, t, used):
            recurse(idx + 1, used | set(path), chosen + [path])

    recurse(0, set(), [])
    found.sort()
    solutions = tuple(Linkage(paths, graph) for paths in found)
    status = STATUS_SOLVABLE if solutions else STATUS_UNSOLVABLE
    return SolveOutcome(status, solutions, nodes, time.monotonic() - start)


def is_unique_solution(
    instance: Instance,
    require_spanning: bool = False,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
) -> bool:
    """True iff exactly one solution exists; raises SearchAborted on budget."""
    outcome = solve(
        instance,
        mode="count_up_to",
        cap=2,
        require_spanning=require_spanning,
        max_nodes=max_nodes,
        max_seconds=max_seconds,
    )
    if outcome.status == STATUS_ABORTED:
        raise SearchAborted("uniqueness undetermined within budget")
    return len(outcome.solutions) == 1


def spans_all_vertices(linkage: Linkage) -> bool:
    return len(linkage.vertices()) == linkage.host.vertex_count


def pattern_of(linkage: Linkage) -> frozenset[int]:
    """Endpoint set of the linkage; every component needs >= 2 vertices."""
    endpoints: set[int] = set()
    for path in linkage.paths:
        if len(path) < 2:
            raise ValueError("linkage components must have at least two vertices")
        endpoints.add(path[0])
        endpoints.add(path[-1])
    return frozenset(endpoints)


def pairing_of(linkage: Linkage) -> frozenset[tuple[int, int]]:
    """Component endpoints as unordered pairs; components need >= 2 vertices."""
    pairs: set[tuple[int, int]] = set()
    for path in linkage.paths:
        if len(path) < 2:
            raise ValueError("linkage components must have at least two vertices")
        pairs.add((path[0], path[-1]) if path[0] < path[-1] else (path[-1], path[0]))
    return frozenset(pairs)


@dataclass(frozen=True)
class IrrelevantReport:
    """Per-vertex deletion outcomes against the baseline solvability."""

    baseline_status: str
    irrelevant: frozenset[int]
    relevant: frozenset[int]
    indeterminate: frozenset[int]


def irrelevant_vertices(
    instance: Instance,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
) -> IrrelevantReport:
    """Classify each non-terminal vertex by whether deleting it changes
    solvability.  Budget exhaustion is flagged per vertex, never guessed.

    max_nodes bounds each solve; max_seconds is one deadline for the
    baseline solve and the whole sweep.  A vertex the sweep does not
    reach before the deadline is indeterminate.
    """
    deadline = time.monotonic() + max_seconds
    baseline = solve(instance, mode="decide", max_nodes=max_nodes, max_seconds=max_seconds)
    terminals = {v for pair in instance.pairs for v in pair}
    candidates = [v for v in range(instance.graph.vertex_count) if v not in terminals]
    if baseline.status == STATUS_ABORTED:
        return IrrelevantReport(
            STATUS_ABORTED, frozenset(), frozenset(), frozenset(candidates)
        )
    irrelevant: set[int] = set()
    relevant: set[int] = set()
    indeterminate: set[int] = set()
    for v in candidates:
        left = deadline - time.monotonic()
        if left <= 0:
            indeterminate.add(v)
            continue
        outcome = solve(
            instance, mode="decide", max_nodes=max_nodes, max_seconds=left,
            blocked=(v,),
        )
        if outcome.status == STATUS_ABORTED:
            indeterminate.add(v)
        elif outcome.status == baseline.status:
            irrelevant.add(v)
        else:
            relevant.add(v)
    return IrrelevantReport(
        baseline.status, frozenset(irrelevant), frozenset(relevant), frozenset(indeterminate)
    )


def _perfect_matchings(vertices: tuple[int, ...]):
    if not vertices:
        yield ()
        return
    first, rest = vertices[0], vertices[1:]
    for i, partner in enumerate(rest):
        head = (first, partner)
        remainder = rest[:i] + rest[i + 1 :]
        for tail in _perfect_matchings(remainder):
            yield (head,) + tail


PATTERN_PAIRING = "pairing"
PATTERN_ENDPOINT_SET = "endpoint-set"


def is_vital_linkage(
    graph: Graph,
    linkage: Linkage,
    match: str = PATTERN_PAIRING,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
) -> bool:
    """Decide whether a spanning linkage is the only one with its pattern.

    Same-pattern spanning linkages are enumerated exhaustively as
    spanning disjoint-paths instances.  Two pattern notions are
    supported.  "pairing" (the default) matches linkages whose
    components join the same endpoint pairs; this is the notion under
    which a unique spanning solution is vital, and the one the width
    bounds rest on.  "endpoint-set" matches on the bare set of degree-1
    vertices and therefore enumerates every perfect matching of it; it
    is strictly harder to satisfy, and the grid instances here admit
    re-pairings, so their solutions are not vital in that sense.

    Raises SearchAborted if any enumeration blows its budget, and
    ValueError if linkage is not a spanning linkage of graph.
    """
    check_linkage(
        Instance(graph, tuple((p[0], p[-1]) for p in linkage.paths)),
        linkage.paths,
        require_spanning=True,
    )
    if match == PATTERN_PAIRING:
        matchings = [tuple(sorted(pairing_of(linkage)))]
    elif match == PATTERN_ENDPOINT_SET:
        matchings = list(_perfect_matchings(tuple(sorted(pattern_of(linkage)))))
    else:
        raise ValueError(f"unknown pattern notion {match!r}")
    own_key = linkage.canonical_key()
    seen_self = False
    for matching in matchings:
        candidate = Instance(graph, tuple(matching))
        outcome = solve(
            candidate,
            mode="enumerate_all",
            require_spanning=True,
            max_nodes=max_nodes,
            max_seconds=max_seconds,
        )
        if outcome.status == STATUS_ABORTED:
            raise SearchAborted("same-pattern enumeration exceeded budget")
        for other in outcome.solutions:
            if other.canonical_key() == own_key:
                seen_self = True
            else:
                return False
    if not seen_self:
        raise AssertionError("input linkage not rediscovered by enumeration")
    return True
