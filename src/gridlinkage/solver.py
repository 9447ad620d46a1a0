"""Exact solving of vertex-disjoint path problems at desk scale.

An instance is a graph plus an ordered list of terminal pairs; a solution
links every pair by a path, pairwise vertex-disjoint.  solve() runs a
canonical backtracking search (pairs in input order, neighbors in
ascending id order) whose prunes never remove solutions, so decision,
capped counting and full enumeration are all exact.  brute_force_oracle()
re-derives the same answers by unpruned enumeration and exists to keep the
search honest in tests.

The prunes work on the free set: the vertices that are neither
terminals nor on a path yet.  Two vertices can still be joined iff
they are adjacent or one connected component of the free set touches
both of their neighborhoods.  A search node answers every reachability
question from component labels.  It inherits them from its parent:
a child's free set is the parent's less the vertex v the path moved to
(or the same set, when a pair closes), so only the component C holding
v changes, to C - v.  C - v is known to be connected when v has one
neighbor in it; otherwise a flood from the lowest of those neighbors
stops once it holds them all, or runs dry and so finds a piece that
split off, and the next flood starts from the lowest neighbor left.  A
component no label covers yet is flooded when a prune first asks about
it.  The tests themselves are inherited too: a node re-tests only the
pairs and the free vertices its move can have affected.

Every emitted solution is re-checked inside the search, with the
graph's adjacency masks: each path once, at the first emission that
holds it (ends, edges, no repeated vertex, none used by an earlier
path), plus the spanning test.  check_linkage() stays the separate
public checker and raises the same messages.

On an instance with a grid layout solve() first counts the linkages
with the frontier DP (frontier.count_linkages) and then searches only
the edges that at least one linkage uses; an edge no linkage uses leads
to no solution, so the search loses none and returns the same solutions
in the same order.  When the count stops at a limit the search runs on
every edge.  Instances without a layout are searched on every edge.

Without the spanning test the search also reuses what a subtree
emitted, keyed on the free region the rest of its paths may use: the
same reuse of sub-results keyed on a region that makes frontier path
search (Knuth's SIMPATH) fast.  A path's interior is connected, lies
in the free set and touches both of its own ends.  So below a node
that routes pair j and has reached head h, the rest of pair j's path
and the paths of pairs j + 1..last lie in the region: the union of the
free components that touch both neighborhoods of (h, t_j) or of some
later pair.  They depend on j, h and the region alone, and other
routings that reach the same key share them.

Budgets bound the search; an exhausted budget surfaces as status
"aborted" and is never coerced into an answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

from .bitsets import components, iter_bits, split_components
from .graphs import Graph, GridLayout, validate_path

DEFAULT_NODE_BUDGET = 100_000_000
DEFAULT_TIME_BUDGET = 600.0
# solve() keys the region memo at every pair start, and at every other
# search node once it has entered this many nodes (see solve()).  Set
# by measurement: at 256, sparse random graphs of 17-20 vertices and
# single-pair searches of 300-700 nodes solved slower than without
# these keys; at 1024 neither did, and 5x5 / 5x6 enumeration kept most
# of the gain.
MEMO_MIN_NODES = 1024
# The region memo stops storing keys once it holds this many, and goes
# on looking up the ones it holds.  A key left out only means that its
# subtree is searched again, so no answer changes, and memory stays
# bounded whatever the budgets say.  Past MEMO_MIN_NODES a search stores
# about one key per node, at about 160 bytes with its entry on the k = 4
# graph: a capped solve of the k = 4 top-right instance held 157 MB of
# memo after 1 M nodes, and with this bound peaks near 100 MB, like the
# count's MAX_STATES.
MEMO_MAX_KEYS = 500_000

STATUS_SOLVABLE = "solvable"
STATUS_UNSOLVABLE = "unsolvable"
STATUS_ABORTED = "aborted"


class SearchAborted(RuntimeError):
    """Raised where an exhausted search budget leaves a predicate unknown."""


@dataclass(frozen=True)
class Instance:
    """A disjoint-paths problem: host graph and ordered terminal pairs.

    A grid layout, when given, must place each vertex of the graph
    exactly once and every terminal on a border cell; GridLayout itself
    keeps the cells distinct, one per vertex and inside the lattice.
    """

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
        layout = self.layout
        if layout is not None:
            if layout.cells.keys() != set(range(self.graph.vertex_count)):
                raise ValueError("the layout must place each vertex exactly once")
            for v in seen:
                if layout.is_inner(v):
                    raise ValueError(f"terminal {v} must sit on the grid border")

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
    """The check solve() runs once per closed path: paths[-1] must join
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


def _region_key(
    adj: list[int],
    search_pairs: tuple[tuple[int, int], ...],
    idx: int,
    head: int,
    free: int,
    labels: tuple[list[int], int],
) -> tuple[tuple[int, int, int], tuple[list[int], int]]:
    """The memo key of the solve() node (idx, head, free), and labels to
    hand on: free's components labels holds, plus those flooded here.

    The region, the union of the components of free that touch both
    ends' neighborhoods of (head, t_idx) or of some later pair, holds
    the rest of the current path and every later path, so with idx and
    head it fixes what the node's subtree emits.  Components next to
    head or to a later s that no label covers are flooded here.
    """
    comps, labelled = labels
    ends = search_pairs[idx:]
    if head != ends[0][0]:
        ends = ((head, ends[0][1]),) + ends[1:]
    fresh = 0
    for s, _ in ends:
        fresh |= adj[s]
    fresh &= free & ~labelled
    if fresh:
        new = components(adj, free & ~labelled, fresh)
        comps = comps + new
        for comp in new:
            labelled |= comp
        labels = comps, labelled
    region = 0
    for comp in comps:
        for s, t in ends:
            if comp & adj[s] and comp & adj[t]:
                region |= comp
                break
    return (idx, head, region), labels


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
    order: str = ORDER_ASCENDING,
    pair_order: str = PAIR_ORDER_INPUT,
) -> SolveOutcome:
    """Solve a disjoint-paths instance exactly.

    mode is one of "decide" (stop at the first solution), "count_up_to"
    (stop once cap solutions are found) and "enumerate_all".  The prunes
    are sound, so all modes return exactly what an unpruned search would.
    Solutions come back in canonical order.

    order picks the neighbor exploration order: "ascending" (canonical
    default) or "min-degree", a most-constrained-first heuristic that can
    reach a first solution much sooner on large structured instances.
    pair_order picks which pair is routed first: "input" (canonical
    default) or "auto", which routes pairs whose tighter endpoint has the
    fewest open neighbors first; ties keep input order.  Reported paths
    always follow the input pair order.  All four combinations are
    deterministic and none changes the solution set.  With
    require_spanning a solution must cover every vertex.

    A node is pruned when a pair can no longer be joined: the current
    pair from its path head to t, or a pending pair from s to t.  The
    test is the joinability rule of the module docstring, which is
    exactly what a breadth-first search through the free set reports,
    so no solution is lost.  With require_spanning a node is also
    pruned when a free component lies next to neither the head nor a
    terminal still to be linked, since no path can enter it, or when a
    free vertex keeps fewer than two possible path neighbors.  A node
    with one pair left and no spanning test floods from the head only
    until it touches t.  Every other node starts from the component
    labels of its parent and updates only the component the path
    entered; a split is found by a flood from a neighbor of the entered
    vertex that runs dry before it reaches the others.  The search keeps
    its own stack, so long paths do not hit the recursion limit.

    A node re-tests only what its move can have changed, since its
    parent passed every test.  After a step to v the current pair is
    re-tested, and a pending pair only when v is next to one of its
    terminals, v's component split, or v lay in no labelled component.
    After a pair closes the free set is the same, so no pair is
    re-tested.  The spanning two-neighbor test is redone only on free
    vertices next to what just left the set a path may still attach
    to: the old head, and t when its pair closed.  The root tests
    everything.

    The search checks each path once, at the first emission that holds
    it, against the adjacency masks and the OR of the paths before it
    (see _check_closed); a path no solution extends is never checked.
    A solution is emitted only after all its paths and, under
    require_spanning, its cover pass the same check.  A fault raises
    the ValueError check_linkage() would raise.

    When instance has a grid layout, count_linkages() runs first with
    the same require_spanning, and the search moves and prunes only on
    the edges it reports some linkage using: candidates, component
    labels and splits, both prunes and the spanning seeds.  The
    pair_order tightness, the min-degree ranking and the path check
    still read every edge, so the search tries the same candidates in
    the same order, less subtrees that hold no solution, and every mode
    returns what the search on every edge returns.  nodes_explored is
    then the count's state expansions plus the search nodes.  The two
    share max_nodes and the deadline of max_seconds; when the count
    stops at a limit (nodes, states or seconds) the search runs on every
    edge with what is left of both.  At the k = 4 instance the count
    holds up to MAX_STATES states, about 100 MB, before it stops.

    Without require_spanning a region memo skips subtrees whose
    answer is known.  The key of a node routing pair j with head h is
    (j, h, R), R the union of the free components that touch both
    neighbor sets of (h, t_j) or of some pair > j (the module docstring
    says why R fixes what the subtree emits).  Each child is looked up
    when the move to it is made, before it is entered, so a hit costs
    no node.  A node that finishes below the cap stores, in its own
    frame, the suffixes it emitted in emission order: the solutions it
    added, whose paths from h on are the suffixes.  One that emitted
    none stores that too, so decide stops repeating subtrees that
    failed.  On a hit each stored suffix is emitted, in its order, after
    the closed paths and the current path up to h, in place of the
    subtree.  The ascending order ranks candidates by id alone, so the
    search on any free set with region R meets those suffixes in that
    order too.  Min-degree ranks them by all their free neighbors, some
    of them outside R, so it may meet them in another order; that is
    harmless when every solution is kept, but a cap keeps the first ones
    met, so a capped min-degree search keeps no memo.  A hit checks the
    current path up to h once (it starts at s_j, follows edges, repeats
    no vertex and misses the closed paths), and each replayed suffix
    against the closed paths and that path (the suffix itself was
    checked when first emitted).  Replays poll the deadline at every
    4096th suffix they emit, as the search does every 4096 nodes.
    Pair starts are keyed from the first node on; the other nodes only
    once the search has entered MEMO_MIN_NODES nodes, since on smaller
    searches a key costs more than the nodes its hits save.
    nodes_explored counts only the nodes searched, so it drops; the
    memo lives for one call and stores at most MEMO_MAX_KEYS keys.  A
    spanning search keeps no memo: its key would be the whole free set,
    which rarely repeats.
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
    terminal_mask = 0
    for s, t in pairs:
        terminal_mask |= (1 << s) | (1 << t)

    start = time.monotonic()
    nodes = 0
    # full is the graph's adjacency; adj, which the search moves and
    # prunes on, keeps only the edges some linkage uses when a frontier
    # count on the grid layout finishes inside the budgets.
    adj = full = graph.masks
    if instance.layout is not None:
        from .frontier import count_linkages  # frontier imports this module

        counted = count_linkages(instance, max_nodes, max_seconds,
                                 require_spanning=require_spanning)
        nodes = counted.nodes
        if counted.status != STATUS_ABORTED:
            adj = Graph(n, counted.used_by_some).masks
    all_mask = (1 << n) - 1 if n else 0
    free0 = all_mask & ~terminal_mask
    if pair_order == PAIR_ORDER_AUTO:
        def tightness(i: int) -> tuple[int, int]:
            s, t = pairs[i]
            return (
                min((full[s] & free0).bit_count(), (full[t] & free0).bit_count()),
                i,
            )
        proc = tuple(sorted(range(len(pairs)), key=tightness))
        search_pairs = tuple(pairs[i] for i in proc)
    else:
        proc = range(len(pairs))
        search_pairs = pairs
    last = len(search_pairs) - 1
    # The pair whose nodes ask only whether the head still reaches t.
    plain_last = -1 if require_spanning else last
    if require_spanning:
        # pending_terms[i] / pending_nbrs[i]: terminals of search pairs
        # i..last and the union of their neighbor sets.
        pending_terms = [0] * (last + 2)
        pending_nbrs = [0] * (last + 2)
        for idx in range(last, -1, -1):
            s, t = search_pairs[idx]
            pending_terms[idx] = pending_terms[idx + 1] | (1 << s) | (1 << t)
            pending_nbrs[idx] = pending_nbrs[idx + 1] | adj[s] | adj[t]

    deadline = start + max_seconds
    # The solutions found, in search order, and their vertex masks.
    found: list[tuple[tuple[int, ...], ...]] = []
    found_masks: list[int] = []
    # done_paths holds the closed paths in search order; used_masks[j]
    # is the vertex mask of the first j of them, or None until they have
    # been checked.
    done_paths: list[tuple[int, ...]] = []
    used_masks: list[int | None] = [0]
    cover = all_mask if require_spanning else 0
    no_labels: tuple[list[int], int] = ([], 0)
    min_degree = order == ORDER_MIN_DEGREE

    # The region memo (see the solve() docstring).  memo maps the key of
    # a searched node to (first, end, prefix, length) when its subtree
    # added the solutions found[first:end], or to () when it added none:
    # prefix is the vertex mask of the closed paths and of the current
    # path's first length vertices, up to the node's head, so
    # found_masks[i] ^ prefix is the mask of the suffix the subtree
    # added to found[i].  Pair-start nodes are keyed from the first
    # node on, the others once nodes passes memo_from.  replayed counts
    # the suffixes replays emitted, so that they poll the deadline as
    # often as the search does.
    memo: dict[tuple[int, int, int], tuple[int, ...]] | None = (
        {} if not require_spanning and not (min_degree and cap) else None)
    memo_from = nodes + MEMO_MIN_NODES if memo is not None else max_nodes
    replayed = 0

    def complete(
        free: int,
        entry: tuple[int, ...] | None = None,
        prefix: list[int] | tuple[int, ...] = (),
    ) -> None:
        # Emit the closed paths as a solution or, given a memo entry and
        # the current path's prefix, each suffix the entry holds after
        # the closed paths and the prefix.
        nonlocal replayed
        if require_spanning and free:
            return
        # Each closed path is checked at the first emission that holds
        # it, and stays checked until backtracking drops it.
        used = used_masks[-1]
        if used is None:
            for j in range(used_masks.index(None), len(used_masks)):
                used_masks[j] = _check_closed(
                    full, search_pairs, done_paths[:j], used_masks[j - 1]
                )
            used = used_masks[-1]
        paths = tuple(done_paths)
        if entry is not None:
            # The prefix is checked once per hit, as a path from s_j to
            # the head.  A stored suffix was checked when it was first
            # emitted; here it must only miss the closed paths and the
            # prefix.
            first, end, source, length = entry
            j = len(paths)
            whole = len(prefix) == 1 == length  # a pair start: s_j alone
            if whole and not used >> prefix[0] & 1:
                used |= 1 << prefix[0]
            else:
                used = _check_closed(full, ((search_pairs[j][0], prefix[-1]),), (prefix,), used)
            current = tuple(prefix)
            tick = replayed + 1 - first  # tick + i numbers the suffix from 1
            replayed += end - first
            for i in range(first, end):
                if not (tick + i) & 4095 and time.monotonic() > deadline:
                    raise _BudgetExhausted
                mask = found_masks[i] ^ source
                if used & mask:
                    raise ValueError(f"paths share vertices {list(iter_bits(used & mask))}")
                found_masks.append(used | mask)
                tail = found[i]
                if whole:
                    found.append(paths + tail[j:])
                else:
                    found.append(paths + (current + tail[j][length:],) + tail[j + 1:])
                if cap is not None and len(found) >= cap:
                    raise _CapHit
            return
        found_masks.append(_check_closed(full, search_pairs, done_paths, used, cover))
        found.append(paths)
        if cap is not None and len(found) >= cap:
            raise _CapHit

    def feasible(
        idx: int,
        head: int,
        t_cur: int,
        free: int,
        labels: tuple[list[int], int],
        stale: int,
    ) -> tuple[list[int], int] | None:
        # labels = (comps, labelled): components of free already
        # labelled and their union, inherited from the parent node.
        # Returns None to prune, else the labels the children inherit;
        # the list passed in is never changed, since siblings share it.
        # The parent passed every test, so a node redoes only what its
        # move can have changed.  stale is 0 right after a pair closed
        # (free is the same, so no pair test is redone), the bit of the
        # vertex just entered when its component stayed whole (the
        # current pair, and each pending pair next to that vertex), or
        # -1 at the root and after a split or an entry into an
        # unlabelled component (every pair).  The search tests the last
        # pair itself when there is no spanning test.
        # Every pair must be joinable: adjacent ends, or one component of
        # free touching both ends' neighborhoods.  Components are flooded
        # on first touch and shared by all pairs and the spanning check.
        comps, labelled = labels
        for a, b in ((head, t_cur),) + search_pairs[idx + 1:] if stale else ():
            if adj[a] >> b & 1:
                continue
            if stale > 0 and a != head and not (adj[a] | adj[b]) & stale:
                continue  # a pending pair the move cannot have cut
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
            # Only free vertices next to what just left the attach set
            # can have lost a possible neighbor: the old head, and the
            # closed pair's t right after a close.  The root tests all.
            attach_base = free | (1 << head) | pending_terms[idx + 1] | (1 << t_cur)
            path = route[-1]
            if len(path) > 1:
                m = free & adj[path[-2]]
            elif idx:
                m = free & (adj[route[-2][-1]] | adj[search_pairs[idx - 1][1]])
            else:
                m = free
            while m:
                low = m & -m
                if (adj[low.bit_length() - 1] & attach_base).bit_count() < 2:
                    return None
                m ^= low
        if labelled == labels[1]:
            return labels  # nothing flooded: hand the same labels on
        return comps, labelled

    # Depth-first search with an explicit stack, so path length is not
    # bounded by the interpreter's recursion limit.  A frame is
    # [pair index, free set, t of the pair, candidates still to try,
    # labels from feasible(), (memo key, len(found) on entry) or None]:
    # candidates are a bitmask taken lowest bit first, or for min-degree
    # a list of (degree, v) sorted in reverse and popped from the end.
    # route holds the vertex lists of the pairs being routed, the
    # current pair last.
    stack: list[list] = []
    route: list[list[int]] = []
    aborted = False
    try:
        if search_pairs:
            idx, free = 0, free0
            head, t = search_pairs[0]
            labels = no_labels
            stale = -1
            key = None
            route.append([head])
            # The node count at which the budgets are next tested: every
            # 4096th node reads the clock, and node max_nodes + 1 stops.
            poll = nodes - nodes % 4096 + 4096
            if poll > max_nodes:
                poll = max_nodes + 1
            while True:
                # Enter the node (idx, head, free), t being t_idx, with
                # the labels it inherits and its memo key: count it,
                # prune it or push its frame.  A pruned node gets a
                # frame without candidates, which the loop below pops
                # and undoes.
                nodes += 1
                if nodes >= poll:
                    if nodes > max_nodes or time.monotonic() > deadline:
                        raise _BudgetExhausted
                    poll = nodes + 4096
                    if poll > max_nodes:
                        poll = max_nodes + 1
                if not (stale or require_spanning):
                    # Nothing to re-test: a pair start, whose free set
                    # is its parent's, or a last-pair child whose memo
                    # key showed its pair joinable.
                    pass
                elif idx != plain_last:
                    labels = feasible(idx, head, t, free, labels, stale)
                else:
                    # One question only: flood out of the head's
                    # neighborhood and stop as soon as the flood touches
                    # t's.  The labels are kept only when the question
                    # needs no answer, so that the next memo key reads
                    # them.
                    labels = no_labels
                    if not adj[head] >> t & 1:
                        target = adj[t] & free
                        frontier = adj[head] & free
                        rest = free ^ frontier
                        while not frontier & target:
                            if not frontier:
                                labels = None
                                break
                            grow = 0
                            while frontier:
                                low = frontier & -frontier
                                grow |= adj[low.bit_length() - 1]
                                frontier ^= low
                            frontier = grow & rest
                            rest ^= frontier
                if labels is None:
                    stack.append([idx, free, t, 0, None, key and (key, len(found))])
                else:
                    candidates = adj[head] & (free | (1 << t))
                    if min_degree and candidates:
                        ranked = []
                        while candidates:
                            low = candidates & -candidates
                            v = low.bit_length() - 1
                            ranked.append(((full[v] & free).bit_count(), v))
                            candidates ^= low
                        ranked.sort(reverse=True)
                        candidates = ranked
                    stack.append([idx, free, t, candidates, labels, key and (key, len(found))])
                # Find the next node to enter.
                while stack:
                    frame = stack[-1]
                    idx, free, t, candidates, labels, opened = frame
                    if not candidates:
                        # The subtree finished below the cap: keep what
                        # it emitted, then undo its move.
                        stack.pop()
                        path = route[-1]
                        if opened is not None and len(memo) < MEMO_MAX_KEYS:
                            key, first = opened
                            end = len(found)
                            if end > first:
                                prefix = used_masks[idx]
                                for u in path:
                                    prefix |= 1 << u
                                memo[key] = (first, end, prefix, len(path))
                            else:
                                memo[key] = ()
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
                        path = route[-1]
                        path.append(v)
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
                            stale = bit
                            if ends & (ends - 1):
                                pieces = split_components(adj, comp, ends)
                                if len(pieces) > 1:
                                    stale = -1
                                comps = comps[:i] + pieces + comps[i + 1:]
                            else:
                                comps = comps.copy()
                                if ends:
                                    comps[i] = comp
                                else:
                                    del comps[i]
                            labels = comps, labelled ^ bit
                        else:
                            # A component no label covers may have split
                            # unseen: every pair is re-tested.
                            stale = -1
                        key = None
                        if nodes > memo_from:
                            # Look the child up before entering it, so a
                            # hit costs no node.
                            key, labels = _region_key(adj, search_pairs, idx, v, free, labels)
                            entry = memo.get(key)
                            if entry is not None:
                                if entry:
                                    complete(free, entry, path)
                                path.pop()
                                continue
                            if idx == last and (key[2] or adj[v] >> t & 1):
                                stale = 0  # the key showed the pair joinable
                        break
                    # Closing a pair leaves free, and so the labels and
                    # every pair test, as they are.
                    done_paths.append(tuple(route[-1]) + (t,))
                    if idx == last:
                        complete(free)
                        done_paths.pop()
                        continue
                    used_masks.append(None)
                    idx += 1
                    head, t = search_pairs[idx]
                    key = None
                    if memo is not None:
                        key, labels = _region_key(adj, search_pairs, idx, head, free, labels)
                        frame[4] = labels
                        entry = memo.get(key)
                        if entry is not None:
                            if entry:
                                complete(free, entry, (head,))
                            done_paths.pop()
                            used_masks.pop()
                            continue
                    if idx == plain_last and nodes <= memo_from:
                        labels = no_labels  # only a memo key reads them
                    stale = 0
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

    if search_pairs is not pairs:
        # Report the paths in input pair order.
        back = sorted(range(len(proc)), key=proc.__getitem__)
        found = [tuple([paths[j] for j in back]) for paths in found]
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
    """Enumerate all solutions with no prunes whatsoever.

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

    try:
        recurse(0, set(), [])
    finally:
        # recurse reaches itself through its closure.  Breaking that cycle
        # frees both closures and what they hold on return, not at the
        # next cyclic GC pass.
        del recurse
    found.sort()
    solutions = tuple(Linkage(paths, graph) for paths in found)
    status = STATUS_SOLVABLE if solutions else STATUS_UNSOLVABLE
    return SolveOutcome(status, solutions, nodes, time.monotonic() - start)


def spans_all_vertices(linkage: Linkage) -> bool:
    return len(linkage.vertices()) == linkage.host.vertex_count


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

    Deleting v drops its edges: G - v is solved as the same instance
    without them, so vertex ids, pairs and layout stay as they are.

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
    graph = instance.graph
    for v in candidates:
        left = deadline - time.monotonic()
        if left <= 0:
            indeterminate.add(v)
            continue
        without_v = replace(graph, edges=frozenset(e for e in graph.edges if v not in e))
        outcome = solve(
            replace(instance, graph=without_v), mode="decide",
            max_nodes=max_nodes, max_seconds=left,
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


def is_vital_linkage(
    graph: Graph,
    linkage: Linkage,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
) -> bool:
    """Decide whether a linkage is vital in the sense of Robertson and
    Seymour (Graph Minors XXI): it uses every vertex of graph, and no
    other linkage, spanning or not, joins the same endpoint pairs.

    One solve counts the linkages with the input's endpoint pairs up to
    a cap of 2, within max_nodes and max_seconds.  Raises SearchAborted
    if it blows its budget, and ValueError if linkage is not a spanning
    linkage of graph.
    """
    instance = Instance(graph, tuple((p[0], p[-1]) for p in linkage.paths))
    check_linkage(instance, linkage.paths, require_spanning=True)
    outcome = solve(instance, mode="count_up_to", cap=2,
                    max_nodes=max_nodes, max_seconds=max_seconds)
    if outcome.status == STATUS_ABORTED:
        raise SearchAborted("same-pattern count exceeded budget")
    if len(outcome.solutions) == 2:
        return False
    if outcome.solutions != (linkage,):
        raise AssertionError("input linkage not rediscovered by the count")
    return True
