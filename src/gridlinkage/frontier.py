"""Exact linkage counting by a frontier dynamic programme.

count_linkages() counts every linkage of an instance, the edge sets in
which each pair is joined by a path and the paths share no vertex.
Blocked vertices count as deleted, and with require_spanning a linkage
must also use every vertex that is not blocked.  It is a SIMPATH-style
frontier search (Knuth, TAOCP 7.1.4; Kawahara et al., "Frontier-based
search for enumerating all constrained subgraphs with compressed
representation", 2017).  Vertices enter one at a time, and
each edge is decided, taken or left out, when its later endpoint
enters.  A vertex leaves the frontier after its last edge is
decided.  A state records, for each frontier vertex, one of:

- degree 0: unused, or a terminal still waiting for its one edge;
- done: no further edge may touch it (a terminal with its edge, or a
  non-terminal with two);
- an open end of a path fragment: a non-terminal with one edge.  The
  end carries the pair label when the fragment holds a terminal, and
  otherwise the frontier slot of the fragment's other end (its mate).

Taking an edge is refused when it would touch a done vertex, close a
cycle (join an end to its own mate) or join fragments of two different
pairs.  A vertex leaves only as done, or with degree 0 when it is not
a terminal and the linkage need not span; a blocked vertex never enters,
since none of its edges is scheduled.  Partial edge sets that reach the
same state have the same completions, so states merge and carry a count;
the count of the one state left at the end is the number of linkages.
Each state also keeps the edges of the first partial set that reached
it, the vertices that every partial set reaching it uses (merged by
AND) and the edges that some partial set reaching it uses (merged by
OR).  So the answer comes with one witness linkage, the vertices that
all linkages share and the edges that at least one linkage uses; solve()
searches only the last.

The entry order sets the frontier's width and so the number of states.
With a grid layout vertices enter column by column, which keeps the
frontier to one column plus one vertex; without one they enter
greedily, each next vertex the one with the most neighbours already
placed.  Budgets bound the run, and at a budget the answer is
"aborted", never a guess.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Iterable

from .bitsets import iter_bits
from .graphs import Edge
from .solver import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    STATUS_UNSOLVABLE,
    Instance,
    Linkage,
    check_blocked,
)

# Live states allowed in a step's output; past it the count is aborted,
# so memory stays bounded whatever the budgets say.  A state costs about
# 0.5 KB (tuple, dict entry, count, witness), and a step holds its input
# and its output, so a run stays near 100 MB.  The calibrated k = 3
# instance peaks at a few hundred states; the k = 4 one reaches the cap,
# which solve() then meets before it searches on every edge.
MAX_STATES = 100_000

# The slot values of a state; a value below DONE is a pair label
# -(i + 1), a value above it is the mate slot j + 2.
_FREE = 0
_DONE = 1


@dataclass(frozen=True)
class LinkageCount:
    """What count_linkages() found.

    status is STATUS_SOLVABLE (count >= 1), STATUS_UNSOLVABLE (count 0)
    or STATUS_ABORTED, in which case count and witness are None and
    limit names the budget that ran out ("nodes", "states" or
    "seconds").  used_by_all holds the vertices every linkage uses; it
    is None unless the count is at least 1.  used_by_some holds the
    edges at least one linkage uses, each (u, v) with u < v; it is empty
    when the count is 0 and None when the run aborted.  nodes is the
    number of state expansions, peak_states the largest number of live
    states a step produced.
    """

    status: str
    count: int | None
    witness: Linkage | None
    used_by_all: frozenset[int] | None
    used_by_some: frozenset[Edge] | None
    nodes: int
    peak_states: int
    limit: str | None = None


class _Abort(Exception):
    def __init__(self, limit: str) -> None:
        super().__init__(limit)
        self.limit = limit


# One edge step: the edge (u, v) with u < v, the step's own bit, its
# two vertices as a bitmask, the slots of u and v, their labels (the
# pair label of a terminal, _FREE for any other vertex) and the vertices
# whose last edge it is, as (slot, may leave with degree 0).
_Step = tuple[tuple[int, int], int, int, int, int, int, int, tuple[tuple[int, bool], ...]]


def _order(instance: Instance) -> list[int]:
    """Column-major (col, row) order from the grid layout, vertices off
    the lattice last.  Without a layout, a greedy order: next comes the
    vertex with the most neighbours already placed, then the one with
    the fewest neighbours, then the lowest number."""
    n = instance.graph.vertex_count
    if instance.layout is not None:
        cells = instance.layout.cells
        order = sorted(cells, key=lambda v: (cells[v][1], cells[v][0]))
        return order + [v for v in range(n) if v not in cells]
    adjacency = instance.graph.adjacency
    placed_neighbours = [0] * n
    placed = [False] * n
    # Entries are (-placed neighbours, degree, vertex); an entry whose
    # count has since grown is stale and skipped.
    heap = [(0, len(adjacency[v]), v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        minus_placed, _, v = heapq.heappop(heap)
        if placed[v] or -minus_placed != placed_neighbours[v]:
            continue
        placed[v] = True
        order.append(v)
        for w in adjacency[v]:
            if not placed[w]:
                placed_neighbours[w] += 1
                heapq.heappush(heap, (-placed_neighbours[w], len(adjacency[w]), w))
    return order


def _schedule(
    instance: Instance, require_spanning: bool, blocked: int
) -> tuple[list[_Step], int] | None:
    """The edge steps of a run in order, and the number of slots.

    A vertex takes the lowest free slot when it enters and frees it after
    its last edge.  The edges of blocked vertices are left out.  Returns
    None when a vertex every linkage must use has no edges: a terminal,
    or under require_spanning any vertex not blocked.
    """
    graph = instance.graph
    n = graph.vertex_count
    order = _order(instance)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    label = [_FREE] * n
    for i, (s, t) in enumerate(instance.pairs):
        label[s] = label[t] = -(i + 1)
    adjacency = graph.adjacency
    if blocked:
        adjacency = [
            () if blocked >> v & 1 else [w for w in adjacency[v] if not blocked >> w & 1]
            for v in range(n)
        ]
    must_use = [bool(label[v]) or require_spanning and not blocked >> v & 1 for v in range(n)]
    if any(not adjacency[v] and must_use[v] for v in range(n)):
        return None
    # A vertex's last edge is decided when its last neighbour enters.
    last = [max((position[w] for w in adjacency[v]), default=-1) for v in range(n)]
    slot = [-1] * n
    free_slots: list[int] = []
    width = 0
    steps: list[_Step] = []
    for v in order:
        if not adjacency[v]:
            continue
        if free_slots:
            slot[v] = free_slots.pop()
        else:
            slot[v] = width
            width += 1
        back = sorted((position[u], u) for u in adjacency[v] if position[u] < position[v])
        gone_here: list[int] = []
        for j, (_, u) in enumerate(back):
            gone = [u] if last[u] == position[v] else []
            if j == len(back) - 1 and last[v] < position[v]:
                gone.append(v)
            steps.append(((u, v) if u < v else (v, u), 1 << len(steps), 1 << u | 1 << v,
                          slot[u], slot[v], label[u], label[v],
                          tuple((slot[w], not must_use[w]) for w in gone)))
            gone_here.extend(gone)
        # Highest first, so pop() hands out the lowest free slot.
        free_slots.extend(slot[w] for w in gone_here)
        free_slots.sort(reverse=True)
    return steps, width


def _leave(s: list[int], leaving: tuple[tuple[int, bool], ...]) -> tuple[int, ...] | None:
    """State s with the leaving slots cleared, or None when one of them
    may not leave as it is: only done, or degree 0 where allowed."""
    for j, free_ok in leaving:
        value = s[j]
        if value == _DONE:
            s[j] = _FREE
        elif value != _FREE or not free_ok:
            return None
    return tuple(s)


def count_linkages(
    instance: Instance,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    max_seconds: float = DEFAULT_TIME_BUDGET,
    *,
    require_spanning: bool = False,
    blocked: Iterable[int] = (),
) -> LinkageCount:
    """Count the linkages of instance exactly, with one witness, the
    vertices that all of them use and the edges that some of them use.

    Vertices in blocked are deleted, as in solve(), and with
    require_spanning a linkage must use every other vertex.  Each state
    expanded at an edge step is one node against max_nodes, and
    max_seconds is one deadline for the whole run.  The run also stops
    once a step produces more than MAX_STATES states.  Any of the three
    ends it as STATUS_ABORTED.
    """
    deadline = time.monotonic() + max_seconds
    plan = _schedule(instance, require_spanning, check_blocked(instance, blocked))
    if plan is None:
        return LinkageCount(STATUS_UNSOLVABLE, 0, None, None, frozenset(), 0, 1)
    steps, width = plan
    # counts maps a state to [number of partial edge sets reaching it,
    # edges of the first one as a linked list (edge, rest) or None,
    # bitmask of the vertices that all of them use, bitmask of the steps
    # whose edge some of them take].
    root = (_FREE,) * width
    counts: dict[tuple[int, ...], list] = {root: [1, None, 0, 0]}
    nodes = 0
    peak = 1
    try:
        for edge, step_bit, bits, a, b, la, lb, leaving in steps:
            if time.monotonic() > deadline:
                raise _Abort("seconds")
            if nodes + len(counts) > max_nodes:
                raise _Abort("nodes")
            next_counts: dict[tuple[int, ...], list] = {}
            get = next_counts.get
            for state, (c, first, used, some) in counts.items():
                nodes += 1
                if not nodes & 4095:
                    if time.monotonic() > deadline:
                        raise _Abort("seconds")
                    if len(next_counts) > MAX_STATES:
                        peak = len(next_counts)
                        raise _Abort("states")
                # Leave the edge out.
                child = _leave(list(state), leaving) if leaving else state
                if child is not None:
                    entry = get(child)
                    if entry is None:
                        next_counts[child] = [c, first, used, some]
                    else:
                        entry[0] += c
                        entry[2] &= used
                        entry[3] |= some
                # Take it.
                x, y = state[a], state[b]
                if x == _DONE or y == _DONE:
                    continue
                x = x or la
                y = y or lb
                s = list(state)
                s[a] = s[b] = _DONE
                if x == _FREE:
                    if y == _FREE:
                        s[a], s[b] = b + 2, a + 2
                    else:
                        s[a] = y
                        if y > _DONE:
                            s[y - 2] = a + 2
                elif y == _FREE:
                    s[b] = x
                    if x > _DONE:
                        s[x - 2] = b + 2
                elif x < _DONE:
                    if y < _DONE:
                        if x != y:
                            continue  # two different pairs
                    else:
                        s[y - 2] = x
                elif y < _DONE:
                    s[x - 2] = y
                elif x == b + 2:
                    continue  # b is a's mate: the edge closes a cycle
                else:
                    s[x - 2], s[y - 2] = y, x
                child = _leave(s, leaving) if leaving else tuple(s)
                if child is not None:
                    entry = get(child)
                    used |= bits
                    some |= step_bit
                    if entry is None:
                        next_counts[child] = [c, (edge, first), used, some]
                    else:
                        entry[0] += c
                        entry[2] &= used
                        entry[3] |= some
            counts = next_counts
            if len(counts) > peak:
                peak = len(counts)
                if peak > MAX_STATES:
                    raise _Abort("states")
    except _Abort as stop:
        return LinkageCount(STATUS_ABORTED, None, None, None, None, nodes, peak, stop.limit)
    # Every vertex has left, so at most the all-free state is left.
    if root not in counts:
        return LinkageCount(STATUS_UNSOLVABLE, 0, None, None, frozenset(), nodes, peak)
    total, chain, used, some = counts[root]
    used_by_some = frozenset(steps[i][0] for i in iter_bits(some))
    return LinkageCount(STATUS_SOLVABLE, total, _witness(instance, chain),
                        frozenset(iter_bits(used)), used_by_some, nodes, peak)


def _witness(instance: Instance, chain: tuple | None) -> Linkage:
    """The linkage whose edges the linked list chain holds."""
    near: dict[int, list[int]] = {}
    while chain is not None:
        (u, v), chain = chain
        near.setdefault(u, []).append(v)
        near.setdefault(v, []).append(u)
    paths = []
    for s, t in instance.pairs:
        path = [s]
        prev, v = -1, s
        while v != t:
            ends = near[v]
            prev, v = v, ends[0] if ends[0] != prev else ends[1]
            path.append(v)
        paths.append(tuple(path))
    return Linkage(tuple(paths), instance.graph)
