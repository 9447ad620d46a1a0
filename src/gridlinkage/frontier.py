"""Exact linkage counting by a frontier dynamic programme.

count_linkages() counts every linkage of an instance, the edge sets in
which each pair is joined by a path and the paths share no vertex.
With require_spanning a linkage must also use every vertex.  It is a
SIMPATH-style frontier search (Knuth, TAOCP 7.1.4; Kawahara et al.,
"Frontier-based search for enumerating all constrained subgraphs with
compressed representation", 2017).  Vertices enter one at a time, and
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
a terminal and the linkage need not span; a vertex without edges never
enters.  Partial edge sets that reach the same state have the same
completions, so states merge and carry a count; the count of the one
state left at the end is the number of linkages.  Each state also
keeps the vertices that every partial set reaching it uses (merged by
AND) and the edges that some partial set reaching it uses (merged by
OR).  So the answer comes with the vertices that all linkages share
and the edges that at least one linkage uses; solve() searches only
the last.  A count has no canonical member, so the answer names a
linkage only when there is exactly one: its edges are then the edges
some linkage uses, and the witness is traced from them.

The entry order sets the frontier's width and so the number of states.
With a grid layout vertices enter column by column, which keeps the
frontier to one column plus one vertex; without one they enter
component by component in the greedy layout that bounds pathwidth
(width._greedy_layout), whose vertex separation is the frontier's
width.  That sweep reads the count's deadline; past it the best layout
found so far stands, and the count stops at its first step.  Budgets
bound the run, and at a budget the answer is "aborted", never a guess.

On a layout of at least PRUNE_MIN_ROWS rows two prunes drop states
that no completion reaches; the count without a layout, which runs
neither, stays the independent reference.

- Degree: under require_spanning a non-terminal still at degree 0
  with one undecided edge left can never reach degree 2.
- Non-crossing completion.  The test checks every new state at each
  step where the layout draws the graph without crossings (lattice
  edges, and nested arcs outside the border), the frontier has at most
  one vertex per row, and every undecided edge at a frontier vertex is
  a unit lattice edge; a bypass arc with one endpoint entered turns it
  off.  A curve through the frontier vertices in row order, closed
  around the decided part, then bounds a disc that holds every
  undecided vertex and edge, since the arcs still to come lie outside
  the border beyond the frontier's columns.  Disjoint paths inside a
  disc that join points of its boundary cannot cross (Robertson and
  Seymour, "Graph Minors VI. Disjoint paths across a disc", 1986; the
  connectivity rule of transfer matrices, Jacobsen, J. Phys. A 40,
  2007).  So the test reads a state's open ends top to bottom: a
  terminal at degree 0 is an end with its pair label, an end of a
  fragment carries its label or its mate, and a non-terminal at degree
  0 is no end.  A terminal still to come may sit anywhere in the disc,
  so an end may run to it freely, one end per such terminal.  The
  state survives when the other ends pair up in a nested matching
  that, glued to the fragments already built, joins each pair's two
  terminals and closes no cycle.  The verdict depends only on the ends
  and the terminals still to come, so it is cached on them for the
  run.

A pruned state has no completion, and every state a completion passes
through has one, so no count or merged set changes: only nodes and
peak_states drop.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable

from .bitsets import components, iter_bits
from .graphs import Edge, is_planar_certificate
from .solver import (
    DEFAULT_NODE_BUDGET,
    DEFAULT_TIME_BUDGET,
    STATUS_ABORTED,
    STATUS_SOLVABLE,
    STATUS_UNSOLVABLE,
    Instance,
    Linkage,
)
from .width import _greedy_layout

# Live states allowed in a step's output; past it the count is aborted,
# so memory stays bounded whatever the budgets say.  A state costs about
# 0.5 KB (tuple, dict entry, count, merged sets), and a step holds its
# input and its output, so a run stays near 100 MB.  With the prunes the
# calibrated k = 4 instance peaks at 4,801 states; the k = 5 one reaches
# the cap inside its first column, and solve() then searches on every
# edge.
MAX_STATES = 100_000

# Layouts with fewer rows are counted without the prunes.  Their
# frontier holds at most six vertices, so a count expands a few hundred
# states at most, and setting the prunes up costs more than they save:
# with the gate off the k = 1 and k = 2 counts take 151 and 340 us
# against 79 and 189, at the same 13 and 43 nodes, and
# calibrate_arc_rule(2) 5.3 ms against 3.2 (Python 3.11, 2-core x86).
PRUNE_MIN_ROWS = 6

# The slot values of a state; a value below DONE is a pair label
# -(i + 1), a value above it is the mate slot j + 2.
_FREE = 0
_DONE = 1


@dataclass(frozen=True)
class LinkageCount:
    """What count_linkages() found.

    status is STATUS_SOLVABLE (count >= 1), STATUS_UNSOLVABLE (count 0)
    or STATUS_ABORTED, in which case count is None and limit names the
    budget that ran out ("nodes", "states" or "seconds").  witness is
    the linkage when the count is 1, and None otherwise.  used_by_all
    holds the vertices every linkage uses; it is None unless the count
    is at least 1.  used_by_some holds the edges at least one linkage
    uses, each (u, v) with u < v; it is empty when the count is 0 and
    None when the run aborted.  nodes is the number of state expansions,
    peak_states the largest number of live states a step produced; only
    these two depend on the entry order.
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


# A step's prunes: the slots of the non-terminals it leaves with one
# undecided edge (require_spanning only); the frontier slots top to
# bottom, each with its vertex's label, or None where the non-crossing
# test does not run; and the terminals still to come as ((label, how
# many), ...).
_Check = tuple[tuple[int, ...], tuple[tuple[int, int], ...] | None,
               tuple[tuple[int, int], ...] | None]
# One edge step: the edge (u, v) with u < v, the step's own bit, its
# two vertices as a bitmask, the slots of u and v, their labels (the
# pair label of a terminal, _FREE for any other vertex), the vertices
# whose last edge it is, as (slot, may leave with degree 0), and the
# step's prunes, None when none applies.
_Step = tuple[tuple[int, int], int, int, int, int, int, int, tuple[tuple[int, bool], ...],
              _Check | None]


def _order(instance: Instance, deadline: float) -> list[int]:
    """Column-major (col, row) order of the layout's cells, which hold
    every vertex.  Without a layout, each component's greedy pathwidth
    layout (width._greedy_layout), which keeps the frontier narrow;
    past the deadline that is the best layout found so far."""
    if instance.layout is not None:
        cells = instance.layout.cells
        return sorted(cells, key=lambda v: (cells[v][1], cells[v][0]))
    adj = instance.graph.masks
    return [v for comp in components(adj, (1 << instance.graph.vertex_count) - 1)
            for v in _greedy_layout(adj, comp, deadline)[1]]


def _schedule(
    instance: Instance, require_spanning: bool, deadline: float
) -> tuple[list[_Step], int] | None:
    """The edge steps of a run in order, and the number of slots.

    A vertex takes the lowest free slot when it enters and frees it after
    its last edge.  Returns None when a vertex every linkage must use
    has no edges: a terminal, or under require_spanning any vertex.

    On a layout of at least PRUNE_MIN_ROWS rows each step also carries
    its prunes (see the module docstring): under require_spanning the
    non-terminals it leaves with one undecided edge, and the frontier
    in row order wherever the non-crossing test applies.
    """
    graph = instance.graph
    n = graph.vertex_count
    order = _order(instance, deadline)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    label = [_FREE] * n
    for i, (s, t) in enumerate(instance.pairs):
        label[s] = label[t] = -(i + 1)
    adjacency = graph.adjacency
    must_use = [bool(label[v]) or require_spanning for v in range(n)]
    if any(not adjacency[v] and must_use[v] for v in range(n)):
        return None
    # A vertex's last edge is decided when its last neighbour enters.
    last = [max((position[w] for w in adjacency[v]), default=-1) for v in range(n)]
    slot = [-1] * n
    free_slots: list[int] = []
    width = 0
    steps: list[_Step] = []
    # The count without a layout stays the reference: no prune there.
    layout = instance.layout
    pruned = layout is not None and layout.rows >= PRUNE_MIN_ROWS
    remaining = [len(adjacency[v]) for v in range(n)] if pruned and require_spanning else []
    wild = None
    planar = pruned and is_planar_certificate(graph, layout)
    if planar:
        # arcs[v] counts v's undecided edges that are not unit lattice
        # edges, arced the frontier vertices with one, crowded the rows
        # with more than one frontier vertex.
        arc_edges = {e for e in graph.edges if layout.arc_side(*e) is not None}
        arcs = [0] * n
        for u, w in arc_edges:
            arcs[u] += 1
            arcs[w] += 1
        arced = crowded = 0
        row_of = [layout.cells[v][0] for v in range(n)]
        by_row: list[list[int]] = [[] for _ in range(layout.rows + 1)]
        slot_label: list[tuple[int, int]] = [(0, 0)] * n
        to_come: dict[int, int] = {}
        for v in range(n):
            if label[v]:
                to_come[label[v]] = to_come.get(label[v], 0) + 1
        wild = tuple(sorted(to_come.items()))
    for v in order:
        if not adjacency[v]:
            continue
        if free_slots:
            slot[v] = free_slots.pop()
        else:
            slot[v] = width
            width += 1
        if planar:
            slot_label[v] = (slot[v], label[v])
            row = by_row[row_of[v]]
            row.append(v)
            if len(row) == 2:
                crowded += 1
            if arcs[v]:
                arced += 1
            if label[v]:
                to_come[label[v]] -= 1
                wild = tuple(sorted((x, k) for x, k in to_come.items() if k))
        back = sorted((position[u], u) for u in adjacency[v] if position[u] < position[v])
        gone_here: list[int] = []
        for j, (_, u) in enumerate(back):
            gone = [u] if last[u] == position[v] else []
            if j == len(back) - 1 and last[v] < position[v]:
                gone.append(v)
            edge = (u, v) if u < v else (v, u)
            check = None
            if pruned:
                thin = ()
                if require_spanning:
                    remaining[u] -= 1
                    remaining[v] -= 1
                    thin = tuple(slot[w] for w in (u, v) if remaining[w] == 1 and not label[w])
                rows = None
                if planar:
                    if edge in arc_edges:
                        arcs[u] -= 1
                        arcs[v] -= 1
                        arced -= (arcs[u] == 0) + (arcs[v] == 0)
                    for w in gone:
                        row = by_row[row_of[w]]
                        if len(row) == 2:
                            crowded -= 1
                        row.remove(w)
                    if not arced and not crowded:
                        # Top to bottom; an empty frontier has nothing to test.
                        rows = tuple(map(slot_label.__getitem__,
                                         itertools.chain.from_iterable(reversed(by_row)))) or None
                if thin or rows:
                    check = (thin, rows, wild)
            steps.append((edge, 1 << len(steps), 1 << u | 1 << v,
                          slot[u], slot[v], label[u], label[v],
                          tuple((slot[w], not must_use[w]) for w in gone),
                          check))
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
) -> LinkageCount:
    """Count the linkages of instance exactly, with the vertices that
    all of them use, the edges that some of them use and, when there is
    exactly one, the linkage itself.

    With require_spanning a linkage must use every vertex.  Each state
    expanded at an edge step is one node against max_nodes, and
    max_seconds is one deadline for the whole run.  The run also stops
    once a step produces more than MAX_STATES states.  Any of the three
    ends it as STATUS_ABORTED.
    """
    deadline = time.monotonic() + max_seconds
    plan = _schedule(instance, require_spanning, deadline)
    if plan is None:
        return LinkageCount(STATUS_UNSOLVABLE, 0, None, None, frozenset(), 0, 1)
    steps, width = plan
    # counts maps a state to [number of partial edge sets reaching it,
    # bitmask of the vertices that all of them use, bitmask of the steps
    # whose edge some of them take].
    root = (_FREE,) * width
    counts: dict[tuple[int, ...], list] = {root: [1, 0, 0]}
    nodes = 0
    peak = 1
    # Non-crossing verdicts by the ends read, for the whole run.
    verdicts: dict[tuple, bool] = {}
    try:
        for _, step_bit, bits, a, b, la, lb, leaving, check in steps:
            if time.monotonic() > deadline:
                raise _Abort("seconds")
            if nodes + len(counts) > max_nodes:
                raise _Abort("nodes")
            next_counts: dict[tuple[int, ...], list] = {}
            get = next_counts.get
            for state, (c, used, some) in counts.items():
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
                        if check is None or _alive(child, check, verdicts):
                            next_counts[child] = [c, used, some]
                    else:
                        entry[0] += c
                        entry[1] &= used
                        entry[2] |= some
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
                        if check is None or _alive(child, check, verdicts):
                            next_counts[child] = [c, used, some]
                    else:
                        entry[0] += c
                        entry[1] &= used
                        entry[2] |= some
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
    total, used, some = counts[root]
    used_by_some = frozenset(steps[i][0] for i in iter_bits(some))
    return LinkageCount(STATUS_SOLVABLE, total,
                        _witness(instance, used_by_some) if total == 1 else None,
                        frozenset(iter_bits(used)), used_by_some, nodes, peak)


def _alive(state: tuple[int, ...], check: _Check, verdicts: dict[tuple, bool]) -> bool:
    """Whether state survives the step's prunes."""
    thin, rows, wild = check
    for j in thin:
        if state[j] == _FREE:
            return False
    if rows is None:
        return True
    key = (_ends(state, rows), wild)
    verdict = verdicts.get(key)
    if verdict is None:
        verdict = verdicts[key] = _completable(*key)
    return verdict


def _ends(state: tuple[int, ...], rows: tuple[tuple[int, int], ...]) -> tuple[int, ...]:
    """The open ends of state top to bottom: each is a pair label, or,
    for an end of a fragment without a terminal, the index of its mate
    among the ends."""
    ends: list[int] = []
    waiting: dict[int, int] = {}
    for j, term in rows:
        value = state[j]
        if value < _FREE:
            ends.append(value)
        elif value > _DONE:
            mate = waiting.pop(value - 2, None)
            if mate is None:
                waiting[j] = len(ends)
                ends.append(0)  # set when the mate is read
            else:
                ends[mate] = len(ends)
                ends.append(mate)
        elif value == _FREE and term:
            ends.append(term)  # a terminal still waiting for its edge
    return tuple(ends)


def _completable(ends: tuple[int, ...], wild: tuple[tuple[int, int], ...]) -> bool:
    """Whether the open ends can be completed on the undecided side.

    Each end is joined to another end or to a terminal still to come
    (wild holds how many each pair has).  Paths between ends must not
    cross, so the ends that pair up form a nested matching in row
    order, built with a stack.  Glued to the fragments already built,
    every path must run between the two terminals of one pair, and no
    fragment may close on itself.
    """
    return _settle(0, list(ends), [], dict(wild), set())


def _settle(i: int, ident: list[int], stack: list[int], left: dict[int, int],
            failed: set[tuple]) -> bool:
    """Whether ends i.. can be settled, with the ends on stack still open
    (innermost last).  ident holds each end's label or the index of the
    other end of its fragment, left the terminals still to come per
    label, and failed the canonical positions already refuted."""
    n = len(ident)
    if len(stack) > n - i:
        return False  # each open end needs a later end to join
    if i == n:
        return True
    # The open ends by stack position, the rest by offset.
    at = {j: p for p, j in enumerate(stack)}
    shift = len(stack) - i
    key = (i, *left.values(), *(y if y < 0 else at[y] if y < i else y + shift
                                 for y in [ident[j] for j in stack] + ident[i:]))
    if key in failed:
        return False
    x = ident[i]
    if stack:
        # Join end i to the innermost open end j.
        j = stack.pop()
        y = ident[j]
        if x < 0 and y < 0:
            joined = x == y
        else:
            joined = x != j  # j is i's own mate: the join closes a cycle
        if joined:
            if x >= 0:
                ident[x] = y
            if y >= 0:
                ident[y] = x
            if _settle(i + 1, ident, stack, left, failed):
                return True
            if x >= 0:
                ident[x] = i
            if y >= 0:
                ident[y] = j
        stack.append(j)
    # Leave end i open for a later end.
    stack.append(i)
    if _settle(i + 1, ident, stack, left, failed):
        return True
    stack.pop()
    # Run end i to a terminal still to come.
    for label, count in left.items():
        if count and (x == label or x >= 0):
            left[label] = count - 1
            if x >= 0:
                ident[x] = label
            found = _settle(i + 1, ident, stack, left, failed)
            left[label] = count
            if x >= 0:
                ident[x] = i
            if found:
                return True
    failed.add(key)
    return False


def _witness(instance: Instance, edges: Iterable[Edge]) -> Linkage:
    """The linkage whose edges are edges, each path traced from its s."""
    near: dict[int, list[int]] = {}
    for u, v in edges:
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
