"""Exact treewidth and pathwidth for small graphs.

Treewidth is found by iterative deepening over elimination orders: a
width-w order exists iff vertices can be removed one at a time so that
nobody has more than w neighbours at the moment of removal, where two
survivors count as neighbours whenever the original graph joins them
through already-removed vertices.  That closure view means the residual
graph depends only on the *set* removed, never the order, so failed
subsets memoize soundly.  The search does not recompute the closure: it
carries every survivor's residual neighbour mask down the search and
updates it per eliminated vertex, whose neighbours become a clique.
That update keeps a connected graph connected, so components split off
once, before the search.  Pathwidth runs the same deepening, through
the same _deepen(), over vertex layouts scored by boundary size (vertex
separation).  Certificates are plain vertex orders; independent
re-checkers recompute their width from scratch.

Budgets cap search nodes and wall time.  A blown budget degrades the
result to a greedy upper bound flagged exact=False, it never guesses.
Several searches share one budget through widths_within_budget().
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from .bitsets import adjacency_masks, components, iter_bits
from .graphs import Graph
from .solver import Instance

DEFAULT_WIDTH_NODE_BUDGET = 20_000_000
DEFAULT_WIDTH_TIME_BUDGET = 300.0

KIND_TREEWIDTH = "treewidth"
KIND_PATHWIDTH = "pathwidth"


class _WidthBudget(Exception):
    pass


@dataclass(frozen=True)
class WidthResult:
    """Width value plus the order that certifies it.

    certificate is an elimination order for treewidth, a left-to-right
    layout for pathwidth, always covering every vertex.  exact=False
    means the budget ran out and value is only the best upper bound
    found; the certificate still evaluates to value.
    """

    kind: str
    value: int
    certificate: tuple[int, ...]
    exact: bool
    nodes_explored: int


def _closure_neighbors(adj: list[int], remaining: int, v: int) -> int:
    # Survivors adjacent to v once everything outside `remaining` is
    # eliminated: walk through eliminated vertices, stop at survivors.
    seen = 1 << v
    out = 0
    frontier = adj[v] & ~seen
    while frontier:
        seen |= frontier
        out |= frontier & remaining
        grow = 0
        for u in iter_bits(frontier & ~remaining):
            grow |= adj[u]
        frontier = grow & ~seen
    return out


def width_of_elimination_order(graph: Graph, order: Iterable[int]) -> int:
    """Recompute the width an elimination order achieves.

    Independent certificate checker: simulates the elimination from the
    original edges alone and returns the largest neighbour count seen at
    any removal.  Raises ValueError unless order is a permutation of the
    vertices.
    """
    seq = tuple(order)
    n = graph.vertex_count
    if sorted(seq) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    if n == 0:
        return -1
    adj = adjacency_masks(graph)
    remaining = (1 << n) - 1
    worst = 0
    for v in seq:
        remaining &= ~(1 << v)
        worst = max(worst, _closure_neighbors(adj, remaining, v).bit_count())
    return worst


def width_of_layout(graph: Graph, order: Iterable[int]) -> int:
    """Recompute the vertex-separation width of a layout.

    For each prefix of the order, counts placed vertices that still have
    an unplaced neighbour; returns the largest such count.  Raises
    ValueError unless order is a permutation of the vertices.
    """
    seq = tuple(order)
    n = graph.vertex_count
    if sorted(seq) != list(range(n)):
        raise ValueError("order must be a permutation of all vertices")
    if n == 0:
        return -1
    adj = adjacency_masks(graph)
    placed = 0
    worst = 0
    for v in seq:
        placed |= 1 << v
        boundary = sum(1 for u in iter_bits(placed) if adj[u] & ~placed)
        worst = max(worst, boundary)
    return worst


def _degeneracy(adj: list[int], comp: int, deadline: float) -> int:
    # Past the deadline the bound reached so far stands; it is still a
    # lower bound, since each minimum degree seen is at most the
    # degeneracy.
    rest = comp
    best = 0
    while rest and time.monotonic() <= deadline:
        v = min(iter_bits(rest), key=lambda u: ((adj[u] & rest).bit_count(), u))
        best = max(best, (adj[v] & rest).bit_count())
        rest &= ~(1 << v)
    return best


def _max_clique(adj: list[int], comp: int) -> int:
    best = 0

    def grow(current: int, allowed: int) -> None:
        nonlocal best
        if not allowed:
            best = max(best, current.bit_count())
            return
        if current.bit_count() + allowed.bit_count() <= best:
            return
        pivot = max(iter_bits(allowed), key=lambda u: (adj[u] & allowed).bit_count())
        for v in iter_bits(allowed & ~adj[pivot]):
            grow(current | (1 << v), allowed & adj[v])
            allowed &= ~(1 << v)

    grow(0, comp)
    return best


def _eliminate(nbrs: list[int], v: int) -> list[int]:
    # Residual neighbour masks once v is eliminated: v's neighbours
    # become a clique and lose v, every other mask stays as it is.  This
    # is the closure view, since the residual graph depends only on the
    # set removed.  Returns a new list; v's own entry goes stale and is
    # never read again.
    out = nbrs[:]
    nv = nbrs[v]
    keep = ~(1 << v)
    m = nv
    while m:
        low = m & -m
        m ^= low
        u = low.bit_length() - 1
        out[u] = ((out[u] | nv) ^ low) & keep
    return out


def _fill_in(nbrs: list[int], v: int) -> int:
    # Edges missing amongst v's residual neighbours.
    nv = nbrs[v]
    missing = 0
    m = nv
    while m:
        low = m & -m
        m ^= low
        missing += (nv & ~nbrs[low.bit_length() - 1]).bit_count() - 1
    return missing // 2


def _min_fill_order(
    adj: list[int], comp: int, deadline: float
) -> tuple[int, list[int]]:
    # Greedy upper bound: repeatedly eliminate the vertex whose residual
    # neighbours miss the fewest edges amongst themselves.  The residual
    # masks start as adj (comp is a whole component) and are carried
    # through _eliminate after every choice.  Past the deadline the
    # remaining vertices go in ascending order, and the width reported
    # is still the width of the order returned.
    nbrs = adj
    remaining = comp
    order: list[int] = []
    width = 0
    while remaining:
        if time.monotonic() > deadline:
            best = (remaining & -remaining).bit_length() - 1
        else:
            best = min(
                iter_bits(remaining),
                key=lambda v: (_fill_in(nbrs, v), nbrs[v].bit_count(), v),
            )
        width = max(width, nbrs[best].bit_count())
        nbrs = _eliminate(nbrs, best)
        remaining &= ~(1 << best)
        order.append(best)
    return width, order


# Layout scoring.  A layout's boundary is the set of placed vertices that
# still have an unplaced neighbour; its width is the largest boundary any
# prefix has.  The boundary is kept as a bitmask and updated per placed
# vertex rather than recounted.  nb holds each vertex's neighbours inside
# the component being laid out, rest the vertices not placed yet.


def _still_open(nb: list[int], boundary: int, rest: int) -> int:
    # Members of boundary that still have a neighbour in rest.
    m = boundary
    while m:
        low = m & -m
        m ^= low
        if not nb[low.bit_length() - 1] & rest:
            boundary ^= low
    return boundary


def _moves(
    nb: list[int], boundary: int, rest: int, limit: int
) -> list[tuple[int, int, int]]:
    # (size, v, boundary) after placing v next, for every v in rest
    # whose placement keeps the boundary within limit, ascending by v.
    # Placing v adds v if it keeps an unplaced neighbour and drops the
    # boundary vertices whose one unplaced neighbour was v.
    sole = 0
    m = boundary
    while m:
        low = m & -m
        m ^= low
        left = nb[low.bit_length() - 1] & rest
        if not left & (left - 1):
            sole |= low
    moves = []
    m = rest
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        nbv = nb[v]
        grown = boundary & ~(nbv & sole)
        if nbv & (rest ^ low):
            grown |= low
        size = grown.bit_count()
        if size <= limit:
            moves.append((size, v, grown))
    return moves


def _greedy_layout(
    adj: list[int], comp: int, deadline: float
) -> tuple[int, list[int]]:
    # Pathwidth upper bound: greedy sweep from every start vertex,
    # always placing next whatever keeps the boundary smallest.  Past
    # the deadline no further start is tried and the best layout so far
    # stands; the search that follows then stops at its first node.
    nb = [a & comp for a in adj]
    best_order = sorted(iter_bits(comp))
    best_width = 0
    boundary = 0
    rest = comp
    for v in best_order:
        rest ^= 1 << v
        boundary = _still_open(nb, boundary | (1 << v), rest)
        best_width = max(best_width, boundary.bit_count())
    for start in iter_bits(comp):
        if time.monotonic() > deadline:
            break
        order = [start]
        rest = comp ^ (1 << start)
        boundary = _still_open(nb, 1 << start, rest)
        width = boundary.bit_count()
        while rest and width < best_width:
            size, v, boundary = min(_moves(nb, boundary, rest, comp.bit_count()))
            width = max(width, size)
            rest ^= 1 << v
            order.append(v)
        if not rest and width < best_width:
            best_width = width
            best_order = order
    return best_width, best_order


class _Budget:
    def __init__(self, max_nodes: int, max_seconds: float) -> None:
        self.max_nodes = max_nodes
        self.deadline = time.monotonic() + max_seconds
        self.nodes = 0

    def tick(self) -> None:
        # The clock is read at the first node and every 2048th after it,
        # so a search that starts past the deadline stops at once.
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _WidthBudget
        if self.nodes % 2048 == 1 and time.monotonic() > self.deadline:
            raise _WidthBudget


def _tw_decide(
    nbrs: list[int],
    comp: int,
    w: int,
    budget: _Budget,
    failed: set[int],
    gone: int = -1,
) -> list[int] | None:
    # nbrs holds the parent state's residual neighbour masks and gone the
    # vertex the parent eliminated (-1 at the root, where nbrs already
    # fits comp).  Most nodes are refuted by the memo, so a node makes
    # its own masks only once it is searched.  comp is connected, and
    # elimination keeps it so: no state splits.
    budget.tick()
    if comp.bit_count() <= w + 1:
        return sorted(iter_bits(comp))
    if comp in failed:
        return None
    if gone >= 0:
        nbrs = _eliminate(nbrs, gone)

    # A vertex whose residual neighbours already form a clique pins the
    # state down: eliminate it first without branching, or refute the
    # whole state when that clique is too big for the target width.
    candidates = []
    m = comp
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        nv = nbrs[v]
        # v is simplicial when each neighbour u sees all the others.
        unchecked = nv
        while unchecked:
            lu = unchecked & -unchecked
            if nv & ~nbrs[lu.bit_length() - 1] != lu:
                break
            unchecked ^= lu
        deg = nv.bit_count()
        if not unchecked:
            if deg > w:
                failed.add(comp)
                return None
            sub = _tw_decide(nbrs, comp ^ low, w, budget, failed, v)
            if sub is None:
                failed.add(comp)
                return None
            return [v] + sub
        if deg <= w:
            candidates.append((deg, v))

    for _, v in sorted(candidates):
        sub = _tw_decide(nbrs, comp ^ (1 << v), w, budget, failed, v)
        if sub is not None:
            return [v] + sub
    failed.add(comp)
    return None


def _deepen(
    kind: str,
    graph: Graph,
    max_nodes: int,
    max_seconds: float,
    upper: Callable[[list[int], int, float], tuple[int, list[int]]],
    decide: Callable[[list[int], int, int, _Budget, set[int]], list[int] | None],
) -> WidthResult:
    # Per component: upper() gives a greedy (width, order), then decide()
    # tries each width from the degeneracy/clique lower bound up; the
    # first order found is optimal.  A blown budget keeps the best so far.
    n = graph.vertex_count
    if n == 0:
        raise ValueError("width of the empty graph is not defined here")
    adj = adjacency_masks(graph)
    budget = _Budget(max_nodes, max_seconds)

    comps = components(adj, (1 << n) - 1)
    per_comp = [upper(adj, comp, budget.deadline) for comp in comps]
    exact = True
    try:
        for i, comp in enumerate(comps):
            ub, _ = per_comp[i]
            lb = max(_degeneracy(adj, comp, budget.deadline), _max_clique(adj, comp) - 1)
            for w in range(lb, ub):
                order = decide(adj, comp, w, budget, set())
                if order is not None:
                    per_comp[i] = (w, order)
                    break
    except _WidthBudget:
        exact = False

    value = max(width for width, _ in per_comp)
    certificate = tuple(v for _, order in per_comp for v in order)
    return WidthResult(kind, value, certificate, exact, budget.nodes)


def treewidth_exact(
    graph: Graph,
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> WidthResult:
    """Exact treewidth with an optimal elimination order as certificate.

    Iterative deepening between a degeneracy/clique lower bound and a
    greedy min-fill upper bound, splitting on connected components and
    memoizing refuted subsets per width.  Budget exhaustion returns the
    best upper bound found, flagged exact=False.
    """
    return _deepen(
        KIND_TREEWIDTH, graph, max_nodes, max_seconds, _min_fill_order, _tw_decide
    )


def _pw_decide(
    adj: list[int],
    comp: int,
    w: int,
    budget: _Budget,
    failed: set[int],
) -> list[int] | None:
    nb = [a & comp for a in adj]

    def search(
        rest: int, boundary: int, fresh: int, order: list[int]
    ) -> list[int] | None:
        budget.tick()
        # Absorb vertices with nothing left outside; they never widen
        # the boundary and any layout can be rearranged to take them now.
        # Absorbing one never makes another absorbable (all its
        # neighbours are placed already), and only the vertices in fresh
        # (the last move's unplaced neighbours) can have lost their last
        # unplaced neighbour since the parent's absorption, so one
        # ascending pass over fresh absorbs exactly what repeated passes
        # over every unplaced vertex would, in the same order.
        absorbed = 0
        m = fresh
        while m:
            low = m & -m
            m ^= low
            if not nb[low.bit_length() - 1] & (rest ^ low):
                rest ^= low
                absorbed += 1
                order.append(low.bit_length() - 1)
        if not rest:
            return list(order)
        placed = comp ^ rest
        if placed in failed:
            del order[len(order) - absorbed:]
            return None
        if absorbed:
            boundary = _still_open(nb, boundary, rest)

        for _, v, grown in sorted(_moves(nb, boundary, rest, w)):
            order.append(v)
            result = search(rest ^ (1 << v), grown, nb[v] & rest, order)
            if result is not None:
                return result
            order.pop()
        failed.add(placed)
        del order[len(order) - absorbed:]
        return None

    return search(comp, 0, comp, [])


def pathwidth_exact(
    graph: Graph,
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> WidthResult:
    """Exact pathwidth with an optimal layout as certificate.

    Vertex-separation search: deepen the allowed boundary size until
    some left-to-right layout keeps every prefix within it.  Refuted
    placed-sets memoize per width; components split.  Budget exhaustion
    returns the best upper bound found, flagged exact=False.
    """
    return _deepen(
        KIND_PATHWIDTH, graph, max_nodes, max_seconds, _greedy_layout, _pw_decide
    )


def widths_within_budget(
    graph: Graph,
    searches: Iterable[Callable[[Graph, int, float], WidthResult]],
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> list[WidthResult]:
    """Run width searches in turn under one budget: each gets the nodes
    and seconds the ones before it left.  Each result's nodes_explored
    counts its own search only."""
    deadline = time.monotonic() + max_seconds
    results = []
    for search in searches:
        result = search(graph, max_nodes, deadline - time.monotonic())
        max_nodes -= result.nodes_explored
        results.append(result)
    return results


@dataclass(frozen=True)
class WidthBoundReport:
    """Exact widths of a constructed instance against its grid bound.

    satisfied is None when either computation blew its budget, in which
    case the values are upper bounds and prove nothing.
    """

    k: int
    bound: int
    treewidth: WidthResult
    pathwidth: WidthResult
    linkage_components: int
    satisfied: bool | None


def verify_width_lower_bound(
    instance: Instance,
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> WidthBoundReport:
    """Check a built instance's graph is as wide as its grid demands.

    Computes exact treewidth and pathwidth and compares both against
    2^k + 1, the width of the underlying (2^k+1) x (2^k+1) grid; the
    report also carries the solution's path count k + 1, the pair of
    numbers the construction is designed to exhibit together.
    """
    k = instance.construction_k()
    if k is None:
        raise ValueError("instance carries no construction parameter k")
    bound = 2 ** k + 1
    tw, pw = widths_within_budget(
        instance.graph, (treewidth_exact, pathwidth_exact), max_nodes, max_seconds
    )
    if not (tw.exact and pw.exact):
        satisfied = None
    else:
        satisfied = tw.value >= bound and pw.value >= bound
    return WidthBoundReport(k, bound, tw, pw, k + 1, satisfied)
