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
separation).  It branches by the two rules of Coudert, Mazauric & Nisse
("Experimental evaluation of a branch and bound algorithm for computing
pathwidth", SEA 2014).  A closing move, one that places the last
unplaced neighbour of a boundary vertex, never grows the boundary; the
boundary size is submodular, so some layout within w places it next if
any does, and the search commits to the best one without trying its
siblings.  Where there is none, every move opens a boundary slot, so the
moves are tried in vertex order without scoring.  Certificates are plain
vertex orders; independent re-checkers recompute their width from
scratch.

The deepening descends.  A greedy order gives an upper bound, and the
search tries each width from one below it down until a width fails or
the contraction degeneracy lower bound is passed.  All the widths of a
component share one memo of refuted states: a state with no completion
within w + 1 has none within w, so a refutation stays true all the way
down.
The certificate is the one a search at the optimal width with a fresh
memo finds, since the carried memo only cuts subtrees that hold no
solution.  A search skips a child state already refuted before calling
it, so nodes_explored (and max_nodes) count only the states searched:
a pathwidth child is looked up under its placed set before absorption,
and the rare one found refuted only after absorbing still costs a node.

Budgets cap search nodes and wall time.  A blown budget degrades the
result to the best upper bound found (the greedy one, or the last width
the descent reached) flagged exact=False, with the lower bound proven
so far beside it; it never guesses.
width_checks() runs several searches under one budget and judges each
against the 2^k + 1 width of the grid a constructed instance is built
on: PASS, FAIL, or INDETERMINATE for an inexact result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable

from .bitsets import components, iter_bits
from .graphs import Graph

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
    found; the certificate still evaluates to value.  lower_bound is
    the width proven so far; it equals value when exact.
    """

    kind: str
    value: int
    certificate: tuple[int, ...]
    exact: bool
    nodes_explored: int
    lower_bound: int


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
    adj = graph.masks
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
    adj = graph.masks
    placed = 0
    worst = 0
    for v in seq:
        placed |= 1 << v
        boundary = sum(1 for u in iter_bits(placed) if adj[u] & ~placed)
        worst = max(worst, boundary)
    return worst


def _contraction_bound(
    adj: list[int], comp: int, deadline: float, least_common: bool
) -> int:
    # Contract a minimum-degree vertex into its neighbour of least degree
    # (min-d) or sharing the fewest neighbours with it (least-c), over
    # and over; the largest minimum degree seen is the bound.  comp is
    # connected and stays so, so v always has a neighbour.  Past the
    # deadline the bound so far stands.
    nb = [a & comp for a in adj]
    best = 0
    rest = comp
    while rest & (rest - 1) and time.monotonic() <= deadline:
        v = min(iter_bits(rest), key=lambda x: (nb[x].bit_count(), x))
        nv = nb[v]
        best = max(best, nv.bit_count())
        u = min(iter_bits(nv), key=lambda x: (
            (nb[x] & nv if least_common else nb[x]).bit_count(), x))
        bu = 1 << u
        for x in iter_bits(nv ^ bu):
            nb[x] = nb[x] ^ (1 << v) | bu
        nb[u] = (nb[u] | nv) & ~(1 << v | bu)
        rest ^= 1 << v
    return best


def _contraction_degeneracy(adj: list[int], comp: int, deadline: float) -> int:
    # Contraction degeneracy (MMD+; Bodlaender, Koster & Wolle, 2006), the
    # larger of two rules since neither dominates.  Each graph reached is
    # a minor of comp, so it bounds treewidth (and pathwidth) from below,
    # and the survivors keep every edge amongst themselves, so it is never
    # below the degeneracy.
    return max(_contraction_bound(adj, comp, deadline, rule) for rule in (False, True))


def _eliminate(nbrs: list[int], v: int) -> list[int]:
    # Residual neighbour masks once v is eliminated: v's neighbours
    # become a clique and lose v, every other mask stays as it is.  This
    # is the closure view, since the residual graph depends only on the
    # set removed.  Returns a new list; v's own entry goes stale and is
    # never read again.
    out = list(nbrs)
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
# vertex rather than recounted.  near holds the unplaced vertices that
# are the one unplaced neighbour left of some boundary vertex: placing
# one drops that boundary vertex, so it never grows the boundary.  Only
# these closing moves are ever scored.  nb holds each vertex's
# neighbours inside the component being laid out, rest the vertices not
# placed yet.


def _still_open(nb: list[int], boundary: int, rest: int) -> int:
    # Members of boundary that still have a neighbour in rest.
    m = boundary
    while m:
        low = m & -m
        m ^= low
        if not nb[low.bit_length() - 1] & rest:
            boundary ^= low
    return boundary


def _closing_move(
    nb: list[int], boundary: int, rest: int
) -> tuple[int, int, int] | None:
    # The best move into near: (size, v, boundary) after placing v next,
    # lowest by (size, v), or None when near is empty.  Placing v adds v
    # if it keeps an unplaced neighbour and drops the boundary vertices
    # whose one unplaced neighbour was v (sole).
    sole = 0
    near = 0
    m = boundary
    while m:
        low = m & -m
        m ^= low
        left = nb[low.bit_length() - 1] & rest
        if not left & (left - 1):
            sole |= low
            near |= left
    best = None
    while near:
        low = near & -near
        near ^= low
        v = low.bit_length() - 1
        grown = boundary & ~(nb[v] & sole) | (low if nb[v] & (rest ^ low) else 0)
        if best is None or grown.bit_count() < best[0]:
            best = (grown.bit_count(), v, grown)
    return best


def _greedy_layout(
    adj: list[int], comp: int, deadline: float
) -> tuple[int, list[int]]:
    # Pathwidth upper bound: greedy sweep from every start vertex,
    # always placing next whatever keeps the boundary smallest, the
    # lowest vertex among equals.  Only three kinds of move can win.  A
    # closing move drops a boundary vertex, so it keeps the boundary
    # within its size, and _closing_move picks the best of them.  Any
    # other move keeps the boundary and adds itself unless it has no
    # unplaced neighbour (lonely), so of those only the lowest lonely
    # vertex, or failing one the lowest unplaced vertex, can win; one
    # that is also in near scores lower as a closing move.  lonely
    # gains the last move's neighbours that _still_open no longer finds
    # open.  The clock is read before each start and every 64
    # placements; past the deadline the sweep under way is dropped and
    # the best complete layout so far stands, and the search that
    # follows then stops at its first node.
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
        lonely = nb[start] ^ _still_open(nb, nb[start], rest)
        width = boundary.bit_count()
        while rest and width < best_width:
            if not len(order) % 64 and time.monotonic() > deadline:
                return best_width, best_order
            size = boundary.bit_count()
            pick = lonely or rest
            v = (pick & -pick).bit_length() - 1
            move = (size, v, boundary) if lonely else (size + 1, v, boundary | 1 << v)
            size, v, boundary = min(move, _closing_move(nb, boundary, rest) or move)
            width = max(width, size)
            rest ^= 1 << v
            fresh = nb[v] & rest
            lonely = (lonely | fresh ^ _still_open(nb, fresh, rest)) & rest
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

    # A refuted child is skipped before the call, without a node.
    for _, v in sorted(candidates):
        if comp ^ (1 << v) in failed:
            continue
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
    # tries each width from one below it down, keeping every order it
    # finds, until a width fails or the contraction degeneracy lower
    # bound is passed; the last order found is optimal.  One failed set
    # serves every width of a component: a state with no completion
    # within w + 1 has none within w.  A blown budget keeps the best so
    # far, and a component whose descent did not finish proves only its
    # lower bound.
    n = graph.vertex_count
    if n == 0:
        raise ValueError("width of the empty graph is not defined here")
    adj = graph.masks
    budget = _Budget(max_nodes, max_seconds)

    comps = components(adj, (1 << n) - 1)
    per_comp = [upper(adj, comp, budget.deadline) for comp in comps]
    # No clique bound: omega - 1 <= degeneracy (Bodlaender-Koster).
    lows = [_contraction_degeneracy(adj, comp, budget.deadline) for comp in comps]
    exact = True
    try:
        for i, comp in enumerate(comps):
            failed: set[int] = set()
            for w in range(per_comp[i][0] - 1, lows[i] - 1, -1):
                order = decide(adj, comp, w, budget, failed)
                if order is None:
                    break
                per_comp[i] = (w, order)
            lows[i] = per_comp[i][0]
    except _WidthBudget:
        exact = False

    value = max(width for width, _ in per_comp)
    certificate = tuple(v for _, order in per_comp for v in order)
    return WidthResult(kind, value, certificate, exact, budget.nodes, max(lows))


def treewidth_exact(
    graph: Graph,
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> WidthResult:
    """Exact treewidth with an optimal elimination order as certificate.

    Per connected component, the search descends from one below a
    greedy min-fill upper bound, one width at a time, and stops at the
    first width with no order or once it has passed the contraction
    degeneracy lower bound.  Refuted vertex subsets are memoized once
    for all the widths of a component: a subset with no order within
    w + 1 has none within w.  nodes_explored and max_nodes count
    searched subsets only; a child already refuted is skipped without a
    node.  Budget exhaustion returns the best upper bound found (the
    greedy one or the last width the search reached), flagged
    exact=False, with the lower bound proven so far in lower_bound.
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
        # over every unplaced vertex would, in the same order.  Afterwards
        # every unplaced vertex has an unplaced neighbour, so a move
        # outside near keeps the whole boundary and adds itself.
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

        # Two rules pick the moves (Coudert, Mazauric & Nisse, "Experimental
        # evaluation of a branch and bound algorithm for computing
        # pathwidth", SEA 2014).  Rule 1: when near is not empty, commit
        # to the best closing move and try no sibling.  A closing move v
        # drops a boundary vertex and adds at most v, so with f the
        # boundary size, f(placed + v) <= f(placed).  f is submodular,
        # so for any later placed set A holding placed but not v,
        # f(A + v) <= f(A) + f(placed + v) - f(placed) <= f(A): a layout
        # within w from here can place v next.  Every other move grows
        # the boundary by one, so this one would come first in (size, v)
        # order anyway, and the certificate is the one a search of every
        # move finds.  Rule 2: otherwise every move opens a slot,
        # boundary | 1 << v, so while there is room each v is tried in
        # ascending order without scoring.  A closing move's boundary
        # already holds v, since v keeps an unplaced neighbour.
        move = _closing_move(nb, boundary, rest)
        if move is not None:
            _, v, boundary = move
            moves = 1 << v
        else:
            moves = rest if boundary.bit_count() < w else 0
        # A refuted child is recorded under its key before absorption,
        # the one this loop sees, as well as under its absorbed key (it
        # records that itself).  Absorbing never widens a boundary, so
        # the two keys are refuted together, and a refuted child is
        # skipped without a call.
        for v in iter_bits(moves):
            child = placed | 1 << v
            if child in failed:
                continue
            order.append(v)
            result = search(rest ^ (1 << v), boundary | 1 << v, nb[v] & rest, order)
            if result is not None:
                return result
            order.pop()
            failed.add(child)
        failed.add(placed)
        del order[len(order) - absorbed:]
        return None

    try:
        return search(comp, 0, comp, [])
    finally:
        # search reaches itself through its closure.  Breaking that cycle
        # frees the memo set on return, not at the next cyclic GC pass.
        del search


def pathwidth_exact(
    graph: Graph,
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> WidthResult:
    """Exact pathwidth with an optimal layout as certificate.

    Vertex-separation search: per connected component, lower the
    allowed boundary size from one below a greedy layout's width until
    no left-to-right layout keeps every prefix within it, or until the
    contraction degeneracy lower bound is passed.  Where a move closes
    a boundary vertex (places its last unplaced neighbour), the search
    commits to the best such move, which is sound since the boundary
    size is submodular; otherwise it tries every move, each of which
    opens a boundary slot, in vertex order (Coudert, Mazauric & Nisse,
    SEA 2014).  The layout found is the one a search of every move in
    (boundary size, vertex) order finds.  Refuted placed sets
    are memoized once for all the widths of a component: a placed set
    with no layout within w + 1 has none within w.  nodes_explored and
    max_nodes count searched placed sets only; a move onto a set already
    refuted is skipped without a node.  Budget exhaustion returns the
    best upper bound found (the greedy one or the last width the search
    reached), flagged exact=False, with the lower bound proven so far in
    lower_bound.
    """
    return _deepen(
        KIND_PATHWIDTH, graph, max_nodes, max_seconds, _greedy_layout, _pw_decide
    )


def width_checks(
    graph: Graph,
    k: int | None = None,
    searches: Iterable[Callable[[Graph, int, float], WidthResult]] = (
        treewidth_exact,
        pathwidth_exact,
    ),
    max_nodes: int = DEFAULT_WIDTH_NODE_BUDGET,
    max_seconds: float = DEFAULT_WIDTH_TIME_BUDGET,
) -> tuple[int | None, list[tuple[WidthResult, str]]]:
    """Run width searches in turn under one budget and judge each result
    against 2^k + 1, the width of the (2^k+1) x (2^k+1) grid that
    instance k is built on.

    Returns (bound, [(result, verdict), ...]), bound None when k is.
    Each search gets the nodes and seconds the ones before it left, and
    each result's nodes_explored counts its own search only.  Each
    result's lower_bound is raised to the best one a treewidth result
    before it proved, which bounds pathwidth too since pw >= tw.
    verdict is INDETERMINATE when the result is inexact, since an upper
    bound proves nothing; FAIL when the exact value is below the bound;
    and PASS otherwise.
    """
    bound = None if k is None else 2**k + 1
    deadline = time.monotonic() + max_seconds
    checks = []
    for search in searches:
        result = search(graph, max_nodes, deadline - time.monotonic())
        max_nodes -= result.nodes_explored
        proven = [r.lower_bound for r, _ in checks if r.kind == KIND_TREEWIDTH]
        result = replace(result, lower_bound=max([result.lower_bound, *proven]))
        if not result.exact:
            verdict = "INDETERMINATE"
        elif bound is not None and result.value < bound:
            verdict = "FAIL"
        else:
            verdict = "PASS"
        checks.append((result, verdict))
    return bound, checks
