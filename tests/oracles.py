"""Independent reference implementations used only by the test suite.

Nothing here imports solver internals: crossing counts come from split
enumeration over path indices, widths from trying whole vertex orders
and from breadth-first search over placed sets, the frontier DP's
completion verdicts from every non-crossing partial matching of the
ends, and the graph family is rebuilt from scratch with its own
canonical form.  Known sequence values (connected graphs up to isomorphism:
1, 1, 2, 6, 21, 112, 853) pin the generator itself.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from gridlinkage import Graph, GridLayout, inner_vertices

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def split_crossing_oracle(path: tuple[int, ...], layout: GridLayout) -> int | None:
    """Maximum number of consecutive segments that each cross the grid.

    Dynamic program over split positions; a segment crosses when both
    of its endpoints are non-inner and some strictly interior vertex of
    the segment is inner.  None when the whole path cannot take part in
    any decomposition because an endpoint is inner.
    """
    inner = inner_vertices(layout)
    if path[0] in inner or path[-1] in inner:
        return None
    n = len(path)
    best = [-1] * n
    best[0] = 0
    for i in range(1, n):
        if path[i] in inner:
            continue
        for j in range(i):
            if best[j] < 0:
                continue
            if any(path[x] in inner for x in range(j + 1, i)):
                best[i] = max(best[i], best[j] + 1)
    return max(best[n - 1], 0)


def split_crossing_exhaustive(path: tuple[int, ...], layout: GridLayout) -> int | None:
    """Literal enumeration of every split-point subset; small paths only."""
    inner = inner_vertices(layout)
    if path[0] in inner or path[-1] in inner:
        return None
    n = len(path)

    def crosses(a: int, b: int) -> bool:
        return (
            path[a] not in inner
            and path[b] not in inner
            and any(path[x] in inner for x in range(a + 1, b))
        )

    best = 0
    interior = range(1, n - 1)
    for r in range(0, n - 1):
        for splits in itertools.combinations(interior, r):
            cuts = [0, *splits, n - 1]
            if all(crosses(a, b) for a, b in zip(cuts, cuts[1:])):
                best = max(best, r + 1)
    return best


def _wl_classes(n: int, adj: list[set[int]]) -> list[int]:
    # Iterated neighbour-class refinement; stable colouring as ints.
    color = [len(adj[v]) for v in range(n)]
    for _ in range(n):
        signature = [
            (color[v], tuple(sorted(color[u] for u in adj[v]))) for v in range(n)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        fresh = [palette[sig] for sig in signature]
        if fresh == color:
            break
        color = fresh
    return color


def canonical_form(n: int, edges: frozenset[tuple[int, int]]) -> tuple:
    """Minimum edge tuple over colour-respecting relabelings."""
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    color = _wl_classes(n, adj)
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        classes.setdefault(c, []).append(v)
    groups = [classes[c] for c in sorted(classes)]

    best = None
    for perms in itertools.product(*(itertools.permutations(g) for g in groups)):
        mapping = {}
        slot = 0
        for perm in perms:
            for v in perm:
                mapping[v] = slot
                slot += 1
        relabeled = tuple(sorted(
            tuple(sorted((mapping[a], mapping[b]))) for a, b in edges
        ))
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


@lru_cache(maxsize=None)
def connected_graphs(max_n: int) -> tuple[Graph, ...]:
    """Every connected graph with 1..max_n vertices, one per iso class.

    Grown by attaching a fresh vertex to each nonempty subset of every
    smaller graph; any connected graph shrinks to a connected graph by
    deleting a spanning-tree leaf, so the expansion is complete.
    """
    by_size: list[list[frozenset[tuple[int, int]]]] = [[], [frozenset()]]
    for n in range(2, max_n + 1):
        seen: dict[tuple, frozenset[tuple[int, int]]] = {}
        fresh = n - 1
        for smaller in by_size[n - 1]:
            for mask in range(1, 1 << (n - 1)):
                extra = frozenset(
                    (v, fresh) for v in range(n - 1) if mask >> v & 1
                )
                edges = smaller | extra
                key = canonical_form(n, edges)
                if key not in seen:
                    seen[key] = edges
        by_size.append([seen[key] for key in sorted(seen)])

    out: list[Graph] = []
    for n in range(1, max_n + 1):
        if n > len(by_size) - 1:
            break
        for edges in by_size[n]:
            out.append(Graph.from_edges(n, edges))
    return tuple(out)


def brute_treewidth(graph: Graph) -> int:
    """Minimum over all elimination orders of the largest degree hit."""
    n = graph.vertex_count
    if n == 0:
        return -1
    best = n - 1

    def residual_degree(adj: list[set[int]], v: int) -> int:
        return len(adj[v])

    def eliminate(adj: list[set[int]], v: int) -> list[set[int]]:
        nxt = [set(s) for s in adj]
        nbrs = nxt[v]
        for u in nbrs:
            nxt[u].discard(v)
            nxt[u].update(w for w in nbrs if w != u)
        nxt[v] = set()
        return nxt

    base = [set(graph.adjacency[v]) for v in range(n)]

    def walk(adj: list[set[int]], remaining: frozenset[int], worst: int) -> None:
        nonlocal best
        if worst >= best:
            return
        if not remaining:
            best = worst
            return
        for v in remaining:
            walk(
                eliminate(adj, v),
                remaining - {v},
                max(worst, residual_degree(adj, v)),
            )

    walk(base, frozenset(range(n)), 0)
    return best


def brute_pathwidth(graph: Graph) -> int:
    """Minimum over all vertex orders of the largest prefix boundary."""
    n = graph.vertex_count
    if n == 0:
        return -1
    adj = [set(graph.adjacency[v]) for v in range(n)]
    best = n - 1

    def walk(placed: frozenset[int], worst: int) -> None:
        nonlocal best
        if worst >= best:
            return
        if len(placed) == n:
            best = worst
            return
        for v in range(n):
            if v in placed:
                continue
            nxt = placed | {v}
            boundary = sum(1 for u in nxt if adj[u] - nxt)
            walk(nxt, max(worst, boundary))

    walk(frozenset(), 0)
    return best


def layout_within(graph: Graph, w: int) -> bool:
    """Whether the vertices can be placed one at a time so that no prefix
    has more than w placed vertices with an unplaced neighbour.

    Breadth-first over placed sets, one level per placed vertex, each
    level holding every set reachable through prefixes within w.  Every
    unplaced vertex is tried at every set: nothing is absorbed, no move
    is preferred, and nothing is remembered from another width.
    """
    n = graph.vertex_count
    adj = graph.masks
    level = {0}
    for _ in range(n):
        reached: set[int] = set()
        wide: set[int] = set()
        for placed in level:
            for v in range(n):
                grown = placed | 1 << v
                if grown == placed or grown in reached or grown in wide:
                    continue
                boundary = sum(
                    1 for u in range(n) if grown >> u & 1 and adj[u] & ~grown
                )
                (reached if boundary <= w else wide).add(grown)
        if not reached:
            return False
        level = reached
    return True


def all_simple_paths_with_border_ends(
    graph: Graph,
    layout: GridLayout,
    max_vertices: int,
):
    """Every simple path with <= max_vertices vertices and non-inner ends.

    Yields each path once (smaller endpoint first).  Grown from every
    non-inner start by plain DFS; prefixes ending at inner vertices are
    extended but not yielded.
    """
    inner = inner_vertices(layout)
    adjacency = graph.adjacency
    n = graph.vertex_count

    def extend(path: list[int], used: set[int]):
        head = path[-1]
        if head not in inner and path[0] <= head and len(path) >= 1:
            yield tuple(path)
        if len(path) == max_vertices:
            return
        for w in adjacency[head]:
            if w not in used:
                path.append(w)
                used.add(w)
                yield from extend(path, used)
                path.pop()
                used.remove(w)

    for start in range(n):
        if start in inner:
            continue
        yield from extend([start], {start})


def _partial_matchings(points: list[int]):
    """Every non-crossing partial matching of points, in order, as
    (matched pairs, unmatched points): the Motzkin recursion, where the
    first point is unmatched or matched to some later j, and the points
    inside and outside (first, j) are matched apart."""
    if not points:
        yield [], []
        return
    first, rest = points[0], points[1:]
    for pairs, single in _partial_matchings(rest):
        yield pairs, [first, *single]
    for k, j in enumerate(rest):
        for inner, inner_single in _partial_matchings(rest[:k]):
            for outer, outer_single in _partial_matchings(rest[k + 1:]):
                yield [(first, j), *inner, *outer], inner_single + outer_single


def _hand_out(single: list[int], left: dict[int, int]):
    """Every way to give each point of single its own terminal still to
    come, as a list of labels; left counts the terminals per label."""
    if not single:
        yield []
        return
    for label, count in left.items():
        if count:
            left[label] = count - 1
            for rest in _hand_out(single[1:], left):
                yield [label, *rest]
            left[label] = count


def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def completable_oracle(ends: tuple[int, ...], wild: tuple[tuple[int, int], ...]) -> bool:
    """Whether the open ends of a frontier state can be completed inside
    the disc, by brute force and without a memo.

    Each end is a pair label (negative) or the index of the other end of
    its fragment; wild holds (label, how many) terminals still to come.
    Some non-crossing partial matching of the ends must, with each
    unmatched end run to a terminal still to come of its own, form no
    cycle with the fragments, and every resulting path must end at two
    terminals of one label.  A terminal still to come may stay unused.
    """
    n = len(ends)
    fragments = [(i, m) for i, m in enumerate(ends) if m > i]
    labelled = [(i, m) for i, m in enumerate(ends) if m < 0]
    for pairs, single in _partial_matchings(list(range(n))):
        parent = list(range(n))
        for i, j in fragments + pairs:
            ri, rj = _root(parent, i), _root(parent, j)
            if ri == rj:
                break  # the match closes a cycle
            parent[ri] = rj
        else:
            # Each end has a fragment side and a frontier side, so an
            # acyclic chain of ends carries exactly two labels, one at
            # each of its two terminals.
            root = [_root(parent, i) for i in range(n)]
            for labels in _hand_out(single, dict(wild)):
                chains: dict[int, list[int]] = {}
                for i, label in labelled + list(zip(single, labels)):
                    chains.setdefault(root[i], []).append(label)
                if all(a == b for a, b in chains.values()):
                    return True
    return False
