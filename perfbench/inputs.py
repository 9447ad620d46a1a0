"""Seeded input generators owned by the benchmark.

Everything here returns plain data (vertex counts, edge lists, terminal
pairs) built from `random.Random` alone, so a change to the package can
never change what a workload runs.  `digest()` pins each generated input
in the workload manifest.

Instance costs spread over two to three orders of magnitude, so a fresh
draw per seed moved the timings of the enumerate and width workloads by
15-60 % and the oracle tail by 25 %.  Each workload therefore takes a
fixed population, drawn once from POPULATION_SEED, and the run's seed
relabels every vertex with a random permutation: every seed searches
instances of the same size with the same answers, in a different vertex
order.
"""

from __future__ import annotations

import hashlib
import json
import random

# Oracle strata: every (vertex count, mean degree, pair count) cell gets
# the same share of instances, so the seed only draws edges and
# terminals.  Mean degree stays at or below 2.5: denser 12-vertex graphs
# make single brute-force enumerations take seconds, which would swamp
# the per-call cost this workload exists to expose.
ORACLE_STRATA = tuple(
    (n, degree, pairs)
    for n in range(4, 13)
    for degree in (1.5, 2.0, 2.5)
    for pairs in (1, 2, 3)
    if 2 * pairs <= n
)

# Enumerate strata: (rows, cols, pairs).  The 6x6 grid is left out: an
# exhaustive non-spanning enumeration of one solvable 6x6 draw takes
# 3-20 s on a shared 2-vCPU Xeon, more than a tenth of a pass.  5x6 with 3 pairs is the largest
# shape that stays under half a second per op.
ENUMERATE_STRATA = ((5, 5, 2), (5, 5, 3), (5, 6, 3))

# Every size from 14 to 18, so width op costs spread evenly from
# milliseconds to a second, with no gap for a reported quantile to sit on.
WIDTH_RANDOM_SIZES = (14, 15, 16, 17, 18)

POPULATION_SEED = 20101109


def digest(obj: object) -> str:
    """sha256 of the canonical JSON form of plain data."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_population(count: int) -> list[dict]:
    """`count` tiny random instances, cycling through ORACLE_STRATA."""
    rng = random.Random(f"oracle/{POPULATION_SEED}")
    out = []
    for i in range(count):
        n, degree, pairs = ORACLE_STRATA[i % len(ORACLE_STRATA)]
        p = min(1.0, degree / (n - 1))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        terminals = rng.sample(range(n), 2 * pairs)
        out.append({
            "n": n,
            "edges": edges,
            "pairs": [(terminals[2 * j], terminals[2 * j + 1]) for j in range(pairs)],
        })
    return out


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Row-major rows x cols lattice: vertex r*cols+c, 4-neighbour edges."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def border_cycle(rows: int, cols: int) -> list[int]:
    """Border vertices of the lattice in clockwise order from (0, 0)."""
    top = [c for c in range(cols)]
    right = [r * cols + cols - 1 for r in range(1, rows)]
    bottom = [(rows - 1) * cols + c for c in range(cols - 2, -1, -1)]
    left = [r * cols for r in range(rows - 2, 0, -1)]
    return top + right + bottom + left


def _crossing(pairs: list[tuple[int, int]], position: dict[int, int]) -> bool:
    # Two border pairs interleave when exactly one end of the second lies
    # on the clockwise arc strictly between the ends of the first.
    for i, (a, b) in enumerate(pairs):
        lo, hi = sorted((position[a], position[b]))
        for c, d in pairs[i + 1:]:
            if (lo < position[c] < hi) != (lo < position[d] < hi):
                return True
    return False


def relabel(data: dict, rng: random.Random) -> dict:
    """Copy of an instance with vertex v renamed perm[v]; keeps perm."""
    perm = list(range(data["n"]))
    rng.shuffle(perm)
    out = dict(data, perm=perm, edges=sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in data["edges"]))
    if "pairs" in data:
        out["pairs"] = [(perm[s], perm[t]) for s, t in data["pairs"]]
    return out


def enumerate_population(per_stratum: int) -> list[dict]:
    """Border-terminal grid instances, `per_stratum` per ENUMERATE_STRATA row.

    Two draws in three have non-interleaved pairs (almost always
    solvable, many solutions), the third interleaves (unsolvable on a
    planar grid).  With that mix no quantile the benchmark reports sits
    on the boundary between the cheap and the expensive ops, where it
    would jump from run to run.
    """
    rng = random.Random(f"enumerate/{POPULATION_SEED}")
    out = []
    for rows, cols, k in ENUMERATE_STRATA:
        ring = border_cycle(rows, cols)
        position = {v: i for i, v in enumerate(ring)}
        for i in range(per_stratum):
            want_crossing = i % 3 == 2
            while True:
                terminals = rng.sample(ring, 2 * k)
                pairs = [(terminals[2 * j], terminals[2 * j + 1]) for j in range(k)]
                if _crossing(pairs, position) == want_crossing:
                    break
            out.append({"rows": rows, "cols": cols, "n": rows * cols,
                        "edges": grid_edges(rows, cols), "pairs": pairs})
    return out


def relabeled(population: list[dict], name: str, seed: int) -> list[dict]:
    """`population` with every instance relabeled by the run's seed."""
    rng = random.Random(f"{name}/{seed}")
    return [relabel(data, rng) for data in population]


def sparse_connected_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    """Random spanning tree on n vertices plus `extra` further edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    while len(edges) < n - 1 + extra:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def width_random_graphs(per_size: int) -> list[dict]:
    """`per_size` sparse connected graphs (2n-1 edges) per WIDTH_RANDOM_SIZES."""
    rng = random.Random(f"width/{POPULATION_SEED}")
    return [
        {"n": n, "edges": sparse_connected_graph(rng, n, n)}
        for n in WIDTH_RANDOM_SIZES
        for _ in range(per_size)
    ]
