"""Seeded random instances for cross-checking the solver.

Sizes stay at oracle scale on purpose: every instance drawn here must
be cheap enough for the unpruned reference enumeration.  A fixed seed
reproduces the exact same batch on every platform.
"""

from __future__ import annotations

import random
from typing import Iterator

from .graphs import Graph
from .solver import Instance


def random_instance(
    rng: random.Random,
    max_vertices: int = 12,
    max_pairs: int = 3,
) -> Instance:
    """One random instance; may well be unsolvable, that is the point."""
    if max_vertices < 2:
        raise ValueError("need room for at least one terminal pair")
    if max_pairs < 1:
        raise ValueError(f"max_pairs must be at least 1, got {max_pairs}")
    n = rng.randint(2, max_vertices)
    density = rng.uniform(0.15, 0.6)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    k = rng.randint(1, max(1, min(max_pairs, n // 2)))
    terminals = rng.sample(range(n), 2 * k)
    pairs = [(terminals[2 * i], terminals[2 * i + 1]) for i in range(k)]
    return Instance.make(Graph.from_edges(n, edges), pairs)


def random_batch(
    seed: int,
    count: int,
    max_vertices: int = 12,
    max_pairs: int = 3,
) -> Iterator[Instance]:
    """Deterministic stream of `count` random instances."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(rng, max_vertices, max_pairs)
