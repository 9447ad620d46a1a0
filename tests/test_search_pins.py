"""Pinned search trajectories of solve().

Node counts are deterministic, so they fix exactly which search nodes
the pruning keeps.  Each row records nodes_explored, the number of
solutions and a digest of the solution list for one instance and knob
setting; any change to a prune (or to the neighbor or pair order) shows
up here as a count change, not only as a timing change.
"""

import hashlib

import pytest

from gridlinkage import build_instance, solve


def _digest(outcome) -> str:
    text = repr([link.paths for link in outcome.solutions])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (s0 placement, k, order, pair_order, require_spanning, mode,
#  nodes_explored, solutions, digest)
PINNED = [
    ("top-right", 1, "ascending", "input", False, "decide", 11, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "ascending", "input", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "ascending", "input", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "ascending", "input", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "ascending", "auto", False, "decide", 11, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "ascending", "auto", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "ascending", "auto", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "ascending", "auto", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "input", False, "decide", 10, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "min-degree", "input", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "min-degree", "input", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "input", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "auto", False, "decide", 10, 1, "cf8bf5051e2e4f85"),
    ("top-right", 1, "min-degree", "auto", False, "enumerate_all", 16, 4, "7e2fb66e33969f96"),
    ("top-right", 1, "min-degree", "auto", True, "decide", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 1, "min-degree", "auto", True, "enumerate_all", 13, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "input", False, "decide", 557, 1, "4f8d37990eec55aa"),
    ("top-right", 2, "ascending", "input", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "ascending", "input", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "input", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "auto", False, "decide", 557, 1, "4f8d37990eec55aa"),
    ("top-right", 2, "ascending", "auto", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "ascending", "auto", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "ascending", "auto", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "input", False, "decide", 377, 1, "a0539ad537b5d30f"),
    ("top-right", 2, "min-degree", "input", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "min-degree", "input", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "input", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "auto", False, "decide", 377, 1, "a0539ad537b5d30f"),
    ("top-right", 2, "min-degree", "auto", False, "enumerate_all", 765, 21, "56d0a50f88f6f994"),
    ("top-right", 2, "min-degree", "auto", True, "decide", 379, 0, "4f53cda18c2baa0c"),
    ("top-right", 2, "min-degree", "auto", True, "enumerate_all", 379, 0, "4f53cda18c2baa0c"),
    ("bottom-left", 1, "ascending", "input", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "input", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "input", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "input", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "ascending", "auto", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "input", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", False, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", False, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", True, "decide", 8, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 1, "min-degree", "auto", True, "enumerate_all", 9, 1, "6c6d3ee8eafd8e1c"),
    ("bottom-left", 2, "ascending", "input", False, "decide", 243, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "input", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "input", True, "decide", 175, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", False, "decide", 243, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", True, "decide", 175, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "ascending", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", False, "decide", 188, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", True, "decide", 124, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "input", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", False, "decide", 188, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", False, "enumerate_all", 671, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", True, "decide", 124, 1, "6e105fb5e878d798"),
    ("bottom-left", 2, "min-degree", "auto", True, "enumerate_all", 361, 1, "6e105fb5e878d798"),
]


@pytest.mark.parametrize(
    "placement,k,order,pair_order,spanning,mode,nodes,count,digest", PINNED
)
def test_search_pinned(placement, k, order, pair_order, spanning, mode, nodes, count, digest):
    out = solve(
        build_instance(k, s0_placement=placement),
        mode=mode,
        require_spanning=spanning,
        order=order,
        pair_order=pair_order,
    )
    assert (out.nodes_explored, len(out.solutions), _digest(out)) == (nodes, count, digest)


def test_unique_solutions_pinned():
    assert solve(build_instance(1, s0_placement="bottom-left")).solutions[0].paths == (
        (0, 1, 2, 8, 7, 6), (3, 4, 5),
    )
    assert solve(build_instance(2, s0_placement="bottom-left")).solutions[0].paths == (
        (0, 1, 2, 3, 4, 24, 23, 22, 21, 20),
        (10, 11, 12, 13, 14),
        (5, 6, 7, 8, 9, 19, 18, 17, 16, 15),
    )


def test_k3_spanning_search_pinned():
    out = solve(
        build_instance(3, s0_placement="bottom-left"),
        require_spanning=True,
        order="min-degree",
        pair_order="auto",
    )
    assert out.nodes_explored == 70685
    assert tuple(link.paths for link in out.solutions) == ((
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 80, 79, 78, 77, 76, 75, 74, 73, 72),
        (36, 37, 38, 39, 40, 41, 42, 43, 44),
        (18, 19, 20, 21, 22, 23, 24, 25, 26, 62, 61, 60, 59, 58, 57, 56, 55, 54),
        (9, 10, 11, 12, 13, 14, 15, 16, 17, 71, 70, 69, 68, 67, 66, 65, 64, 63,
         45, 46, 47, 48, 49, 50, 51, 52, 53, 35, 34, 33, 32, 31, 30, 29, 28, 27),
    ),)
