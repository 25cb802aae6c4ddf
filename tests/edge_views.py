"""A graph's edges as the tests read them: its (left, right) pairs and each
side's neighbour tuples, derived from its edge keys by a plain Python loop."""

from __future__ import annotations


def edge_pairs(g) -> list[tuple[int, int]]:
    """The (left, right) pairs of g in key order: key u * n2 + v is (u, v)."""
    return [divmod(key, g.n2) for key in g.keys.tolist()]


def neighbors(g, side: str) -> tuple[tuple[int, ...], ...]:
    """The neighbour tuple of every vertex of side ('left' or 'right'), in
    the order of the keys, which is ascending when the keys are."""
    left = side == "left"
    groups: list[list[int]] = [[] for _ in range(g.n1 if left else g.n2)]
    for u, v in edge_pairs(g):
        if left:
            groups[u].append(v)
        else:
            groups[v].append(u)
    return tuple(map(tuple, groups))
