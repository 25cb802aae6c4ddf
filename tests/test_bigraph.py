from __future__ import annotations

import random
from itertools import combinations

import pytest

from bipspec import bigraph
from bipspec.bigraph import (
    build,
    complete_bipartite,
    edge_connectivity,
    is_minimally_connected,
    path_graph,
    random_tree,
    read_edge_list,
    write_edge_list,
)


def test_build_complete_k22():
    g = build(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert g.m == 4
    assert g.n == 4


def test_build_path_p4():
    g = build(2, 2, [(0, 0), (0, 1), (1, 1)])
    assert g.m == 3
    assert g.is_connected()


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(0, 5\)"):
        build(2, 2, [(0, 5)])


def test_build_rejects_duplicate():
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 1\)"):
        build(2, 2, [(0, 0), (1, 1), (1, 1)])


def test_build_rejects_empty_side():
    with pytest.raises(ValueError):
        build(0, 3, [])


def test_complete_bipartite_examples():
    g = complete_bipartite(8, 4)
    prof = g.degree_profile()
    assert g.m == 32
    assert prof.left_degrees == (4,) * 8
    assert prof.right_degrees == (8,) * 4

    assert complete_bipartite(1, 1).m == 1

    g55 = complete_bipartite(5, 5)
    assert g55.m == 25
    assert g55.degree_profile().is_regular

    with pytest.raises(ValueError):
        complete_bipartite(0, 4)


def test_path_graph_examples():
    g = path_graph(4)
    assert (g.n1, g.n2, g.m) == (2, 2, 3)
    g = path_graph(20)
    assert (g.n1, g.n2, g.m) == (10, 10, 19)
    g = path_graph(3)
    assert (g.n1, g.n2, g.m) == (2, 1, 2)
    with pytest.raises(ValueError):
        path_graph(1)


def test_path_graph_is_a_path():
    # alternation layout: every vertex has degree <= 2, exactly two endpoints
    for n in range(2, 12):
        g = path_graph(n)
        prof = g.degree_profile()
        degrees = sorted(prof.left_degrees + prof.right_degrees)
        assert degrees.count(1) == 2
        assert all(d in (1, 2) for d in degrees)
        assert is_minimally_connected(g)


def test_random_tree_unbalanced_is_star():
    g = random_tree(10, "unbalanced", 5)
    assert (g.n1, g.n2) == (1, 9)
    assert g.degree_profile().left_degrees == (9,)


def test_random_tree_balanced_sides():
    g = random_tree(10, "balanced", 7)
    assert (g.n1, g.n2) == (5, 5)
    assert g.m == 9
    assert is_minimally_connected(g)


def test_random_tree_two_vertices():
    g = random_tree(2, "balanced", 0)
    assert (g.n1, g.n2, g.m) == (1, 1, 1)


def test_random_tree_average_mode():
    g = random_tree(8, "average", 1)
    assert (g.n1, g.n2) == (5, 3)
    # the average-bipartition side formulas are integral only when 4 | n
    for n in (6, 7, 9):
        with pytest.raises(ValueError, match="infeasible"):
            random_tree(n, "average", 1)


def test_random_tree_always_minimally_connected():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(2, 16)
        mode = rng.choice(["balanced", "unbalanced"])
        g = random_tree(n, mode, seed)
        assert is_minimally_connected(g)
        prof = g.degree_profile()
        assert sum(prof.left_degrees) == sum(prof.right_degrees) == g.m


def test_random_tree_deterministic():
    assert random_tree(12, "balanced", 9).edges == random_tree(12, "balanced", 9).edges


def test_is_minimally_connected_cases():
    assert is_minimally_connected(path_graph(4))
    assert not is_minimally_connected(complete_bipartite(2, 2))
    assert not is_minimally_connected(build(2, 2, [(0, 0), (1, 1)]))


def _brute_force_min_cut(g) -> int:
    """Independent oracle: smallest crossing-edge count over all vertex cuts.

    Enumerates every subset avoiding vertex 0 (one side of any cut can be
    taken to avoid it), so all 2^(n-1) - 1 cuts are covered.
    """
    n = g.n
    pairs = [(u, g.n1 + v) for u, v in g.edges]
    best = g.m
    for size in range(1, n):
        for side in combinations(range(1, n), size):
            s = set(side)
            crossing = sum(1 for u, v in pairs if (u in s) != (v in s))
            best = min(best, crossing)
    return best


def test_edge_connectivity_examples():
    assert edge_connectivity(path_graph(4)) == 1
    assert edge_connectivity(complete_bipartite(2, 2)) == 2
    k55 = complete_bipartite(5, 5)
    assert edge_connectivity(k55) == 5
    assert edge_connectivity(k55) == _brute_force_min_cut(k55)


def test_edge_connectivity_disconnected_is_zero():
    assert edge_connectivity(build(2, 2, [(0, 0), (1, 1)])) == 0


def test_edge_connectivity_matches_brute_force():
    rng = random.Random(3)
    for _ in range(10):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        edges = [(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.7]
        if not edges:
            continue
        g = build(n1, n2, edges)
        if g.is_connected():
            assert edge_connectivity(g) == _brute_force_min_cut(g)


def test_edge_connectivity_cut_below_min_degree():
    # two K_{3,3} blocks joined by `bridges` edges: minimum degree 3, the
    # cut between the blocks is smaller, so flows stop below their cap
    for bridges in (1, 2):
        edges = [(u, v) for u in range(3) for v in range(3)]
        edges += [(u, v) for u in range(3, 6) for v in range(3, 6)]
        edges += [(0, 3), (3, 0)][:bridges]
        g = build(6, 6, edges)
        assert g.degree_profile().delta == 3
        assert edge_connectivity(g) == bridges == _brute_force_min_cut(g)


def test_edge_connectivity_properties():
    for m, n in [(2, 3), (3, 3), (4, 2), (5, 4)]:
        g = complete_bipartite(m, n)
        kappa = edge_connectivity(g)
        assert kappa == min(m, n)
        assert kappa <= g.degree_profile().delta


def test_edge_list_roundtrip_bytes():
    g = complete_bipartite(3, 2)
    text = write_edge_list(g)
    assert text.startswith("bip 3 2\n")
    assert write_edge_list(read_edge_list(text)) == text


def test_edge_list_comments_and_errors():
    g = read_edge_list("# a comment\nbip 2 2\ne 0 0\n# another\ne 1 1\n")
    assert g.m == 2
    with pytest.raises(ValueError, match="header"):
        read_edge_list("e 0 0\n")
    with pytest.raises(ValueError, match="edge line"):
        read_edge_list("bip 2 2\nx 0 0\n")


@pytest.mark.parametrize(
    "text, line, detail",
    [
        ("bip x 2", 1, "expected integer sides, got 'x' '2'"),
        ("bip 2 2\ne 0 y", 2, "expected integer endpoints, got '0' 'y'"),
        ("# c\nbip 0 2\n", 2, r"both sides must be nonempty, got sizes \(0, 2\)"),
        ("bip 2 2\ne 0 0\ne 0 5\n", 3, r"edge \(0, 5\) out of range for sides \(2, 2\)"),
        ("bip 2 2\ne -1 0\n", 2, r"edge \(-1, 0\) out of range"),
        ("bip 2 2\ne 1 1\n\ne 1 1\n", 4, r"duplicate edge \(1, 1\)"),
        ("", 1, "missing 'bip <n1> <n2>' header"),
        ("# only a comment\n", 2, "missing 'bip <n1> <n2>' header"),
    ],
)
def test_edge_list_errors_name_the_line(text, line, detail):
    with pytest.raises(ValueError, match=rf"^line {line}: {detail}"):
        read_edge_list(text)


def test_edge_list_side_cap_at_the_header():
    limit = bigraph.MAX_SIDE
    assert read_edge_list(f"bip {limit} 1\ne {limit - 1} 0\n").n1 == limit
    for header in (f"bip {limit + 1} 1", "bip 1 99999999999"):
        with pytest.raises(ValueError, match=rf"^line 2: side sizes .* exceed the limit {limit}"):
            read_edge_list(f"# big\n{header}\ne 0 0\n")
