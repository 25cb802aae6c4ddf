from __future__ import annotations

import cmath
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipspec.bigraph import build, complete_bipartite, edge_connectivity, random_tree, write_edge_list
from bipspec.cli import run
from bipspec.vsplit import (
    SPLIT_RULES,
    measure_split,
    split_warnings,
    theorem_r1_check,
    theorem_r2_check,
    vertex_split,
)
from edge_views import neighbors


def _random_min_degree(rng: random.Random, delta: int):
    while True:
        n1 = rng.randint(delta + 1, delta + 5)
        n2 = rng.randint(delta + 1, delta + 5)
        edges = [(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.75]
        g = build(n1, n2, edges)
        if g.degree_profile().delta >= delta:
            return g


def test_split_k84_canonical_example():
    g = complete_bipartite(8, 4)
    split = vertex_split(g)
    assert (split.n1, split.n2) == (8, 8)
    assert split.m == 32
    assert split.degree_profile().right_degrees == (4,) * 8
    assert split_warnings(g, split) == []


def test_split_k55_odd_degrees_and_warning():
    g = complete_bipartite(5, 5)
    split = vertex_split(g)
    assert split.degree_profile().right_degrees == (3,) * 5 + (2,) * 5
    assert any("n1 > n2" in w for w in split_warnings(g, split))


def test_split_preserves_edge_count():
    rng = random.Random(1)
    for _ in range(10):
        g = _random_min_degree(rng, 1)
        for rule in SPLIT_RULES:
            assert vertex_split(g, rule, 5).m == g.m


def test_split_invariants_on_min_degree_4_graphs():
    rng = random.Random(2)
    for _ in range(30):
        g = _random_min_degree(rng, 4)
        split = vertex_split(g, "round-robin", 0)
        assert split.m == g.m
        assert split.degree_profile().left_degrees == g.degree_profile().left_degrees
        right = g.degree_profile().right_degrees
        halves = neighbors(split, "right")
        for j, d in enumerate(right):
            da, db = len(halves[j]), len(halves[g.n2 + j])
            assert da + db == d
            assert abs(da - db) == d % 2
            assert da >= db  # y_a takes the larger half
        n_a = set().union(*halves[: g.n2])
        n_b = set().union(*halves[g.n2 :])
        assert n_a & n_b


def test_split_mapping_index_layout():
    # the copies of right vertex j are right vertices j and n2 + j, as the
    # sidecar of `split --out` maps them (tests/test_cli.py)
    g = complete_bipartite(6, 3)
    split = vertex_split(g)
    halves = neighbors(split, "right")
    for j, nb in enumerate(neighbors(g, "right")):
        assert sorted(halves[j] + halves[g.n2 + j]) == list(nb)


def test_split_deterministic_all_rules():
    g = _random_min_degree(random.Random(7), 2)
    for rule in SPLIT_RULES:
        r1 = vertex_split(g, rule, 13)
        r2 = vertex_split(g, rule, 13)
        assert r1 == r2
        assert split_warnings(g, r1) == split_warnings(g, r2)


def test_round_robin_connects_where_contiguous_does_not():
    g = complete_bipartite(8, 4)
    assert vertex_split(g, "round-robin", 0).is_connected()
    assert not vertex_split(g, "contiguous", 0).is_connected()


def test_round_robin_connected_on_acceptance_family():
    for m, n in [(8, 4), (5, 5), (6, 6), (8, 6), (12, 6), (16, 8)]:
        split = vertex_split(complete_bipartite(m, n))
        assert split.is_connected(), (m, n)


def test_split_rejects_empty_and_bad_rule():
    with pytest.raises(ValueError, match="empty"):
        vertex_split(build(2, 2, []))
    with pytest.raises(ValueError, match="rule"):
        vertex_split(complete_bipartite(2, 2), "furthest-first")


def _loop_split_edges(g, rule: str, seed: int) -> tuple[list[tuple[int, int]], bool]:
    """The per-right-vertex loop vertex_split ran before it assigned edges in
    bulk: the split's edges, and whether N(Y_a) and N(Y_b) share no left
    vertex."""
    rng = random.Random(seed)
    edges = []
    for j, nb in enumerate(neighbors(g, "right")):
        d = len(nb)
        da = (d + 1) // 2
        if d == 0:
            chosen = set()
        elif rule == "round-robin":
            chosen = {nb[(j + t) % d] for t in range(da)}
        elif rule == "contiguous":
            chosen = set(nb[:da])
        else:
            chosen = set(rng.sample(nb, da))
        edges.extend((x, j) for x in nb if x in chosen)
        edges.extend((x, g.n2 + j) for x in nb if x not in chosen)
    reach_a = {x for x, y in edges if y < g.n2}
    reach_b = {x for x, y in edges if y >= g.n2}
    return edges, not reach_a & reach_b


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.data(),
    st.sampled_from(SPLIT_RULES),
    st.integers(0, 3),
)
def test_split_matches_the_per_vertex_loop(n1, n2, data, rule, seed):
    # isolated right vertices and sparse graphs, where the halves may share
    # no left vertex, are drawn too
    pairs = [(u, v) for u in range(n1) for v in range(n2)]
    g = build(n1, n2, data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    split = vertex_split(g, rule, seed)
    warnings = split_warnings(g, split)
    edges, disjoint = _loop_split_edges(g, rule, seed)
    assert split == build(n1, 2 * n2, edges)
    assert ("N(Y_a) and N(Y_b) share no left vertex" in warnings) == disjoint
    isolated = [j for j, nb in enumerate(neighbors(g, "right")) if not nb]
    warned = [w for w in warnings if w.startswith("right vertices of degree 0")]
    if isolated:
        first = isolated[0]
        assert warned == [f"right vertices of degree 0: {len(isolated)} (first {first}); their copies are isolated"]
    else:
        assert warned == []


def test_split_warnings_small_graph():
    g = complete_bipartite(2, 2)
    joined = " ".join(split_warnings(g, vertex_split(g)))
    assert "minimum degree" in joined
    assert "n1 >= 4" in joined
    assert "n2 >= 3" in joined


def test_split_warnings_order_and_text():
    # one edge on 2 + 2 vertices misses every precondition, leaves right
    # vertex 1 isolated and gives Y_b no edge at all
    g = build(2, 2, [(0, 0)])
    assert split_warnings(g, vertex_split(g)) == [
        "definition requires minimum degree >= 4, got 0",
        "definition requires n1 >= 4, got 2",
        "definition requires n2 >= 3, got 2",
        "definition requires n1 > n2, got (2, 2)",
        "definition requires a connected graph",
        "right vertices of degree 0: 1 (first 1); their copies are isolated",
        "N(Y_a) and N(Y_b) share no left vertex",
    ]


def _circulant_lambda2() -> float:
    """Closed-form second singular value of the round-robin K_{5,5} split."""
    values = []
    for k in range(5):
        w = cmath.exp(2j * math.pi * k / 5)
        values.append(math.sqrt(abs(1 + w + w**2) ** 2 + abs(w**3 + w**4) ** 2))
    return sorted(values, reverse=True)[1]


def test_theorem_r1_k55():
    g = complete_bipartite(5, 5)
    split = vertex_split(g, "round-robin", 0)
    report = theorem_r1_check(g, split, 2, measure_split(split))
    assert report.threshold == pytest.approx((2 * 2 - 1) / math.sqrt(2), abs=1e-12)
    assert report.threshold == pytest.approx(2.12132, abs=1e-5)
    assert report.lambda2_prime == pytest.approx(_circulant_lambda2(), abs=1e-8)
    assert report.criterion_met
    assert report.measured_kappa == 2
    assert report.conclusion_holds
    assert report.preconditions_met


def test_theorem_r1_preconditions():
    g = complete_bipartite(8, 4)  # not regular
    split = vertex_split(g)
    report = theorem_r1_check(g, split, 2, measure_split(split))
    assert not report.preconditions_met
    assert "regular" in report.notes
    assert report.lambda2_prime > 0  # still evaluated observationally


def test_theorem_r2_thresholds():
    g = complete_bipartite(8, 4)
    split = vertex_split(g)
    report = theorem_r2_check(g, 2, measure_split(split))
    assert report.threshold == pytest.approx(4 * 3 / math.sqrt(64), abs=1e-12)
    assert report.threshold == 1.5
    assert report.preconditions_met

    g55 = complete_bipartite(5, 5)
    split55 = vertex_split(g55)
    r2 = theorem_r2_check(g55, 2, measure_split(split55))
    assert r2.threshold == pytest.approx((2 * 2 - 1) / math.sqrt(2), abs=1e-12)


def test_theorem_r2_non_biregular():
    tree = random_tree(9, "balanced", 4)
    split = vertex_split(tree)
    report = theorem_r2_check(tree, 2, measure_split(split))
    assert not report.preconditions_met
    assert "biregular" in report.notes
    assert report.measured_kappa == edge_connectivity(split)


def test_criterion_report_schema(tmp_path):
    graph, out = tmp_path / "k55.bip", tmp_path / "split.json"
    graph.write_text(write_edge_list(complete_bipartite(5, 5)), encoding="utf-8")
    assert run(["split", "--graph", str(graph), "--k", "2", "--json", str(out)]) == 0
    findings = json.loads(out.read_text(encoding="utf-8"))["findings"]
    criteria = [f for f in findings if f["type"] == "connectivity-criterion"]
    assert [d["theorem"] for d in criteria] == ["r1", "r2"]
    for d in criteria:
        assert set(d) - {"type"} == {
            "theorem",
            "k",
            "threshold",
            "lambda2_prime",
            "criterion_met",
            "measured_kappa",
            "conclusion_holds",
            "preconditions_met",
            "notes",
        }
