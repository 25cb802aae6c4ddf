from __future__ import annotations

import math
import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipspec import expansion
from bipspec.bigraph import build, complete_bipartite
from bipspec.expansion import (
    ExpansionReport,
    check_lossless_feasible,
    lossless_parameters,
    theorem_r4_report,
    vertex_expansion,
)
from bipspec.vsplit import SPLIT_RULES, vertex_split


def _alpha_reversed_order(g, side: str, cap: int) -> float:
    """Independent restart: same minimum, enumerated largest subsets first."""
    neighbors = g.left_neighbors() if side == "left" else g.right_neighbors()
    sets = [set(nb) for nb in neighbors]
    size_range = range(min(cap, len(sets)), 0, -1)
    return min(
        len(set().union(*(sets[v] for v in subset))) / size
        for size in size_range
        for subset in combinations(reversed(range(len(sets))), size)
    )


def _random_graph(rng: random.Random, n1: int, n2: int, p: float):
    return build(n1, n2, [(u, v) for u in range(n1) for v in range(n2) if rng.random() < p])


def _brute_expansion(g, side: str, cap: int) -> tuple[float, tuple[int, ...]]:
    """Set unions over (size, lex) order, keeping the first strict minimum."""
    neighbors = g.left_neighbors() if side == "left" else g.right_neighbors()
    sets = [set(nb) for nb in neighbors]
    best: tuple[float, tuple[int, ...]] = (math.inf, ())
    for size in range(1, cap + 1):
        for subset in combinations(range(len(sets)), size):
            ratio = len(set().union(*(sets[v] for v in subset))) / size
            if ratio < best[0]:
                best = (ratio, subset)
    return best


def test_kernel_matches_set_brute_force():
    rng = random.Random(2024)
    for _ in range(25):
        g = _random_graph(rng, rng.randint(1, 9), rng.randint(1, 9), rng.uniform(0.1, 0.7))
        for side, side_size in (("left", g.n1), ("right", g.n2)):
            for cap in range(1, min(side_size, 6) + 1):
                report = vertex_expansion(g, side, cap)
                assert report.exhaustive
                assert (report.alpha, report.witness) == _brute_expansion(g, side, cap)


def test_sampled_result_pinned():
    # pinned: the seed fixes the draws, so alpha and the witness must not move
    g = _random_graph(random.Random(9), 30, 14, 0.25)
    report = vertex_expansion(g, "left", 4, seed=5, samples=2000)
    assert not report.exhaustive
    assert report.alpha == 4 / 3
    assert report.witness == (13, 23, 26)


def test_split_k84_alpha():
    split = vertex_split(complete_bipartite(8, 4)).split_graph
    report = vertex_expansion(split, "left", 2)
    assert report.alpha == 2.5
    assert report.exhaustive
    # every pair of left vertices reaches at least 5 checks
    neighbors = [set(nb) for nb in split.left_neighbors()]
    assert min(len(neighbors[a] | neighbors[b]) for a, b in combinations(range(8), 2)) == 5


def test_complete_bipartite_alpha_two():
    for n in (4, 6):
        g = complete_bipartite(n, n)
        report = vertex_expansion(g, "left", n // 2)
        assert report.alpha == 2.0
        assert len(report.witness) == n // 2


def test_isolated_vertex_alpha_zero():
    g = build(3, 2, [(0, 0), (0, 1), (1, 0)])  # left vertex 2 is isolated
    report = vertex_expansion(g, "left", 2)
    assert report.alpha == 0.0
    assert report.witness == (2,)


def test_alpha_monotone_in_cap():
    rng = random.Random(5)
    for _ in range(10):
        n1, n2 = rng.randint(3, 7), rng.randint(3, 7)
        edges = [(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.6]
        if not edges:
            continue
        g = build(n1, n2, edges)
        alphas = [vertex_expansion(g, "left", cap).alpha for cap in range(1, n1 + 1)]
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))


def test_alpha_order_invariance():
    split = vertex_split(complete_bipartite(8, 4)).split_graph
    for cap in (1, 2, 3):
        assert vertex_expansion(split, "left", cap).alpha == _alpha_reversed_order(split, "left", cap)


def test_left_regular_alpha_at_most_degree():
    rng = random.Random(9)
    for _ in range(8):
        n2 = rng.randint(4, 8)
        g = complete_bipartite(rng.randint(4, 8), n2)
        d = g.degree_profile().left_degrees[0]
        assert vertex_expansion(g, "left", 3).alpha <= d


def test_exhaustive_refusal_names_estimate():
    message = (
        "exhaustive enumeration infeasible: 2625 subsets for side size 25, cap 3 "
        "(limits: side 24, cap 12)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_lossless_feasible(25, 0.14)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lossless_parameters(complete_bipartite(25, 3), 0.14)


def test_sampled_mode_flagged():
    g = complete_bipartite(25, 3)
    report = vertex_expansion(g, "left", 3, samples=500)
    assert not report.exhaustive
    assert report.alpha >= 1.0  # complete bipartite: every subset reaches all of Y


def test_expansion_report_schema():
    d = vertex_expansion(complete_bipartite(3, 3), "left", 1).to_json_dict()
    assert set(d) == {"side", "cap", "alpha", "witness", "exhaustive"}


def test_gamma_derived_cap():
    split = vertex_split(complete_bipartite(8, 4)).split_graph
    by_gamma = vertex_expansion(split, "left", gamma=0.25)
    by_cap = vertex_expansion(split, "left", 2)
    assert by_gamma.subset_cap == 2
    assert by_gamma.alpha == by_cap.alpha
    with pytest.raises(ValueError, match="cap or a gamma"):
        vertex_expansion(split, "left")
    with pytest.raises(ValueError, match=">= 1"):
        vertex_expansion(split, "left", gamma=0.01)


def test_lossless_split_k84():
    split = vertex_split(complete_bipartite(8, 4)).split_graph
    params = lossless_parameters(split, 1 / 4)
    assert params.D == 4
    assert params.alpha == 2.5
    assert params.epsilon == 0.375
    assert params.epsilon == (8 - 2) / (2 * 8)
    assert params.epsilon < 0.5
    assert params.alpha == pytest.approx(params.D * (1 - params.epsilon), abs=1e-12)


def test_lossless_singleton_cap_gives_epsilon_zero():
    g = complete_bipartite(6, 4)
    params = lossless_parameters(g, 1 / 6)  # floor(6/6) = 1
    assert params.alpha == params.D == 4
    assert params.epsilon == 0.0


def test_lossless_contract_errors():
    tree = build(3, 2, [(0, 0), (1, 0), (2, 1), (0, 1)])  # left degrees 2,1,1
    with pytest.raises(ValueError, match="left-regular"):
        lossless_parameters(tree, 0.5)
    with pytest.raises(ValueError, match=">= 1"):
        lossless_parameters(complete_bipartite(4, 4), 0.1)


def test_lossless_report_reused_only_when_exhaustive_left_at_the_cap(monkeypatch):
    split = vertex_split(complete_bipartite(8, 4)).split_graph  # cap 2 at gamma 1/4
    searches = []

    def counting_search(*args):
        searches.append(args)
        return search(*args)

    search = expansion._search
    monkeypatch.setattr(expansion, "_search", counting_search)
    expected = lossless_parameters(split, 1 / 4)
    assert len(searches) == 1
    # alpha 0 would give epsilon 1 if any of these reports were read
    ignored = [
        ExpansionReport("left", 2, 0.0, (0,), False),
        ExpansionReport("right", 2, 0.0, (0,), True),
        ExpansionReport("left", 3, 0.0, (0,), True),
    ]
    for report in ignored:
        searches.clear()
        assert lossless_parameters(split, 1 / 4, report) == expected
        assert len(searches) == 1
    searches.clear()
    reused = vertex_expansion(split, "left", 2)
    assert lossless_parameters(split, 1 / 4, reused) == expected
    assert len(searches) == 1  # the vertex_expansion call's search alone


def test_lossless_feasibility_check_refuses_as_lossless_parameters():
    # left-regular graphs of 4, 24 and 26 left vertices at a gamma that is
    # not finite, or whose cap is below 1, feasible or above the cap limit,
    # and on a side above the side limit
    cases = [(4, math.nan), (4, 0.1), (24, 1 / 12), (24, 13 / 24), (26, 1 / 13)]
    for n1, gamma in cases:
        g = complete_bipartite(n1, 2)
        try:
            lossless_parameters(g, gamma)
        except ValueError as refused:
            with pytest.raises(ValueError, match=f"^{re.escape(str(refused))}$"):
                check_lossless_feasible(n1, gamma)
        else:
            check_lossless_feasible(n1, gamma)


def _brute_alpha_at_size(g, size: int) -> float:
    neighbors = [set(nb) for nb in g.left_neighbors()]
    return min(
        len(set().union(*(neighbors[v] for v in subset))) / size
        for subset in combinations(range(g.n1), size)
    )


def test_theorem_r4_cases():
    rep = theorem_r4_report(6, 6)
    assert rep.case == 1
    assert rep.formula_alpha == pytest.approx(1 + 2 / 6, abs=1e-12)
    split = vertex_split(complete_bipartite(6, 6)).split_graph
    assert rep.measured_alpha == _brute_alpha_at_size(split, 3)

    rep = theorem_r4_report(12, 6)
    assert rep.case == 2
    assert rep.formula_alpha == 1.0

    rep = theorem_r4_report(8, 6)
    assert rep.case == 3
    assert rep.formula_alpha == pytest.approx(1 + ((8 - 3) - 3) / 6, abs=1e-12)
    split = vertex_split(complete_bipartite(8, 6)).split_graph
    assert rep.measured_alpha == _brute_alpha_at_size(split, 3)


def test_theorem_r4_witness_pinned():
    rep = theorem_r4_report(8, 6, "seeded-random", 3)
    assert rep.witness == (3, 4, 6)
    split = vertex_split(complete_bipartite(8, 6), "seeded-random", 3).split_graph
    assert rep.measured_alpha == _brute_alpha_at_size(split, 3)


def test_theorem_r4_contract():
    with pytest.raises(ValueError, match="even"):
        theorem_r4_report(7, 5)
    with pytest.raises(ValueError, match="n <= m <= 2n"):
        theorem_r4_report(20, 6)


def _both_sides_match_brute(g, caps=None) -> None:
    for side, side_size in (("left", g.n1), ("right", g.n2)):
        for cap in caps or range(1, side_size + 1):
            report = vertex_expansion(g, side, cap)
            assert report.exhaustive
            assert (report.alpha, report.witness) == _brute_expansion(g, side, cap), (side, cap)


@pytest.mark.parametrize("rule", SPLIT_RULES)
def test_search_matches_enumeration_on_k_m_half_splits(rule):
    # side 16, cap 8: the largest subsets reach all 16 right vertices at most
    split = vertex_split(complete_bipartite(16, 8), rule, 1).split_graph
    assert split.n1 == split.n2 == 16
    _both_sides_match_brute(split, caps=(1, 5, 8))


def test_search_isolated_vertex_and_complete_graph():
    g = build(5, 3, [(u, v) for u in range(5) for v in range(3) if u != 3])
    _both_sides_match_brute(g)
    report = vertex_expansion(g, "left", 4)
    assert (report.alpha, report.witness) == (0.0, (3,))
    k = complete_bipartite(6, 4)
    _both_sides_match_brute(k)
    assert vertex_expansion(k, "left", 4).witness == (0, 1, 2, 3)


def test_search_tie_at_smaller_size_wins():
    # (0, 1) reaches 2 checks and is visited before (2,), which reaches 1:
    # both have ratio 1, and the smaller subset is the witness
    g = build(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    _both_sides_match_brute(g)
    report = vertex_expansion(g, "left", 3)
    assert (report.alpha, report.witness) == (1.0, (2,))


@st.composite
def _small_graphs(draw):
    n1, n2 = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n1) for v in range(n2)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build(n1, n2, [pair for pair, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(_small_graphs())
def test_search_matches_enumeration_property(g):
    _both_sides_match_brute(g)


def _brute_at_size(g, size: int) -> tuple[float, tuple[int, ...]]:
    """First strict minimum of |N(S)|/|S| over left subsets of one size, in lex order."""
    neighbors = [set(nb) for nb in g.left_neighbors()]
    best: tuple[float, tuple[int, ...]] = (math.inf, ())
    for subset in combinations(range(g.n1), size):
        ratio = len(set().union(*(neighbors[v] for v in subset))) / size
        if ratio < best[0]:
            best = (ratio, subset)
    return best


@pytest.mark.parametrize("rule", SPLIT_RULES)
def test_theorem_r4_matches_fixed_size_brute_force(rule):
    for n in range(2, 11, 2):
        for m in range(n, 2 * n + 1):
            rep = theorem_r4_report(m, n, rule)
            split = vertex_split(complete_bipartite(m, n), rule, 0).split_graph
            assert (rep.measured_alpha, rep.witness) == _brute_at_size(split, n // 2), (m, n)
