from __future__ import annotations

import json
import math
import random
import re
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipspec import expansion
from bipspec.bigraph import _pack_keys, build, complete_bipartite, random_tree, write_edge_list
from bipspec.cli import run
from bipspec.expansion import (
    ExpansionReport,
    check_lossless_feasible,
    lossless_parameters,
    vertex_expansion,
)
from bipspec.vsplit import SPLIT_RULES, vertex_split
from edge_views import neighbors


def _alpha_reversed_order(g, side: str, cap: int) -> float:
    """Independent restart: same minimum, enumerated largest subsets first."""
    sets = [set(nb) for nb in neighbors(g, side)]
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
    sets = [set(nb) for nb in neighbors(g, side)]
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
    # pinned: the seed fixes the draws, so alpha and the witness must not move;
    # side 30 at cap 9 is 22,964,086 subsets, over the budget
    g = _random_graph(random.Random(9), 30, 14, 0.25)
    report = vertex_expansion(g, "left", 9, seed=5, samples=2000)
    assert not report.exhaustive
    assert report.alpha == 10 / 9
    assert report.witness == (0, 1, 4, 13, 14, 16, 20, 23, 25)
    # side 30 at cap 4 is 31,930 subsets, searched exactly
    report = vertex_expansion(g, "left", 4, seed=5, samples=2000)
    assert report.exhaustive
    assert (report.alpha, report.witness) == _brute_expansion(g, "left", 4) == (1.25, (4, 12, 16, 25))


def test_split_k84_alpha():
    split = vertex_split(complete_bipartite(8, 4))
    report = vertex_expansion(split, "left", 2)
    assert report.alpha == 2.5
    assert report.exhaustive
    # every pair of left vertices reaches at least 5 checks
    left = [set(nb) for nb in neighbors(split, "left")]
    assert min(len(left[a] | left[b]) for a, b in combinations(range(8), 2)) == 5


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
    split = vertex_split(complete_bipartite(8, 4))
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
    # n1 = 4414 at cap 2 is 4414 + C(4414, 2) = 9,743,905 subsets
    message = (
        "exhaustive enumeration infeasible: side size 4414, cap 2 "
        f"exceeds the budget of {expansion.SUBSET_BUDGET} subsets"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_lossless_feasible(4414, 1 / 2207)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        lossless_parameters(complete_bipartite(4414, 1), 1 / 2207)


def test_refusal_stops_at_the_budget():
    # summing C(100000, s) over s <= 50000 would take minutes; the gate
    # stops at s = 2, where the sum first passes the budget
    start = time.perf_counter()
    with pytest.raises(ValueError, match="side size 100000, cap 50000 exceeds the budget"):
        check_lossless_feasible(100_000, 0.5)
    assert time.perf_counter() - start < 1.0


def test_budget_decides_exhaustive():
    # an edgeless side is searched in one pass, so every request is cheap;
    # with no samples the sampled path reports alpha = inf
    for side in range(1, 41):
        g = build(side, 1, [])
        for cap in range(1, side + 1):
            report = vertex_expansion(g, "left", cap, samples=0)
            fits = sum(math.comb(side, s) for s in range(1, cap + 1)) <= expansion.SUBSET_BUDGET
            assert report.exhaustive == fits, (side, cap)
            assert report.alpha == (0.0 if fits else math.inf)
            if side <= 24 and cap <= 12:
                assert report.exhaustive


def test_sampled_mode_flagged():
    # side 400 at cap 3 is 10,666,600 subsets, over the budget
    report = vertex_expansion(complete_bipartite(400, 3), "left", 3, samples=500)
    assert not report.exhaustive
    assert report.alpha >= 1.0  # complete bipartite: every subset reaches all of Y
    report = vertex_expansion(complete_bipartite(25, 3), "left", 3)
    assert report.exhaustive
    assert (report.alpha, report.witness) == (1.0, (0, 1, 2))


def test_expansion_report_schema(tmp_path):
    graph, out = tmp_path / "k33.bip", tmp_path / "expansion.json"
    graph.write_text(write_edge_list(complete_bipartite(3, 3)), encoding="utf-8")
    assert run(["expansion", "--graph", str(graph), "--side", "left", "--cap", "1", "--json", str(out)]) == 0
    [d] = json.loads(out.read_text(encoding="utf-8"))["findings"]
    assert d["type"] == "expansion"
    assert set(d) - {"type"} == {"side", "cap", "alpha", "witness", "exhaustive"}


def test_gamma_derived_cap():
    split = vertex_split(complete_bipartite(8, 4))
    by_gamma = vertex_expansion(split, "left", gamma=0.25)
    by_cap = vertex_expansion(split, "left", 2)
    assert by_gamma.subset_cap == 2
    assert by_gamma.alpha == by_cap.alpha
    with pytest.raises(ValueError, match="cap or a gamma"):
        vertex_expansion(split, "left")
    with pytest.raises(ValueError, match=">= 1"):
        vertex_expansion(split, "left", gamma=0.01)


def test_lossless_split_k84():
    split = vertex_split(complete_bipartite(8, 4))
    params = lossless_parameters(split, 1 / 4)
    assert params.D == 4
    assert params.alpha == 2.5
    assert params.epsilon == 0.375
    assert params.epsilon == (8 - 2) / (2 * 8)
    assert params.epsilon < 0.5
    assert params.alpha == pytest.approx(params.D * (1 - params.epsilon), abs=1e-12)


def _round_robin_split_of_k(n1: int):
    """The round-robin split of K_{n1, n1/2}, built from its closed form: copy
    a of right vertex j takes the left window j .. j + n1/2 - 1 (mod n1) and
    copy b, at index n1/2 + j, takes the rest."""
    d1 = n1 // 2
    return build(n1, n1, [(x, j if (x - j) % n1 < d1 else d1 + j) for j in range(d1) for x in range(n1)])


def test_lossless_on_pipeline_splits_matches_the_closed_form():
    for n1 in (8, 98):
        split = vertex_split(complete_bipartite(n1, n1 // 2))
        assert split == _round_robin_split_of_k(n1)
    # gamma = 1/d1 gives cap 2 at every n1, although (1.0/d1) * n1 falls just
    # below 2 at n1 = 98, 196, 206, 214, 322, 374, 392 and 394
    for n1 in range(8, 401, 2):
        params = lossless_parameters(_round_robin_split_of_k(n1), 1.0 / (n1 // 2))
        assert params.alpha == (n1 + 2) / 4, n1
        assert params.epsilon == pytest.approx((n1 - 2) / (2 * n1), abs=1e-12), n1


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
    split = vertex_split(complete_bipartite(8, 4))  # cap 2 at gamma 1/4
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
    # not finite, or whose cap is below 1, within the budget or over it
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


def _both_sides_match_brute(g, caps=None) -> None:
    for side, side_size in (("left", g.n1), ("right", g.n2)):
        for cap in caps or range(1, side_size + 1):
            report = vertex_expansion(g, side, cap)
            assert report.exhaustive
            assert (report.alpha, report.witness) == _brute_expansion(g, side, cap), (side, cap)


@pytest.mark.parametrize("rule", SPLIT_RULES)
def test_search_matches_enumeration_on_k_m_half_splits(rule):
    # side 16, cap 8: the largest subsets reach all 16 right vertices at most
    split = vertex_split(complete_bipartite(16, 8), rule, 1)
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


def test_search_tie_at_smaller_size_wins(monkeypatch):
    # (0, 1) reaches 2 checks and is visited before (2,), which reaches 1:
    # both have ratio 1, and the smaller subset is the witness; at a 1-word
    # block budget every child is its own block, so the tie crosses blocks
    g = build(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    _both_sides_match_brute(g)
    report = vertex_expansion(g, "left", 3)
    assert (report.alpha, report.witness) == (1.0, (2,))
    monkeypatch.setattr(expansion, "_BLOCK_WORDS", 1)
    _both_sides_match_brute(g)
    report = vertex_expansion(g, "left", 3)
    assert (report.alpha, report.witness) == (1.0, (2,))


@pytest.mark.parametrize("other", [1, 7, 8, 9, 63, 64, 65, 129])
def test_neighbor_masks_match_the_per_neighbour_sums(other):
    # neighbour w is bit 7 - w % 8 of byte w // 8 of a row of one word per
    # 64 vertices of the other side, so the row read big-endian is the sum
    # of 1 << (64 * words - 1 - w) over the neighbours, whatever byte or
    # word boundary its size falls on, with isolated vertices too
    rng = random.Random(other)
    for this in (1, 5, 64, 65):
        for n1, n2 in ((this, other), (other, this)):
            pairs = [(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.3]
            g = build(n1, n2, pairs)
            for side, width in (("left", n2), ("right", n1)):
                rows = expansion._neighbor_rows(g, side)
                assert rows.dtype == np.uint64 and rows.shape[1] == -(-width // 64), (n1, n2, side)
                top = 64 * rows.shape[1] - 1
                expected = [sum(1 << top - w for w in nb) for nb in neighbors(g, side)]
                packed = [int.from_bytes(row.tobytes(), "big") for row in rows]
                assert packed == expected, (n1, n2, side)


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


def _dfs_search(masks: list[int], cap: int) -> tuple[float, tuple[int, ...]]:
    """The recursive depth-first branch and bound over int masks that the
    vectorised search replaced: subsets in lex order, each prefix's mask
    ORed once, the same key and the same cut."""
    side_size = len(masks)
    best_count, best_size, best = 1, 0, ()  # 1/0 stands for an infinite ratio
    path: list[int] = []

    def descend(reached: int, start: int) -> None:
        nonlocal best_count, best_size, best
        size = len(path) + 1
        for v in range(start, side_size):
            union = reached | masks[v]
            count = union.bit_count()
            lhs, rhs = count * best_size, best_count * size
            if lhs < rhs or lhs == rhs and size < best_size:
                best_count, best_size, best = count, size, (*path, v)
            if size < cap and count * best_size < best_count * cap:
                path.append(v)
                descend(union, v + 1)
                path.pop()

    descend(0, 0)
    return (best_count / best_size if best_size else math.inf), best


@st.composite
def _masks_and_cap(draw):
    """0/1 neighbourhood rows, the same rows as int masks, and a cap."""
    # other sides of 65, 128 and 129 vertices need two and three words
    other = draw(st.one_of(st.integers(1, 10), st.sampled_from([65, 128, 129])))
    neighbourhoods = st.frozensets(st.integers(0, other - 1), max_size=min(other, 8))
    sets = draw(st.lists(neighbourhoods, min_size=1, max_size=9))
    B = np.zeros((len(sets), other), dtype=np.uint8)
    for u, nb in enumerate(sets):
        B[u, list(nb)] = 1
    masks = [sum(1 << w for w in nb) for nb in sets]
    return B, masks, draw(st.integers(1, min(len(masks), 6)))


@pytest.mark.parametrize("budget", [1, 3, 64, expansion._BLOCK_WORDS])
@settings(max_examples=150, deadline=None)
@given(_masks_and_cap())
def test_search_matches_depth_first_oracle(budget, case):
    B, masks, cap = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expansion, "_BLOCK_WORDS", budget)
        rows = _pack_keys(np.flatnonzero(B), *B.shape)
        assert expansion._search(rows, cap) == _dfs_search(masks, cap)


def test_search_at_the_budget_edge(monkeypatch):
    # a perfect matching at side 24, cap 12 cuts nothing: every subset has
    # ratio 1, so all 9,740,685 subsets are examined and (0,) wins the ties
    matching = build(24, 24, [(v, v) for v in range(24)])
    report = vertex_expansion(matching, "left", 12)
    assert (report.alpha, report.witness, report.exhaustive) == (1.0, (0,), True)
    # on K_{24,1} the seed's best, (0..11) at ratio 1/12, cuts every
    # singleton: only the seed's 24 sets and the 24 singletons are counted
    examined = []
    popcounts = expansion._popcounts

    def counting(words):
        examined.append(len(words))
        return popcounts(words)

    monkeypatch.setattr(expansion, "_popcounts", counting)
    report = vertex_expansion(complete_bipartite(24, 1), "left", 12)
    assert (report.alpha, report.witness) == (1 / 12, tuple(range(12)))
    assert sum(examined) == 11 + 13 + 24


def test_search_packs_bits_not_a_dense_matrix():
    # a sparse 4,000 x 4,000 tree: each side's rows hold 16e6 bits (2 MB),
    # where a dense 0/1 matrix of the same cells would take 16 MB
    g = random_tree(8000, "balanced", 3)
    assert (g.n1, g.n2) == (4000, 4000)
    degrees = g.degree_profile()
    for side, degree in (("left", degrees.left_degrees), ("right", degrees.right_degrees)):
        tracemalloc.start()
        try:
            report = vertex_expansion(g, side, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4000 * 4000 / 4, side
        assert (report.alpha, report.witness) == (min(degree), (degree.index(min(degree)),))
