from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipspec import bigraph
from bipspec.bigraph import (
    BipartiteGraph,
    DegreeProfile,
    build,
    complete_bipartite,
    edge_connectivity,
    path_graph,
    random_tree,
    read_edge_list,
    write_edge_list,
)
from bipspec.eccode import parity_check_from_graph
from bipspec.spectra import adjacency_matrix
from bipspec.vsplit import SPLIT_RULES, vertex_split
from edge_views import edge_pairs, neighbors


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


def test_generators_refuse_sides_and_edges_beyond_the_limits(monkeypatch):
    monkeypatch.setattr(bigraph, "MAX_SIDE", 5)
    monkeypatch.setattr(bigraph, "MAX_EDGES", 12)
    accepted = [
        complete_bipartite(5, 2),
        path_graph(10),
        random_tree(6, "unbalanced", 0),
        random_tree(10, "balanced", 0),
    ]
    assert [(g.n1, g.n2, g.m) for g in accepted] == [(5, 2, 10), (5, 5, 9), (1, 5, 5), (5, 5, 9)]
    for make in (
        lambda: complete_bipartite(6, 1),
        lambda: path_graph(11),
        lambda: random_tree(7, "unbalanced", 0),
        lambda: random_tree(11, "balanced", 0),
    ):
        with pytest.raises(ValueError, match=r"^side sizes \(\d+, \d+\) exceed the limit 5$"):
            make()
    monkeypatch.setattr(bigraph, "MAX_SIDE", 10)
    at_limit = [complete_bipartite(4, 3), path_graph(13), random_tree(13, "balanced", 0)]
    assert [g.m for g in at_limit] == [12, 12, 12]
    for make in (
        lambda: complete_bipartite(7, 2),
        lambda: path_graph(14),
        lambda: random_tree(14, "balanced", 0),
    ):
        with pytest.raises(ValueError, match=r"^(14|13) edges exceed the limit 12$"):
            make()


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
        assert g.is_connected() and g.m == g.n - 1


def test_random_tree_unbalanced_is_star():
    g = random_tree(10, "unbalanced", 5)
    assert (g.n1, g.n2) == (1, 9)
    assert g.degree_profile().left_degrees == (9,)


def test_random_tree_balanced_sides():
    g = random_tree(10, "balanced", 7)
    assert (g.n1, g.n2) == (5, 5)
    assert g.m == 9
    assert g.is_connected() and g.m == g.n - 1


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
        assert g.is_connected() and g.m == g.n - 1
        prof = g.degree_profile()
        assert sum(prof.left_degrees) == sum(prof.right_degrees) == g.m


def test_random_tree_deterministic():
    assert random_tree(12, "balanced", 9) == random_tree(12, "balanced", 9)


def test_is_minimally_connected_cases():
    # minimally connected: connected, and every edge a bridge (m = n - 1)
    g = path_graph(4)
    assert g.is_connected() and g.m == g.n - 1
    g = complete_bipartite(2, 2)
    assert g.is_connected() and g.m != g.n - 1
    g = build(2, 2, [(0, 0), (1, 1)])
    assert not g.is_connected() and g.m != g.n - 1


def _brute_force_min_cut(g) -> int:
    """Independent oracle: smallest crossing-edge count over all vertex cuts.

    Enumerates every subset avoiding vertex 0 (one side of any cut can be
    taken to avoid it), so all 2^(n-1) - 1 cuts are covered.
    """
    n = g.n
    pairs = [(u, g.n1 + v) for u, v in edge_pairs(g)]
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


def _all_sinks_edge_connectivity(g) -> int:
    """The loop edge_connectivity ran before it used a dominating set: flows
    from vertex 0 to every other vertex, capped by the best cut so far."""
    if not g.is_connected():
        return 0
    adj = bigraph._vertex_adjacency(g)
    best = min(len(nb) for nb in adj)
    for sink in range(1, g.n):
        best = bigraph._max_flow_unit(adj, 0, sink, best)
    return best


def _random_graph(rng: random.Random, n1: int, n2: int, p: float):
    return build(n1, n2, [(u, v) for u in range(n1) for v in range(n2) if rng.random() < p])


def _bridged_blocks(rng: random.Random):
    """Two dense random blocks joined by fewer edges than their minimum
    degree, so the minimum cut lies below delta."""
    a, b = rng.randint(3, 6), rng.randint(3, 6)
    edges = [(u, v) for u in range(a) for v in range(a) if rng.random() < 0.9]
    edges += [(u, v) for u in range(a, a + b) for v in range(a, a + b) if rng.random() < 0.9]
    crossing = [(u, v) for u in range(a) for v in range(a, a + b)]
    crossing += [(u, v) for u in range(a, a + b) for v in range(a)]
    edges += rng.sample(crossing, rng.randint(1, 2))
    return build(a + b, a + b, edges)


def _connectivity_corpus():
    rng = random.Random(57)
    graphs = []
    for n in range(2, 40):
        for mode in ("balanced", "unbalanced") + ("average",) * (n % 4 == 0):
            graphs.append(random_tree(n, mode, rng.randrange(1000)))
    graphs += [complete_bipartite(1, n) for n in range(1, 9)]
    graphs += [complete_bipartite(n, 1) for n in range(2, 9)]
    graphs += [complete_bipartite(m, n) for m in range(2, 7) for n in range(2, 7)]
    for _ in range(80):
        base = _random_graph(rng, rng.randint(2, 7), rng.randint(2, 7), rng.choice((0.5, 0.8)))
        if base.m:
            rule = rng.choice(SPLIT_RULES)
            graphs.append(vertex_split(base, rule, rng.randrange(100)))
    for _ in range(60):  # mostly disconnected
        g = _random_graph(rng, rng.randint(2, 8), rng.randint(2, 8), 0.15)
        if g.m:
            graphs.append(g)
    for _ in range(80):
        graphs.append(_random_graph(rng, rng.randint(2, 9), rng.randint(2, 9), rng.choice((0.4, 0.7))))
    graphs += [_bridged_blocks(rng) for _ in range(80)]
    return graphs


def test_edge_connectivity_matches_all_sinks_loop():
    graphs = _connectivity_corpus()
    assert len(graphs) >= 400
    seen = {"disconnected": 0, "below_delta": 0, "at_delta": 0}
    for g in graphs:
        kappa = edge_connectivity(g)
        assert kappa == _all_sinks_edge_connectivity(g)
        delta = g.degree_profile().delta
        if not g.is_connected():
            seen["disconnected"] += 1
        elif kappa < delta:
            seen["below_delta"] += 1
        else:
            seen["at_delta"] += 1
    assert min(seen.values()) >= 20, seen


def test_dominating_set_covers_every_vertex():
    for g in _connectivity_corpus()[::7]:
        adj = bigraph._vertex_adjacency(g)
        members = bigraph._dominating_set(adj)
        assert members[0] == 0 and members == sorted(set(members))
        covered = set()
        for x in members:  # greedy: no member is covered by an earlier one
            assert x not in covered
            covered |= {x, *adj[x]}
        assert covered == set(range(g.n))


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
        ("bip 1_1 2", 1, "expected integer sides, got '1_1' '2'"),
        ("bip 4 4\ne +3 0", 2, "expected integer endpoints, got '\\+3' '0'"),
        ("bip 4 4\ne \u0663 1", 2, "expected integer endpoints, got '\u0663' '1'"),
        ("# \u00e9\nbip 2 2\ne 0 0\ne 0 1_0\n", 4, "expected integer endpoints, got '0' '1_0'"),
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


def _ascii_int(token: str) -> int:
    """int restricted to ASCII -?[0-9]+ (int alone also reads '+1', '1_0'
    and non-ASCII digits)."""
    if not (token.isascii() and token.lstrip("-").isdigit() and token.count("-") <= 1):
        raise ValueError(token)
    return int(token)


def _seed_read_edge_list(text: str) -> BipartiteGraph:
    """The reader read_edge_list replaced: a per-line generator whose pairs
    are checked one by one as they are read, so every error names its line.
    Every integer token is read by _ascii_int."""
    lines = enumerate(text.splitlines(), start=1)
    at = 0

    def edges():
        nonlocal at
        for at, raw in lines:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 3 or parts[0] != "e":
                raise ValueError("expected edge line 'e <left> <right>'")
            try:
                u, v = _ascii_int(parts[1]), _ascii_int(parts[2])
            except ValueError:
                raise ValueError(
                    f"expected integer endpoints, got {parts[1]!r} {parts[2]!r}"
                ) from None
            yield u, v

    try:
        for at, raw in lines:
            header = raw.split()
            if header and not header[0].startswith("#"):
                break
        else:
            at += 1
            raise ValueError("missing 'bip <n1> <n2>' header")
        if len(header) != 3 or header[0] != "bip":
            raise ValueError("expected header 'bip <n1> <n2>'")
        try:
            n1, n2 = _ascii_int(header[1]), _ascii_int(header[2])
        except ValueError:
            raise ValueError(f"expected integer sides, got {header[1]!r} {header[2]!r}") from None
        if max(n1, n2) > bigraph.MAX_SIDE:
            raise ValueError(f"side sizes ({n1}, {n2}) exceed the limit {bigraph.MAX_SIDE}")
        if n1 < 1 or n2 < 1:
            raise ValueError(f"both sides must be nonempty, got sizes ({n1}, {n2})")
        seen = set()
        for u, v in edges():
            if not (0 <= u < n1 and 0 <= v < n2):
                raise ValueError(f"edge ({u}, {v}) out of range for sides ({n1}, {n2})")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        return build(n1, n2, seen)
    except ValueError as exc:
        raise ValueError(f"line {at}: {exc}") from None


def _outcome(read, text: str):
    try:
        return read(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


# strategies are repeated inside one_of to weight the branches toward text
# that parses, so that equal graphs are compared as often as equal errors;
# '-0' and endpoints of seven or more digits must bypass the canonical-text
# path and be read by the line walk
_IN_RANGE = st.integers(0, 3)
_END = st.one_of(
    _IN_RANGE,
    _IN_RANGE,
    _IN_RANGE,
    st.sampled_from([-1, 4, 5, 1000000, 18446744073709551616, "0000001", "-0"]),
)
_SIDES = st.builds("bip {} {}".format, st.integers(1, 4), st.integers(1, 4))
_HEADER = st.one_of(
    _SIDES,
    _SIDES,
    _SIDES,
    st.sampled_from(
        [
            None, "bip 0 2", "bip 3 -1", "bip 100001 1", "bip 1 99999999999", "bip x 2",
            "bip 2", "bop 2 2", "bip 2 2 2", "e 0 0", "bip 1_1 2", "bip +2 2", "bip 2 \u0663",
        ]
    ),
)
_EDGE = st.builds("e {} {}".format, _END, _END)
_JUNK = st.sampled_from(
    [
        "", "   ", "# comment", "#e 0 0", "  # e 9 9", "x 0 0", "E 1 1", "e 0", "e 0 0 0",
        "e a 1", "e 1 1.5", "e 0 0 # note", "bip 2 2", "e +1 0", "e 1_0 0", "e \u0663 1",
        "e -0 1", "e 01 0", "e --1 0", "# caf\u00e9 +_",
    ]
)
_LINE = st.one_of(_EDGE, _EDGE, _EDGE, st.builds("  e\t{} {}  ".format, _END, _END), _JUNK)


def _text(lead, header, body, newline, trailing):
    text = newline.join(lead + ([header] if header is not None else []) + body)
    return text + (newline if trailing else "")


_ANY_TEXT = st.builds(
    _text,
    st.lists(st.sampled_from(["", "# c", "  "]), max_size=2),
    _HEADER,
    st.lists(_LINE, max_size=12),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


@st.composite
def _canonical_text(draw) -> str:
    """Text shaped as write_edge_list writes it, the canonical-text path's
    input.  It must still fall back on a bad side, an out-of-range or
    duplicate edge, a missing final newline, or the one line that may be
    spoiled by a long or signed token or by a missing line break."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    header = draw(
        st.sampled_from([f"bip {n1} {n2}"] * 4 + ["bip 0 2", "bip 100001 1", "bip 1 1e 0 0"])
    )
    # mostly in range; side n is one past the end
    left = st.one_of(st.integers(0, n1 - 1), st.integers(0, n1 - 1), st.just(n1))
    right = st.one_of(st.integers(0, n2 - 1), st.integers(0, n2 - 1), st.just(n2))
    body = draw(st.lists(st.builds("e {} {}".format, left, right), max_size=8))
    spoiler = draw(
        st.sampled_from(
            [None] * 6
            + ["e 1000000 0", "e 18446744073709551616 0", "e 0000001 0", "e -0 1", "e 0 0e 1 0"]
        )
    )
    if spoiler is not None:
        body.insert(draw(st.integers(0, len(body))), spoiler)
    return _text([], header, body, "\n", draw(st.sampled_from([True, True, True, False])))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ANY_TEXT, _canonical_text()))
def test_edge_list_reader_matches_seed_reader(text):
    assert _outcome(read_edge_list, text) == _outcome(_seed_read_edge_list, text)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_edge_list_write_read_roundtrip(n1, n2, data):
    pairs = [(u, v) for u in range(n1) for v in range(n2)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges")
    g = build(n1, n2, edges)
    text = write_edge_list(g)
    assert read_edge_list(text) == g
    assert write_edge_list(read_edge_list(text)) == text


def _seed_degree_profile(g) -> DegreeProfile:
    left_count = [0] * g.n1
    right_count = [0] * g.n2
    for u, v in edge_pairs(g):
        left_count[u] += 1
        right_count[v] += 1
    left, right = tuple(left_count), tuple(right_count)
    delta = min(min(left), min(right))
    left_regular = len(set(left)) == 1
    biregular = left_regular and len(set(right)) == 1
    regular = biregular and left[0] == right[0]
    return DegreeProfile(left, right, delta, left_regular, biregular, regular)


def _seed_vertex_adjacency(g) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in edge_pairs(g):
        adj[u].append(g.n1 + v)
        adj[g.n1 + v].append(u)
    return adj


def _seed_is_connected(g) -> bool:
    if g.n <= 1:
        return True
    adj = _seed_vertex_adjacency(g)
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                queue.append(y)
    return count == g.n


def _seed_write_edge_list(g) -> str:
    lines = [f"bip {g.n1} {g.n2}"]
    lines += [f"e {u} {v}" for u, v in sorted(edge_pairs(g))]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_cached_adjacency_matches_per_call_edge_walks(n1, n2, data):
    # the edge walks each reader ran on every call before the graph derived
    # them from its keys; the empty edge set and isolated vertices are drawn too
    pairs = [(u, v) for u in range(n1) for v in range(n2)]
    g = build(n1, n2, data.draw(st.lists(st.sampled_from(pairs), unique=True), label="edges"))
    assert g.degree_profile() == _seed_degree_profile(g)
    assert g.is_connected() == _seed_is_connected(g)
    adj = bigraph._vertex_adjacency(g)
    assert [set(nb) for nb in adj] == [set(nb) for nb in _seed_vertex_adjacency(g)]
    assert write_edge_list(g) == _seed_write_edge_list(g)


def _loop_group(size: int, edges, by_right: bool) -> tuple[tuple[int, ...], ...]:
    """The per-edge grouping the graph ran before it kept sorted edge keys."""
    groups: list[list[int]] = [[] for _ in range(size)]
    for u, v in edges:
        if by_right:
            groups[v].append(u)
        else:
            groups[u].append(v)
    return tuple(tuple(sorted(nb)) for nb in groups)


def _loop_biadjacency(n1: int, n2: int, edges) -> np.ndarray:
    B = np.zeros((n1, n2), dtype=np.uint8)
    for u, v in edges:
        B[u, v] = 1
    return B


@st.composite
def _pairs_on(draw, sides):
    """Sides drawn from `sides` and a set of pairs in range: the empty set
    and isolated vertices are drawn too."""
    n1, n2 = draw(sides)
    pair = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1))
    return n1, n2, draw(st.lists(pair, max_size=40, unique=True))


def _check_edge_keys_against_oracles(case, data) -> None:
    n1, n2, pairs = case
    g = build(n1, n2, pairs)
    edges = frozenset(pairs)
    assert frozenset(edge_pairs(g)) == edges and g.m == len(pairs)
    left, right = _loop_group(n1, edges, by_right=False), _loop_group(n2, edges, by_right=True)
    assert neighbors(g, "left") == left and neighbors(g, "right") == right
    # the connectivity walks' neighbour tuples, right vertex v at n1 + v
    assert bigraph._vertex_adjacency(g) == [tuple(n1 + v for v in nb) for nb in left] + list(right)
    # the one grouping by vertex: both sides' degrees and lists, empty ones too
    grouped = bigraph._incidence(g.keys, n1, n2)
    row, col, row_degree, col_degree, by_col = (a.tolist() for a in grouped)
    assert list(zip(row, col)) == [(u, v) for u, nb in enumerate(left) for v in nb]
    assert row_degree == [len(nb) for nb in left] and col_degree == [len(nb) for nb in right]
    assert by_col == [u for nb in right for u in nb]
    code = parity_check_from_graph(g)
    assert all(np.array_equal(a, b) for a, b in zip(code._incidence[:5], grouped, strict=True))
    B = _loop_biadjacency(n1, n2, edges)
    assert np.array_equal(g.biadjacency(), B)
    assert np.array_equal(code.H, B.T)
    text = write_edge_list(g)
    assert text.encode() == _seed_write_edge_list(g).encode()
    # the same pairs in any order are one graph
    other = build(n1, n2, data.draw(st.permutations(pairs), label="shuffled"))
    assert other == g and hash(other) == hash(g)
    # canonical text takes the bulk path, a comment line the line walk
    assert read_edge_list(text) == g == read_edge_list("# a comment\n" + text)


_SMALL_SIDE = st.integers(1, 9)
_LARGE_SIDE = st.integers(bigraph.MAX_SIDE - 2, bigraph.MAX_SIDE)


@settings(max_examples=150, deadline=None)
@given(
    _pairs_on(st.one_of(st.tuples(_SMALL_SIDE, _SMALL_SIDE), st.tuples(_SMALL_SIDE, st.just(1)))),
    st.data(),
)
def test_edge_keys_match_per_edge_oracles(case, data):
    _check_edge_keys_against_oracles(case, data)


# one side within 2 of MAX_SIDE, never both, so the dense matrices stay
# small; each example walks 10^5 vertices in the oracles, hence the few
@settings(max_examples=12, deadline=None)
@given(
    _pairs_on(st.one_of(st.tuples(_LARGE_SIDE, _SMALL_SIDE), st.tuples(_SMALL_SIDE, _LARGE_SIDE))),
    st.data(),
)
def test_edge_keys_match_per_edge_oracles_near_max_side(case, data):
    _check_edge_keys_against_oracles(case, data)


def _loop_pack(keys, rows: int, cols: int) -> np.ndarray:
    """The packed rows as bytes, one key at a time: column c of row r is
    bit 7 - c % 8 of byte c // 8 of a row of 8 * ceil(cols / 64) bytes."""
    packed = np.zeros((rows, 8 * -(-cols // 64)), dtype=np.uint8)
    for key in keys:
        r, c = divmod(int(key), cols)
        packed[r, c // 8] |= 1 << 7 - c % 8
    return packed


@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129])
def test_pack_keys_matches_a_per_key_loop(cols):
    # row 0 is full, so it sets a bit on each side of every byte and word
    # boundary; row 1 is empty and later rows are random
    rng = random.Random(cols)
    for rows in (1, 2, 5):
        cells = ((r, c) for r in range(rows) for c in range(cols))
        keys = np.array(
            [r * cols + c for r, c in cells if r == 0 or r > 1 and rng.random() < 0.4], dtype=np.int64
        )
        packed = bigraph._pack_keys(keys, rows, cols)
        assert packed.dtype == np.uint64 and packed.shape == (rows, -(-cols // 64))
        assert np.array_equal(packed.view(np.uint8), _loop_pack(keys, rows, cols)), rows
    # a graph with zero edges packs to zero words of the same shape
    empty = build(3, cols, [])
    packed = bigraph._pack_keys(empty.keys, empty.n1, empty.n2)
    assert packed.shape == (3, -(-cols // 64)) and not packed.any()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 130), st.data())
def test_pack_keys_reads_the_keys_in_any_order(rows, cols, data):
    # the right-side neighbourhood rows and the columns of H are packed
    # from keys that are distinct but not sorted
    keys = data.draw(st.lists(st.integers(0, rows * cols - 1), unique=True))
    permuted = np.array(data.draw(st.permutations(keys)), dtype=np.int64)
    assert np.array_equal(
        bigraph._pack_keys(permuted, rows, cols), bigraph._pack_keys(np.sort(permuted), rows, cols)
    )


def test_edge_list_reports_the_first_bad_line():
    # a bad edge before a malformed line is reported, and the other way round
    assert _outcome(read_edge_list, "bip 2 2\ne 0 0\ne 0 0\nx\n") == (
        "ValueError: line 3: duplicate edge (0, 0)"
    )
    assert _outcome(read_edge_list, "bip 2 2\ne 0 0\nx\ne 0 0\n") == (
        "ValueError: line 3: expected edge line 'e <left> <right>'"
    )
    assert _outcome(read_edge_list, "bip 2 2\ne 0 1\ne 1 1\ne 5 0\ne 0 1\n") == (
        "ValueError: line 4: edge (5, 0) out of range for sides (2, 2)"
    )


def test_edge_list_reader_paths_agree_at_scale():
    # 3,000 edges of a 100 x 60 graph, from write_edge_list: the
    # canonical-text path reads it, and pushing one endpoint near the end
    # out of range sends it to the line walk, whose error names that line
    rng = random.Random(11)
    pairs = rng.sample([(u, v) for u in range(100) for v in range(60)], 3000)
    g = build(100, 60, pairs)
    text = write_edge_list(g)
    assert bigraph._read_canonical(text) == g
    assert read_edge_list(text) == g and write_edge_list(read_edge_list(text)) == text
    lines = text.splitlines(keepends=True)
    u, v = edge_pairs(g)[2990]
    lines[2991] = f"e {u} 60\n"  # line 2992 of the file
    bad = "".join(lines)
    assert bigraph._read_canonical(bad) is None
    expected = f"ValueError: line 2992: edge ({u}, 60) out of range for sides (100, 60)"
    assert _outcome(read_edge_list, bad) == expected == _outcome(_seed_read_edge_list, bad)


def test_canonical_text_is_matched_a_block_at_a_time(monkeypatch):
    # K_{200,200} writes 40,000 edge lines, several blocks of the canonical
    # match; the bulk path reads every block, so the line walk never runs
    g = complete_bipartite(200, 200)
    text = write_edge_list(g)
    assert len(text) > 4 * bigraph._BLOCK_CHARS

    def refuse(text):
        raise AssertionError("canonical text reached the line walk")

    with monkeypatch.context() as patch:
        patch.setattr(bigraph, "_read_lines", refuse)
        assert read_edge_list(text) == g
    # a line that straddles the first block's nominal end is cut with its
    # block: a doubled space in it sends the text to the line walk, which
    # reads the same graph
    lines = text.splitlines(keepends=True)
    end = len(lines[0]) + bigraph._BLOCK_CHARS  # the first block's nominal end
    assert text[end - 1] != "\n"
    at = text.count("\n", 0, end - 1)  # the line that holds character end - 1
    spoiled = lines.copy()
    spoiled[at] = spoiled[at].replace(" ", "  ", 1)
    assert bigraph._read_canonical("".join(spoiled)) is None
    assert read_edge_list("".join(spoiled)) == g
    # a bad line in the last block gets the line walk's message
    lines[-2] = "e 199 x\n"
    bad = "".join(lines)
    assert bigraph._read_canonical(bad) is None
    expected = f"ValueError: line {len(lines) - 1}: expected integer endpoints, got '199' 'x'"
    assert _outcome(read_edge_list, bad) == expected == _outcome(_seed_read_edge_list, bad)


def test_dense_matrices_refused_above_the_cell_limit(monkeypatch):
    monkeypatch.setattr(bigraph, "MAX_DENSE_CELLS", 12)
    g = build(2, 4, [(0, 0), (1, 3)])  # 8 biadjacency cells, 36 adjacency cells
    assert g.biadjacency().shape == (2, 4)
    assert parity_check_from_graph(g).H.shape == (4, 2)
    with pytest.raises(ValueError, match=r"^a 6 x 6 adjacency matrix exceeds the limit of 12 cells$"):
        adjacency_matrix(g)
    wide = build(2, 7, [(0, 0)])
    with pytest.raises(ValueError, match=r"^a 2 x 7 biadjacency matrix exceeds the limit of 12 cells$"):
        wide.biadjacency()
    with pytest.raises(ValueError, match=r"^a 7 x 2 parity-check matrix exceeds the limit of 12 cells$"):
        parity_check_from_graph(wide)
