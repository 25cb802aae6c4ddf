"""Simple bipartite graphs: construction, generators, connectivity, edge-list I/O.

Vertices are dense integer indices per side: left vertices 0..n1-1, right
vertices 0..n2-1.  Edges are (left, right) pairs.  A graph is its sides and
one array, the ascending int64 edge keys u * n2 + v; `build` is the one
checked constructor from pairs.  The readers, `build`, `complete_bipartite`
and `vsplit.vertex_split` make the keys in bulk, and the edge count,
degrees, the biadjacency matrix, the writer's text and the bit rows of the
expansion search and the GF(2) elimination (`_pack_keys`) are derived from
them with numpy, without a Python loop over the edges: `gen --complete 1000
1000` takes 0.4-0.5 s, where a frozenset of pairs per graph took 1.5-1.9 s
(Python 3.11, Intel Xeon).  `_incidence` is the one grouping of keys by
vertex, each side's lists ascending: the connectivity walks' neighbour
tuples, the vertex split and a code's incidence lists all cut its arrays.

Graphs are immutable after construction.  Each graph derives its degree
profile and its hash on the first read and keeps them; otherwise every
function here is pure.  Two concurrent first reads compute identical
values, so concurrent use is safe.
"""

from __future__ import annotations

import random
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from operator import add, itemgetter
from typing import NamedTuple

import numpy as np

# Largest side `read_edge_list` accepts: a header beyond it is refused before
# anything is allocated.  Every command builds per-vertex lists and dense
# matrices, so sides in the hundreds are desk scale and 10**5 is a wide margin.
MAX_SIDE = 10**5
# Largest dense rows x cols matrix any command allocates (`check_dense`):
# 10**8 cells is 100 MB as uint8 (800 MB for the float64 adjacency matrix),
# far past desk-scale graphs.  It also gates the expansion search and a
# code, counted in bits: each holds rows x cols bits packed by _pack_keys.
MAX_DENSE_CELLS = 10**8
# Largest edge count a generator builds, checked with MAX_SIDE before any
# edge is.  An edge costs about 120 bytes while gen builds and writes a graph,
# most of it the text of its line: `gen --complete 1000 1000` (10**6 edges)
# peaks at 152 MB resident and takes 0.40-0.53 s (Python 3.11, Intel Xeon;
# 242 MB and 1.55-1.86 s with a frozenset of pairs per graph).
MAX_EDGES = 10**6


def check_dense(rows: int, cols: int, name: str) -> None:
    """Refuse a dense rows x cols `name` of more than MAX_DENSE_CELLS cells,
    before it is allocated."""
    if rows * cols > MAX_DENSE_CELLS:
        raise ValueError(f"a {rows} x {cols} {name} exceeds the limit of {MAX_DENSE_CELLS} cells")


class DegreeProfile(NamedTuple):
    """Per-side degree sequences and the regularity flags derived from them."""

    left_degrees: tuple[int, ...]
    right_degrees: tuple[int, ...]
    delta: int
    is_left_regular: bool
    is_biregular: bool
    is_regular: bool


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Immutable simple bipartite graph with explicit sides X (left) and Y (right).

    The graph is its sides and `keys`: the read-only int64 array of the edge
    keys u * n2 + v, ascending and without duplicates (each below
    n1 * n2 <= 10**10 under MAX_SIDE).  The keys are not checked here;
    `build` is the checked constructor from (left, right) pairs.  Everything
    else is derived from the keys; graphs are equal when their sides and
    keys are.
    """

    n1: int
    n2: int
    keys: np.ndarray

    def __post_init__(self) -> None:
        self.keys.setflags(write=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self.n1, self.n2) == (other.n1, other.n2) and np.array_equal(self.keys, other.keys)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the sides and keys, kept: a graph serves as a key
        of dicts and sets, where it is hashed again and again."""
        return hash((self.n1, self.n2, self.keys.tobytes()))

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def m(self) -> int:
        return self.keys.size

    def biadjacency(self) -> np.ndarray:
        """The n1 x n2 0/1 matrix B with B[u, v] = 1 exactly for edge (u, v)."""
        check_dense(self.n1, self.n2, "biadjacency matrix")
        B = np.zeros((self.n1, self.n2), dtype=np.uint8)
        B.reshape(-1)[self.keys] = 1  # key u * n2 + v is B's flat index of (u, v)
        return B

    def degree_profile(self) -> DegreeProfile:
        return self._degree_profile

    @cached_property
    def _degree_profile(self) -> DegreeProfile:
        """The degree profile, derived on first read and kept: a split
        and its criteria read it four times."""
        left_ends, right_ends = np.divmod(self.keys, self.n2)
        left = tuple(np.bincount(left_ends, minlength=self.n1).tolist())
        right = tuple(np.bincount(right_ends, minlength=self.n2).tolist())
        delta = min(min(left), min(right))
        left_regular = len(set(left)) == 1
        biregular = left_regular and len(set(right)) == 1
        regular = biregular and left[0] == right[0]
        return DegreeProfile(left, right, delta, left_regular, biregular, regular)

    def is_connected(self) -> bool:
        """BFS over the whole vertex set (left indices first, then right)."""
        return _reaches_all(_vertex_adjacency(self))


def _incidence(keys: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, ...]:
    """The ascending keys r * cols + c grouped by vertex, as five flat int64
    arrays: row and col, the ends of each key in key order (so each row's
    cols ascend); row_degree and col_degree; and by_col, every key's row
    listed column by column, each column's rows ascending.  The one place
    edge keys are grouped by vertex."""
    row, col = np.divmod(keys, cols)
    by_col = np.sort(col * rows + row) % rows
    return row, col, np.bincount(row, minlength=rows), np.bincount(col, minlength=cols), by_col


def _pack_keys(keys: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols 0/1 matrix with ones at the distinct keys r * cols + c,
    in any order, each row padded to ceil(cols / 64) uint64 words: column c
    is bit 7 - c % 8 of byte c // 8, so `int.from_bytes(row, "big")` leads
    with the leftmost column.  The one bit layout of expansion and the GF(2)
    code."""
    words = -(-cols // 64)
    bit = keys + keys // cols * (64 * words - cols)  # each row padded to whole words
    packed = np.zeros(rows * words * 8, dtype=np.uint8)
    # the bits added into one byte are distinct, so their sum sets each
    np.add.at(packed, bit >> 3, (128 >> (bit & 7)).astype(np.uint8))
    return packed.view(np.uint64).reshape(rows, words)


def _vertex_adjacency(g: BipartiteGraph) -> list[tuple[int, ...]]:
    """Neighbor tuples over the whole vertex set: left vertex u is u, right
    vertex v is n1 + v."""
    _, right, left_degree, right_degree, by_right = _incidence(g.keys, g.n1, g.n2)
    flat = chain((right + g.n1).tolist(), by_right.tolist())
    return [tuple(islice(flat, d)) for d in left_degree.tolist() + right_degree.tolist()]


def _reaches_all(adj: list[tuple[int, ...]]) -> bool:
    """Whether a BFS from vertex 0 reaches every vertex of adj."""
    if len(adj) <= 1:
        return True
    seen = [False] * len(adj)
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
    return count == len(adj)


def build(n1: int, n2: int, edges) -> BipartiteGraph:
    """Validate and construct a bipartite graph.

    Rejects out-of-range endpoints and duplicate edges, naming the first
    offending pair in the error message.
    """
    _check_sides(n1, n2)
    return BipartiteGraph(n1, n2, _edge_keys(n1, n2, [(u, v) for u, v in edges]))


def _check_sides(n1: int, n2: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ValueError(f"both sides must be nonempty, got sizes ({n1}, {n2})")


# endpoints of a (left, right) pair; map() with these allocates no container
# per pair, where zip(*pairs) makes an iterator per pair for the collector
_LEFT, _RIGHT = itemgetter(0), itemgetter(1)


class _EdgeError(ValueError):
    """A bad pair, at position index of the pairs checked."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(message)
        self.index = index


def _edge_keys(n1: int, n2: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """The pairs' ascending edge keys, after checking them in bulk: every
    endpoint in range and no pair twice.  On failure the pairs are walked in
    order and the first bad one raises _EdgeError."""
    if not pairs:
        return np.empty(0, dtype=np.int64)
    if (0 <= min(map(_LEFT, pairs)) and max(map(_LEFT, pairs)) < n1) and (
        0 <= min(map(_RIGHT, pairs)) and max(map(_RIGHT, pairs)) < n2
    ):  # so every endpoint fits in int64
        ends = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * len(pairs))
        keys = np.sort(ends[0::2] * n2 + ends[1::2])
        if not np.any(keys[1:] == keys[:-1]):
            return keys
    seen: set[tuple[int, int]] = set()
    for index, (u, v) in enumerate(pairs):
        if not (0 <= u < n1 and 0 <= v < n2):
            raise _EdgeError(index, f"edge ({u}, {v}) out of range for sides ({n1}, {n2})")
        if (u, v) in seen:
            raise _EdgeError(index, f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    raise AssertionError("unreachable: the bulk check failed, so some pair is bad")


def _check_generated(n1: int, n2: int, m: int) -> None:
    """Refuse a graph to generate with a side above MAX_SIDE or more than
    MAX_EDGES edges."""
    if max(n1, n2) > MAX_SIDE:
        raise ValueError(f"side sizes ({n1}, {n2}) exceed the limit {MAX_SIDE}")
    if m > MAX_EDGES:
        raise ValueError(f"{m} edges exceed the limit {MAX_EDGES}")


def complete_bipartite(m: int, n: int) -> BipartiteGraph:
    """K_{m,n}: left side of size m, right side of size n, all m*n edges.

    Sizes beyond MAX_SIDE or MAX_EDGES are refused before any edge is built.
    """
    if m < 1 or n < 1:
        raise ValueError(f"complete bipartite sides must be >= 1, got ({m}, {n})")
    _check_generated(m, n, m * n)
    return BipartiteGraph(m, n, np.arange(m * n, dtype=np.int64))


def path_graph(n: int) -> BipartiteGraph:
    """Path on n vertices, sides assigned by alternation.

    Path vertex 2i becomes left vertex i, path vertex 2i+1 becomes right
    vertex i, so the sides have sizes (ceil(n/2), floor(n/2)).  Sizes beyond
    MAX_SIDE or MAX_EDGES are refused before any edge is built.
    """
    if n < 2:
        raise ValueError(f"path needs at least 2 vertices, got {n}")
    _check_generated((n + 1) // 2, n // 2, n - 1)
    edges = []
    for k in range(n - 1):
        if k % 2 == 0:
            edges.append((k // 2, k // 2))
        else:
            edges.append((k // 2 + 1, k // 2))
    return build((n + 1) // 2, n // 2, edges)


TREE_MODES = ("balanced", "unbalanced", "average")


def _tree_side_sizes(n: int, mode: str) -> tuple[int, int]:
    if mode == "balanced":
        return (n + 1) // 2, n // 2
    if mode == "unbalanced":
        return 1, n - 1
    if mode == "average":
        if n % 2 == 0:
            num1, num2 = 3 * n - 4, n + 4
        elif n % 4 == 3:
            num1, num2 = 3 * n - 3, n + 3
        else:  # n % 4 == 1
            num1, num2 = 3 * n - 5, n + 5
        if num1 % 4 or num2 % 4:
            raise ValueError(
                f"average bipartition infeasible for n={n}: "
                f"side formula gives ({num1}/4, {num2}/4)"
            )
        return num1 // 4, num2 // 4
    raise ValueError(f"unknown tree mode {mode!r}; expected one of {TREE_MODES}")


def random_tree(n: int, mode: str, seed: int) -> BipartiteGraph:
    """Seeded random tree whose alternation bipartition has the requested sizes.

    Grows a spanning tree by attaching each new vertex to a uniformly random
    vertex of the opposite side, alternating sides at random while capacity
    remains.  The result is always connected with m = n - 1, and identical
    seeds give identical trees.  Sizes beyond MAX_SIDE or MAX_EDGES are
    refused before any edge is built.
    """
    if n < 2:
        raise ValueError(f"tree needs at least 2 vertices, got {n}")
    a, b = _tree_side_sizes(n, mode)
    _check_generated(a, b, n - 1)
    return build(a, b, _tree_edges(random.Random(seed), a, b))


def _tree_edges(rng: random.Random, n1: int, n2: int) -> list[tuple[int, int]]:
    """random_tree's growth loop: spanning-tree edges on sides of sizes n1
    and n2, drawn from rng."""
    edges = [(0, 0)]
    left_used, right_used = 1, 1
    while left_used + right_used < n1 + n2:
        can_left = left_used < n1
        can_right = right_used < n2
        grow_left = rng.random() < 0.5 if can_left and can_right else can_left
        if grow_left:
            edges.append((left_used, rng.randrange(right_used)))
            left_used += 1
        else:
            edges.append((rng.randrange(left_used), right_used))
            right_used += 1
    return edges


def edge_connectivity(g: BipartiteGraph) -> int:
    """Edge connectivity via unit-capacity max-flow (Edmonds-Karp).

    The minimum degree delta bounds the minimum edge cut.  If a smaller cut
    [S, S'] exists, each side holds a vertex with no neighbour across it, so
    every dominating set meets both sides (Esfahanian & Hakimi 1984; Matula
    1987).  Flows from vertex 0 to the other members of a greedy dominating
    set that contains 0 therefore find the minimum cut; each flow stops once
    it reaches the best cut found so far, starting at delta, since a larger
    flow could not lower the minimum.  Returns 0 for disconnected input.
    """
    adj = _vertex_adjacency(g)
    if len(adj) < 2 or not _reaches_all(adj):
        return 0
    best = min(len(nb) for nb in adj)
    for sink in _dominating_set(adj)[1:]:
        best = _max_flow_unit(adj, 0, sink, best)
    return best


def _dominating_set(adj: list[tuple[int, ...]]) -> list[int]:
    """A dominating set, greedily in vertex order: vertex 0 first, then each
    vertex that no member or member's neighbour covers yet."""
    covered = [False] * len(adj)
    members = []
    for x, nb in enumerate(adj):
        if not covered[x]:
            members.append(x)
            covered[x] = True
            for y in nb:
                covered[y] = True
    return members


def _max_flow_unit(adj: list[tuple[int, ...]], s: int, t: int, limit: int) -> int:
    """Unit-capacity s-t max flow over undirected adjacency lists, stopped
    at limit augmenting paths."""
    # residual capacities; an undirected unit edge carries capacity 1 each way
    cap = [dict.fromkeys(nb, 1) for nb in adj]
    flow = 0
    while flow < limit:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            x = queue.popleft()
            for y, c in cap[x].items():
                if c and y not in parent:
                    parent[y] = x
                    queue.append(y)
        if t not in parent:
            break
        y = t
        while y != s:
            x = parent[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
    return flow


_INTEGER = re.compile(r"-?[0-9]+")


def _ascii_int(token: str) -> int:
    """The integer of an ASCII -?[0-9]+ token; any other token raises
    ValueError, where Python's int would also read '+3', '1_1' and
    non-ASCII digits."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"invalid integer {token!r}")
    return int(token)


def write_edge_list(g: BipartiteGraph) -> str:
    """Serialize to the `bip` edge-list text format (edges sorted, 0-based).

    Edge line `e u v` is the text of "e u " joined to the text of v, each
    made once per vertex and picked for every edge by its key.
    """
    left, right = np.divmod(g.keys, g.n2)
    heads = np.array([f"e {u} " for u in range(g.n1)], dtype=object)[left]
    tails = np.array([str(v) for v in range(g.n2)], dtype=object)[right]
    # the final "" gives the final newline, without a second copy of the text
    return "\n".join([f"bip {g.n1} {g.n2}", *map(add, heads.tolist(), tails.tolist()), ""])


# Canonical edge-list text, exactly as write_edge_list emits it: single
# spaces, a newline after every line, and ASCII integers of at most six
# digits, so no side or endpoint can overflow int64 (MAX_SIDE has six).  The
# edge lines' repeat is possessive, so the match keeps no state per line: a
# plain `*` keeps about 280 bytes a line, 330 MB resident on the
# 10**6-edge text of `gen --complete 1000 1000`.
_CANONICAL = re.compile(r"bip ([0-9]{1,6}) ([0-9]{1,6})\n(?:e [0-9]{1,6} [0-9]{1,6}\n)*+")


def read_edge_list(text: str) -> BipartiteGraph:
    """Parse the `bip` edge-list format; `#` comment lines are ignored.

    Sides and endpoints are ASCII integers, -?[0-9]+.  Malformed text raises
    ValueError starting with `line N:`, counting every line of the text from
    1, for the first offending line: a parse error on a later line than a
    bad edge is not reported.  A side above MAX_SIDE is refused at the
    header, before anything is allocated.

    Two paths read the text, chosen from the input alone.  Canonical text
    (what write_edge_list emits) is matched once, whole, by one regex whose
    edge lines repeat possessively; its endpoints are converted in one numpy
    call and checked in bulk.  Any other text, and canonical text that fails
    a check, is read line by line; that walk builds every error message, so
    both paths give the same graph or the same error.
    """
    graph = _read_canonical(text)
    return graph if graph is not None else _read_lines(text)


def _read_canonical(text: str) -> BipartiteGraph | None:
    """The graph of canonical edge-list text, or None when the text is not
    canonical or fails a side, range or duplicate check."""
    match = _CANONICAL.fullmatch(text)
    if match is None:
        return None
    n1, n2 = int(match[1]), int(match[2])
    if not (1 <= n1 <= MAX_SIDE and 1 <= n2 <= MAX_SIDE):
        return None
    # the body, after the header's newline, holds only 'e', digits, spaces
    # and newlines
    ends = np.fromstring(text[match.end(2) + 1 :].replace("e", " "), dtype=np.int64, sep=" ")
    left, right = ends[0::2], ends[1::2]
    if left.size and (left.max() >= n1 or right.max() >= n2):
        return None
    keys = left * n2 + right
    if np.any(keys[1:] <= keys[:-1]):  # not ascending, as the writer leaves them
        keys.sort()
        if np.any(keys[1:] == keys[:-1]):  # a duplicate edge
            return None
    return BipartiteGraph(n1, n2, keys)


def _read_lines(text: str) -> BipartiteGraph:
    """read_edge_list's line walk: one pass over the lines parses the header
    and the edges; the range and duplicate checks then run on all edges at
    once, and the first bad pair is named by its line."""
    lines = enumerate(text.splitlines(), start=1)
    at = 0  # the line being read
    for at, raw in lines:
        header = raw.split()
        if header and not header[0].startswith("#"):
            break
    else:
        raise ValueError(f"line {at + 1}: missing 'bip <n1> <n2>' header")
    try:
        if len(header) != 3 or header[0] != "bip":
            raise ValueError("expected header 'bip <n1> <n2>'")
        try:
            n1, n2 = _ascii_int(header[1]), _ascii_int(header[2])
        except ValueError:
            raise ValueError(f"expected integer sides, got {header[1]!r} {header[2]!r}") from None
        if max(n1, n2) > MAX_SIDE:
            raise ValueError(f"side sizes ({n1}, {n2}) exceed the limit {MAX_SIDE}")
        _check_sides(n1, n2)
    except ValueError as exc:
        raise ValueError(f"line {at}: {exc}") from None
    pairs: list[tuple[int, int]] = []
    where: list[int] = []  # the line of each pair
    problem = None  # the first malformed line, where parsing stopped
    for at, raw in lines:
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e":
            try:
                pair = _ascii_int(parts[1]), _ascii_int(parts[2])
            except ValueError:
                problem = f"line {at}: expected integer endpoints, got {parts[1]!r} {parts[2]!r}"
                break
            pairs.append(pair)
            where.append(at)
        elif parts and not parts[0].startswith("#"):
            problem = f"line {at}: expected edge line 'e <left> <right>'"
            break
    try:
        keys = _edge_keys(n1, n2, pairs)
    except _EdgeError as exc:
        raise ValueError(f"line {where[exc.index]}: {exc}") from None
    if problem is not None:
        raise ValueError(problem)
    return BipartiteGraph(n1, n2, keys)
