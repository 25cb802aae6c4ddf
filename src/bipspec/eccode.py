"""GF(2) linear codes from bipartite factor graphs.

Orientation: left vertices are variable bits, right vertices are parity
checks, so H[j][i] = 1 exactly when edge (i, j) is present.  The code is the
null space of H over GF(2); there is no generator-matrix path.  A code is
its factor graph's own edge keys i * check_count + j, bit-major, and every
other form is read from that one layout; the dense H is built only when
read, and no writer or decoder reads it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bigraph import MAX_SIDE, BipartiteGraph, _incidence, _pack_keys, check_dense, complete_bipartite
from .expansion import LosslessParams, check_lossless_feasible, lossless_parameters
from .spectra import REPORT_TOL
from .vsplit import vertex_split

MAX_ENUM_DIMENSION = 20
TABLE_DIMENSION = 12  # basis vectors spanned into min_distance's table


@dataclass(frozen=True, eq=False)
class LinearCode:
    """Parity-check view of a binary linear code.

    The code is its block length n, its check_count and `keys`: the
    read-only, ascending int64 keys i * check_count + j of the ones (j, i)
    of its check_count x n parity-check matrix H, the factor graph's edge
    keys, unchecked here (from_matrix and parity_check_from_graph check
    their input).  The forward elimination runs on the keys on
    construction, and its echelon rows are kept: rank, dimension = n - rank,
    rate = dimension / n.  basis (one codeword per row, by back-substitution
    on the kept rows), the incidence lists (grouped by bit and by check in
    `bigraph._incidence`, as a graph's edges are) and the read-only H are
    derived from the keys on first read, each once.
    The decoder and the alist writer read the incidence lists and the pchk
    writer reads the keys, so H is built only when H itself is read.
    """

    n: int
    check_count: int
    keys: np.ndarray
    _echelon: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"block length must be >= 1, got {self.n} columns")
        self.keys.setflags(write=False)
        object.__setattr__(self, "_echelon", _gf2_echelon(self.keys, self.check_count, self.n))

    @classmethod
    def from_matrix(cls, H: np.ndarray) -> LinearCode:
        H = np.asarray(H, dtype=np.uint8)
        if H.ndim != 2:
            raise ValueError(f"parity-check matrix must be 2-D, got shape {H.shape}")
        rows, cols = H.shape
        # H^T mod 2 in C order (& 1, without numpy's slow uint8 modulo)
        return cls(cols, rows, np.flatnonzero(np.bitwise_and(H.T, 1, order="C")))

    @functools.cached_property
    def rank(self) -> int:
        return len(self._echelon) - self._echelon.count(0)

    @property
    def dimension(self) -> int:
        return self.n - self.rank

    @property
    def rate(self) -> float:
        return self.dimension / self.n

    @functools.cached_property
    def H(self) -> np.ndarray:
        """The check_count x n 0/1 parity-check matrix, built on first read."""
        H = np.zeros((self.check_count, self.n), dtype=np.uint8)
        H.T.flat[self.keys] = 1  # key i * check_count + j is H^T's flat index of (i, j)
        H.setflags(write=False)
        return H

    @functools.cached_property
    def basis(self) -> np.ndarray:
        M, pivot_cols = _gf2_back_substitute(self._echelon, self.n)
        basis = _nullspace(M, pivot_cols)
        basis.setflags(write=False)
        return basis

    @functools.cached_property
    def _incidence(self) -> tuple[np.ndarray, ...]:
        """The ones of H grouped by bit and by check, as seven flat int64
        arrays: the five of `bigraph._incidence` on the keys (bits and
        checks, the bit and check of each one in key order; col_weight and
        row_weight; check_bits, the bits listed check by check), then the
        starts that cut them, bit_start and check_start: bit i lies in the
        ascending checks checks[bit_start[i] : bit_start[i + 1]], and check
        j holds the ascending bits check_bits[check_start[j] :
        check_start[j + 1]].  The decoder reads four of them in place."""
        bits, checks, col_weight, row_weight, check_bits = _incidence(self.keys, self.n, self.check_count)
        bit_start, check_start = (np.concatenate(([0], np.cumsum(w))) for w in (col_weight, row_weight))
        return bits, checks, col_weight, row_weight, check_bits, bit_start, check_start


def parity_check_from_graph(g: BipartiteGraph) -> LinearCode:
    """The code of the factor graph, bits = X and checks = Y, gated by the
    dense limit on H's cells: the elimination holds rows x cols bits.  The
    code's keys are the graph's keys themselves, neither copied nor sorted."""
    check_dense(g.n2, g.n1, "parity-check matrix")
    return LinearCode(g.n1, g.n2, g.keys)


def _gf2_echelon(keys: np.ndarray, rows: int, cols: int) -> tuple[int, ...]:
    """Forward GF(2) elimination of the rows x cols matrix with ones at the
    code keys c * rows + r: the rows are packed from the keys transposed in
    their own order (_pack_keys takes any order), and each, read as a
    Python int whose leading bit is its leftmost column, is inserted into a
    table indexed by leading bit, XOR-ing with the stored row until its
    leading bit is new.  Entry b of the result is the row whose leading bit
    is b, or 0, so the rank is the number of nonzero entries."""
    col, row = np.divmod(keys, rows)
    packed = _pack_keys(row * cols + col, rows, cols)
    table: list[int] = [0] * (64 * packed.shape[1])
    for x in map(int.from_bytes, packed, itertools.repeat("big")):
        while x:
            lead = x.bit_length() - 1
            if not table[lead]:
                table[lead] = x
                break
            x ^= table[lead]
    return tuple(table)


def _gf2_back_substitute(echelon: tuple[int, ...], cols: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows of the reduced row-echelon form of a matrix with
    cols columns from its _gf2_echelon table, with the pivot column list.

    Back-substitution runs from the rightmost pivot to the leftmost and
    clears each row's bits at the later pivots, one XOR per set bit.  The
    RREF over a field is unique, so M is the matrix any elimination would
    give, without the zero rows below the rank.
    """
    table = list(echelon)
    leads = [b for b, x in enumerate(table) if x]  # rightmost pivot first
    done = 0
    for lead in leads:
        x = table[lead]
        later = x & done
        while later:
            b = later.bit_length() - 1
            x ^= table[b]
            later ^= 1 << b
        table[lead] = x
        done |= 1 << lead
    width = len(table) // 8
    top = len(table) - 1
    leads.reverse()
    data = b"".join(table[b].to_bytes(width, "big") for b in leads)
    packed_rref = np.frombuffer(data, dtype=np.uint8).reshape(len(leads), width)
    return np.unpackbits(packed_rref, axis=1, count=cols), [top - b for b in leads]


def _nullspace(M: np.ndarray, pivot_cols: list[int]) -> np.ndarray:
    """Null-space basis from the nonzero RREF rows: one vector per free
    column f, with a 1 at f and the RREF's column f on the pivot columns."""
    free = np.ones(M.shape[1], dtype=bool)
    free[pivot_cols] = False
    free_cols = np.flatnonzero(free)
    basis = np.zeros((free_cols.size, M.shape[1]), dtype=np.uint8)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivot_cols] = M[:, free].T
    return basis


def _span(rows: np.ndarray) -> np.ndarray:
    """All 2^len(rows) XOR combinations of rows, built by doubling:
    combination i holds row b exactly when bit b of i is set."""
    table = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows:
        table = np.concatenate((table, table ^ row))
    return table


def _small_distance(code: LinearCode) -> int | None:
    """The minimum distance of the code when it is at most 4, else None.

    Each column of H is packed from the keys as they are, bit-major, and
    read as a Python int, little-endian so the word padding adds no high
    bits (bit order does not matter here), and equal columns give equal
    ints.  A zero column is a codeword of weight 1 and a repeated column one
    of weight 2.  With neither present, a pair XOR equal to some column is
    a weight-3 word (the three columns differ), and two pairs with equal
    XORs are disjoint, a weight-4 word.  None therefore certifies a
    distance of at least 5.
    """
    packed = _pack_keys(code.keys, code.n, code.check_count)
    columns = list(map(int.from_bytes, packed, itertools.repeat("little")))
    if 0 in columns:
        return 1
    distinct = set(columns)
    if len(distinct) < len(columns):
        return 2
    sums = list(itertools.starmap(operator.xor, itertools.combinations(columns, 2)))
    if not distinct.isdisjoint(sums):
        return 3
    if len(set(sums)) < len(sums):
        return 4
    return None


def min_distance(code: LinearCode) -> int | None:
    """Minimum Hamming weight over nonzero codewords, exact.

    Returns None for the zero-dimensional code (distance undefined) and
    refuses when 2^k exceeds 2^20.  A distance of at most 4 is read off
    collisions among H's columns (_small_distance), without the basis; that
    search holds all n(n-1)/2 column pairs, so it runs only while they
    number at most 2^12, the rows of the enumeration's table.  Otherwise the
    codewords are enumerated: the basis rows are packed into uint64 words;
    a table holds all 2^k1 combinations of the first k1 <= 12 basis
    vectors, and a Gray code walks the 2^(k - k1) combinations of the rest,
    XOR-ing each into the whole table and taking the least bit count, until
    that count reaches the certified lower bound (5 after the collision
    search, else 1).  The zero word (the empty combination) is skipped, so
    the weight is exact.
    """
    k = code.dimension
    if k == 0:
        return None
    if k > MAX_ENUM_DIMENSION:
        raise ValueError(
            f"minimum-distance enumeration infeasible: 2^{k} codewords "
            f"(limit 2^{MAX_ENUM_DIMENSION})"
        )
    floor = 1
    if code.n * (code.n - 1) // 2 <= 1 << TABLE_DIMENSION:
        small = _small_distance(code)
        if small is not None:
            return small
        floor = 5
    basis = _pack_keys(np.flatnonzero(code.basis), *code.basis.shape)
    table, high = _span(basis[:TABLE_DIMENSION]), basis[TABLE_DIMENSION:]
    best = int(np.bitwise_count(table[1:]).sum(axis=1).min())
    acc = np.zeros_like(table[0])
    for i in range(1, 1 << len(high)):
        if best == floor:
            break
        acc ^= high[(i & -i).bit_length() - 1]
        best = min(best, int(np.bitwise_count(table ^ acc).sum(axis=1).min()))
    return best


def distance_bounds(n1: int, d1: int, gamma: float, epsilon: float) -> tuple[float, float]:
    """Distance lower bounds: general 2*gamma*(1-epsilon)*n1 and the
    specialized n1*(n1+2)/(2*d1^2).

    With gamma = 1/d1, epsilon = (n1-2)/(2*n1), and d1 = n1/2 the two
    coincide (the specialized bound is the general one at those parameters).
    """
    if n1 < 1 or d1 < 1 or gamma <= 0:
        raise ValueError(f"parameters must be positive, got n1={n1}, d1={d1}, gamma={gamma}")
    if epsilon >= 1:
        raise ValueError(f"epsilon must be < 1, got {epsilon}")
    lemma = 2 * gamma * (1 - epsilon) * n1
    cor8 = n1 * (n1 + 2) / (2 * d1 * d1)
    return lemma, cor8


def bit_flip_decode(
    code: LinearCode, received, max_iters: int
) -> tuple[np.ndarray, str]:
    """Sequential bit-flip decoding.

    Each iteration flips the single bit with the largest margin of
    unsatisfied over satisfied incident checks (ties to the lowest index);
    decoding stops when the syndrome vanishes, when no bit has a positive
    margin, or after max_iters flips.  Status "decoded" guarantees
    H @ word = 0 over GF(2).  received holds integers (or booleans), read
    mod 2; any other dtype, or a max_iters that is not an int >= 0, raises
    ValueError.

    The syndrome, the unsatisfied-check count and the margins are computed
    once with numpy from the code's incidence lists of H, then kept as
    Python data: the syndrome as a bytearray, the margins as a list of ints.
    The flip loop reads the lists in place through memoryviews, which index
    and slice to Python ints without numpy's per-call cost.
    Each positive margin value v keeps a min-heap of the bits whose margin
    is v; an entry whose bit has since moved to another margin is dropped
    when it reaches the top.  The next flip is therefore the smallest bit in
    the highest non-empty heap, the first maximum that np.argmax would pick.
    A flip toggles only its own checks and moves the margins of their bits
    by 2 each, pushing each bit whose margin becomes positive.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, (int, np.integer)) or max_iters < 0:
        raise ValueError(f"max_iters must be an int >= 0, got {max_iters!r}")
    word = np.asarray(received)
    if word.dtype.kind not in "biu":
        raise ValueError(f"received word must hold integers, got dtype {word.dtype}")
    if word.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}, got shape {word.shape}")
    word = (word & 1).astype(np.uint8)  # mod 2 before narrowing: 256 reads as 0, -1 as 1
    rows, n = code.check_count, code.n
    bits, checks, col_weight, _, check_bits, bit_start, check_start = code._incidence
    odd = (np.bincount(checks[word.view(bool)[bits]], minlength=rows) & 1).astype(bool)
    unsatisfied = int(np.count_nonzero(odd))
    if not unsatisfied:
        return word, "decoded"
    margins = 2 * np.bincount(bits[odd[checks]], minlength=n) - col_weight
    check_bits, check_start, bit_checks, bit_start = map(memoryview, (check_bits, check_start, checks, bit_start))
    top = int(col_weight.max())  # no margin exceeds its bit's weight
    syndrome, margin = bytearray(odd), margins.tolist()
    heaps: list[list[int]] = [[] for _ in range(top + 1)]
    for x in np.flatnonzero(margins > 0).tolist():
        heaps[margin[x]].append(x)  # ascending, so each list is a heap
    out = bytearray(word)
    flips = 0
    while unsatisfied and flips < max_iters:
        while top > 0:
            heap = heaps[top]
            while heap and margin[heap[0]] != top:
                heapq.heappop(heap)
            if heap:
                break
            top -= 1
        else:
            break  # no positive margin
        best = heapq.heappop(heap)  # its margin turns to -top
        out[best] ^= 1
        flips += 1
        for j in bit_checks[bit_start[best] : bit_start[best + 1]]:
            if syndrome[j]:
                syndrome[j] = 0
                unsatisfied -= 1
                step = -2
            else:
                syndrome[j] = 1
                unsatisfied += 1
                step = 2
            for x in check_bits[check_start[j] : check_start[j + 1]]:
                m = margin[x] + step
                margin[x] = m
                if m > 0:
                    heapq.heappush(heaps[m], x)
                    if m > top:
                        top = m
    return np.frombuffer(out, dtype=np.uint8), "failed" if unsatisfied else "decoded"


class DistanceReport(NamedTuple):
    """Exact distance next to the expander bounds.

    true_distance is min_distance of the code (column collisions for d <= 4,
    else enumeration): None at dimension 0 and past dimension 20.

    bound_holds is None (not applicable) unless the expansion premises were
    verified and the true distance was computable.
    """

    true_distance: int | None
    lemma_bound: float
    cor8_bound: float
    premises_verified: bool
    bound_holds: bool | None


class N2RuleDiagnostic(NamedTuple):
    """Feasibility diagnostic for the divisor-based n2 selection rule.

    The rule asks for the largest divisor of n1^2/2 strictly between
    (n1+2)/4 and n1/2, yet the construction also needs left degree
    d1 = n1/2 <= n2 in a simple graph, which no such divisor satisfies.
    The pipeline therefore uses n2 = n1/2 and keeps this diagnostic.
    """

    n1: int
    candidates: tuple[int, ...]
    chosen: int | None
    d1: int
    feasible: bool
    note: str


def n2_selection_rule(n1: int) -> N2RuleDiagnostic:
    if n1 < 2 or n1 % 2:
        raise ValueError(f"n1 must be even and >= 2, got {n1}")
    target = n1 * n1 // 2
    low, high = (n1 + 2) / 4, n1 / 2
    # the integers strictly between low and high
    candidates = tuple(x for x in range((n1 + 2) // 4 + 1, n1 // 2) if target % x == 0)
    chosen = max(candidates) if candidates else None
    d1 = n1 // 2
    feasible = chosen is not None and d1 <= chosen
    if chosen is None:
        note = f"no divisor of {target} lies strictly between {low} and {high}"
    elif not feasible:
        note = f"chosen n2 = {chosen} cannot host left degree d1 = {d1} in a simple graph"
    else:
        note = ""
    return N2RuleDiagnostic(n1, candidates, chosen, d1, feasible, note)


class ExpanderCodePipeline(NamedTuple):
    """Everything the expander-code construction produces for one n1."""

    code: LinearCode
    report: DistanceReport
    params: LosslessParams
    n2_rule: N2RuleDiagnostic


def construct_expander_code(n1: int) -> ExpanderCodePipeline:
    """Build the code on the split of K_{n1, n1/2} and measure everything.

    The base graph is the complete bipartite K_{n1, n1/2} (left degree
    d1 = n1/2), split with the canonical round-robin rule; bits are the n1
    left vertices and the 2 * n1/2 = n1 split right vertices are the checks.
    Expansion is measured exhaustively at gamma = 1/d1 (subsets of size at
    most 2) and both distance bounds are evaluated against the exact
    minimum distance when the dimension permits.  A size the exhaustive
    expansion search refuses is refused before the base graph is built.
    """
    if n1 < 8 or n1 % 2:
        raise ValueError(f"n1 must be even and >= 8, got {n1}")
    if n1 > MAX_SIDE:
        raise ValueError(f"n1 = {n1} exceeds the side limit {MAX_SIDE}")
    d1 = n1 // 2
    gamma = 1.0 / d1
    check_lossless_feasible(n1, gamma)  # the split has n1 left vertices
    base = complete_bipartite(n1, d1)
    split = vertex_split(base, "round-robin", 0)
    code = parity_check_from_graph(split)
    params = lossless_parameters(split, gamma)
    lemma, cor8 = distance_bounds(n1, d1, gamma, params.epsilon)
    premises = params.exhaustive and params.epsilon < 0.5
    true_distance = min_distance(code) if code.dimension <= MAX_ENUM_DIMENSION else None
    if premises and true_distance is not None:
        bound_holds: bool | None = true_distance >= lemma - REPORT_TOL
    else:
        bound_holds = None
    report = DistanceReport(true_distance, lemma, cor8, premises, bound_holds)
    return ExpanderCodePipeline(code, report, params, n2_selection_rule(n1))


def write_pchk(code: LinearCode) -> str:
    """Dense text serialization: `pchk <rows> <cols>` then 0/1 rows.

    One byte buffer is filled straight from the keys, without H: the
    header, then ASCII '0' rows of n bytes, each ended by a newline, where
    key i * check_count + j sets byte j * (n + 1) + i of the rows to '1'
    (the flat index of cell (i, j) of the transposed view of the rows
    without their newlines).  The buffer is decoded to the returned str
    with no intermediate bytes copy.
    """
    rows, cols = code.check_count, code.n
    head = f"pchk {rows} {cols}\n".encode("ascii")
    buf = np.full(len(head) + rows * (cols + 1), ord("0"), dtype=np.uint8)
    buf[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    lines = buf[len(head) :].reshape(rows, cols + 1)
    lines[:, cols] = ord("\n")
    lines[:, :cols].T.flat[code.keys] = ord("1")  # in place, with no index array
    return str(buf, "ascii")


def write_alist(code: LinearCode) -> str:
    """Sparse alist serialization (columns first, 1-based indices, unpadded)."""
    rows, cols = code.check_count, code.n
    _, checks, col_weight, row_weight, check_bits, bit_start, check_start = code._incidence
    out = [
        f"{cols} {rows}",
        f"{col_weight.max(initial=0)} {row_weight.max(initial=0)}",
        " ".join(map(str, col_weight.tolist())),
        " ".join(map(str, row_weight.tolist())),
        *_index_lines(checks, bit_start),
        *_index_lines(check_bits, check_start),
    ]
    return "\n".join(out) + "\n"


def _index_lines(entries: np.ndarray, start: np.ndarray) -> list[str]:
    """One line per list entries[start[i] : start[i + 1]], 1-based and
    space-separated."""
    words = [str(x) for x in (entries + 1).tolist()]
    bounds = start.tolist()
    return [" ".join(words[a:b]) for a, b in zip(bounds, bounds[1:])]


def codewords(code: LinearCode) -> list[np.ndarray]:
    """All 2^k codewords by spanning the null-space basis (k <= 20 only)."""
    k = code.dimension
    if k > MAX_ENUM_DIMENSION:
        raise ValueError(f"codeword enumeration infeasible: 2^{k}")
    return list(_span(code.basis))
