"""Vertex expansion by exact subset search, and the expander checks built on it.

A request is measured exactly when its subset space, the sum of C(side, s)
for 1 <= s <= cap, is at most SUBSET_BUDGET = 9,740,685 subsets (side 24 at
cap 12, for instance).  A larger request degrades to seeded random sampling
with exhaustive = False in `vertex_expansion`; `lossless_parameters` refuses
it.

Neighborhoods are rows of uint64 words packed from the edge keys, one bit
per vertex of the other side, and |N(S)| is the bit count of the OR of the
members' words; no dense matrix is built.  One gate decides whether a
request is exact.  Every exact minimum-ratio measurement runs one
branch-and-bound search over the words.  It compares candidates in exact
integers by the key (|N(S)|/|S|, |S|, S), so the witness is the first
strict minimum in (size, lexicographic) order, and it cuts a branch whose
prefix P has |N(P)|/cap no smaller than the best ratio.  The best starts
from the first dive of a depth-first search; then blocks of at most
_BLOCK_WORDS child words are expanded at once, each by one numpy OR and bit
count, and each block's survivors are searched before the next block, so
the sets of each size are met in lexicographic order.  The sampled path
reads each row as an int mask and ORs the masks of each drawn subset.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

from .bigraph import BipartiteGraph, _pack_keys, check_dense

SUBSET_BUDGET = 9_740_685
SIDES = ("left", "right")
# Child-mask words one block of the exact search ORs at once.  The search
# holds one block per level, so this bounds its memory.  On the budget's
# worst case, a perfect matching at side 24 and cap 12, 2**13 words peak
# 4.6 MB above the search's input and 2**14 words 9.0 MB, in the same time.
_BLOCK_WORDS = 1 << 13


class ExpansionReport(NamedTuple):
    """Minimum neighborhood ratio |N(S)|/|S| over examined subsets S; the
    CLI's `expansion` finding writes subset_cap as `cap`."""

    side: str
    subset_cap: int
    alpha: float
    witness: tuple[int, ...]
    exhaustive: bool


def _neighbor_rows(g: BipartiteGraph, side: str) -> np.ndarray:
    """The neighbourhood of each vertex of side as a row of uint64 words
    packed from the edge keys (transposed, in any order, for the right
    side), within the dense limit on the graph's n1 x n2 cells."""
    check_dense(g.n1, g.n2, "biadjacency matrix")
    if side == "left":
        return _pack_keys(g.keys, g.n1, g.n2)
    left, right = np.divmod(g.keys, g.n2)
    return _pack_keys(right * g.n1 + left, g.n2, g.n1)


def _gate(side_size: int, cap: int) -> None:
    """The one feasibility gate of exact measurements: refuse a request
    whose subsets of sizes 1..cap number more than SUBSET_BUDGET.

    The running sum stops at the first term that passes the budget, so a
    refusal costs a few multiplications however large the request.
    """
    total, term = 0, 1
    for s in range(1, cap + 1):
        term = term * (side_size - s + 1) // s  # C(side, s), exactly
        total += term
        if total > SUBSET_BUDGET:
            raise ValueError(
                f"exhaustive enumeration infeasible: side size {side_size}, cap {cap} "
                f"exceeds the budget of {SUBSET_BUDGET} subsets"
            )


def _popcounts(words: np.ndarray) -> np.ndarray:
    """The bit count of each row of words."""
    counts = np.bitwise_count(words)
    return counts if counts.ndim == 1 else counts.sum(axis=1, dtype=np.int64)


def _path(trail: list[tuple[np.ndarray, np.ndarray, np.ndarray]], index: int) -> tuple[int, ...]:
    """The prefix at index of the deepest level of trail.  A level holds its
    prefixes' last vertices, the running child counts of the prefixes one
    level up, and each prefix's place among those children."""
    members = []
    for last, ends, place in reversed(trail):
        members.append(int(last[index]))
        index = int(ends.searchsorted(place[index], "right"))
    return tuple(reversed(members))


def _search(rows: np.ndarray, cap: int) -> tuple[float, tuple[int, ...]]:
    """min |N(S)|/|S| over 1 <= |S| <= cap and its witness, by branch and bound.

    Candidates compare in exact integers by the key (|N(S)|/|S|, |S|, S),
    so the witness is the first strict minimum in (size, lex) order.  The
    best starts from a depth-first search's first dive: the prefixes
    {0..s-1} and the leaves {0..cap-2, w}, each the lex-smallest set of its
    size not compared yet.  The search then expands the surviving prefixes
    of each level a block of at most _BLOCK_WORDS child words at a time
    (at least one child), ORing the children's uint64 words and counting
    their bits at once, and searches each block's surviving children before
    the next block.  So the sets of each size are met in lex order and a
    set that only ties the best loses.  A prefix P survives only while
    |N(P)|/cap < best ratio: an extension T has |N(T)|/|T| >= |N(P)|/cap,
    equal only at |T| = cap, where T loses the tie to the best, which is
    lex-smaller and no larger.  The witness is rebuilt from each level's
    parent positions.  rows holds each vertex's neighbourhood as
    _neighbor_rows packs it; a single word per row is searched as a 1-D
    array.  Callers pass the feasibility gate first.
    """
    side_size, width = rows.shape
    words = rows[:, 0] if width == 1 else rows
    best_count, best_size, best = 1, 0, ()  # 1/0 stands for an infinite ratio

    def offer(counts: np.ndarray, size: int, witness) -> None:
        """Compare the first minimum of counts, sets of one size in lex
        order, with the best; witness(i) is the set at index i."""
        nonlocal best_count, best_size, best
        i = int(counts.argmin())
        count = int(counts[i])
        lhs, rhs = count * best_size, best_count * size
        if lhs < rhs or lhs == rhs and size < best_size:
            best_count, best_size, best = count, size, witness(i)

    prefixes = np.bitwise_or.accumulate(words[: cap - 1])
    prefix_counts = _popcounts(prefixes)
    for size in range(1, cap):
        offer(prefix_counts[size - 1 : size], size, lambda i, size=size: tuple(range(size)))
    leaves = words[cap - 1 :] | prefixes[-1] if cap > 1 else words
    offer(_popcounts(leaves), cap, lambda i: (*range(cap - 1), cap - 1 + i))

    def bound() -> int:
        """The largest |N(P)| of a prefix P that may still beat the best:
        |N(P)| * best_size < best_count * cap."""
        return (best_count * cap - 1) // best_size

    step = max(1, _BLOCK_WORDS // width)  # children per block

    def descend(trail: list, last: np.ndarray, union: np.ndarray) -> None:
        """Expand the prefixes of size len(trail) ending at last, with
        neighbourhood words union, a block of children at a time, and
        recurse on each block's survivors before the next block."""
        size = len(trail) + 1
        fan = side_size - 1 - last
        ends = fan.cumsum()
        offset = ends - fan - last - 1  # a child's place minus its vertex
        total = int(ends[-1])
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            # the prefixes first..stop-1 own children lo..hi-1, share[k] each
            first, stop = ends.searchsorted((lo, hi - 1), "right") + (0, 1)
            share = fan[first:stop].copy()
            share[0] -= lo - (ends[first] - fan[first])
            share[-1] -= ends[stop - 1] - hi
            child = np.arange(lo, hi) - offset[first:stop].repeat(share)
            reach = union[first:stop].repeat(share, axis=0) | words[child]
            counts = _popcounts(reach)
            offer(counts, size, lambda i: (*_path(trail, int(ends.searchsorted(lo + i, "right"))), int(child[i])))
            if size < cap:
                live = ((counts <= bound()) & (child < side_size - 1)).nonzero()[0]
                if live.size:
                    survivors = child[live]
                    descend([*trail, (survivors, ends, lo + live)], survivors, reach[live])

    if cap > 1:  # at cap 1 the seed's leaves are every subset
        descend([], np.array([-1]), np.zeros_like(words[:1]))
    return best_count / best_size, best


def _gamma_cap(gamma: float, side_size: int) -> int:
    """The subset cap floor(gamma * side size) of a finite gamma, at most the
    side size.

    gamma is clamped to [-1, 1] before the product, which cannot overflow
    then; a cap below 1 is refused by the caller whatever its value.  The
    product is rounded to 9 decimals before the floor, so a gamma of 1/d at
    side 2d gives cap 2 although (1/d) * 2d may fall just below 2.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    return math.floor(round(min(max(gamma, -1.0), 1.0) * side_size, 9))


def vertex_expansion(
    g: BipartiteGraph,
    side: str,
    cap: int | None = None,
    *,
    gamma: float | None = None,
    seed: int = 0,
    samples: int = 20000,
) -> ExpansionReport:
    """Measure alpha = min over nonempty S with |S| <= cap of |N(S)|/|S|.

    The cap may be given directly or derived from a fraction gamma as
    floor(gamma * side size).  Exhaustive, by the branch-and-bound search,
    whenever the subsets of sizes 1..cap number at most SUBSET_BUDGET;
    otherwise `samples` seeded random subsets are drawn and the report says
    so.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    side_size = g.n1 if side == "left" else g.n2
    if cap is None:
        if gamma is None:
            raise ValueError("need a subset cap or a gamma fraction")
        cap = _gamma_cap(gamma, side_size)
    if cap < 1:
        raise ValueError(f"subset cap must be >= 1, got {cap}")
    cap = min(cap, side_size)
    rows = _neighbor_rows(g, side)
    try:
        _gate(side_size, cap)
    except ValueError:  # too many subsets: sample them
        pass
    else:
        return ExpansionReport(side, cap, *_search(rows, cap), True)
    masks = [int.from_bytes(row, "little") for row in rows]  # small ints; OR ignores bit order
    rng = random.Random(seed)
    alpha, witness = math.inf, ()
    for _ in range(samples):
        subset = tuple(sorted(rng.sample(range(side_size), rng.randint(1, cap))))
        reached = 0
        for v in subset:
            reached |= masks[v]
        ratio = reached.bit_count() / len(subset)
        if ratio < alpha:
            alpha, witness = ratio, subset
    return ExpansionReport(side, cap, alpha, witness, False)


class LosslessParams(NamedTuple):
    """Measured (n, m, D, gamma, D(1-epsilon)) expander parameters."""

    n: int
    m_right: int
    D: int
    gamma: float
    alpha: float
    epsilon: float
    exhaustive: bool


def check_lossless_feasible(n1: int, gamma: float) -> None:
    """Refuse what lossless_parameters refuses before it searches a graph
    with n1 left vertices at gamma: a gamma that is not finite, a cap
    floor(gamma * n1) below 1, or too many subsets to search exhaustively.
    It needs no graph, so a caller can run it before building one.
    """
    cap = _gamma_cap(gamma, n1)
    if cap < 1:
        raise ValueError(f"subset cap must be >= 1, got {cap}")
    _gate(n1, min(cap, n1))


def lossless_parameters(
    g: BipartiteGraph, gamma: float, report: ExpansionReport | None = None
) -> LosslessParams:
    """Best alpha over left subsets with |S| <= floor(gamma * n1), and epsilon.

    Requires a left-regular graph (otherwise the degree D is undefined) with
    D >= 1, and a cap of at least one vertex.  epsilon = 1 - alpha/D, so
    alpha = D(1-epsilon) by construction.  An exhaustive left-side `report`
    at the cap gamma gives is reused, so the subsets are searched once; any
    other report is ignored and the search runs.
    """
    profile = g.degree_profile()
    if not profile.is_left_regular:
        raise ValueError("graph is not left-regular; left degree D is undefined")
    D = profile.left_degrees[0]
    reusable = (
        report is not None
        and report.side == "left"
        and report.exhaustive
        and report.subset_cap == _gamma_cap(gamma, g.n1)
    )
    if not reusable:
        check_lossless_feasible(g.n1, gamma)  # so the search below is exhaustive
        report = vertex_expansion(g, "left", gamma=gamma)
    if D == 0:
        raise ValueError("left degree D is 0; epsilon = 1 - alpha/D is undefined")
    epsilon = 1.0 - report.alpha / D
    return LosslessParams(g.n1, g.n2, D, gamma, report.alpha, epsilon, report.exhaustive)
