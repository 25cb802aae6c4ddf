"""Vertex expansion by exact subset search, and the expander checks built on it.

A request is measured exactly when its subset space, the sum of C(side, s)
for 1 <= s <= cap, is at most SUBSET_BUDGET = 9,740,685 subsets (side 24 at
cap 12, for instance).  A larger request degrades to seeded random sampling
with exhaustive = False in `vertex_expansion`; `lossless_parameters` refuses
it.

Neighborhoods are int bitmasks and |N(S)| is the bit count of the OR of the
members' masks.  One gate decides whether a request is exact.  Every exact
minimum-ratio measurement runs one depth-first branch-and-bound search: it
visits subsets in lexicographic order, ORs each prefix's mask once, compares
candidates in exact integers by the key (|N(S)|/|S|, |S|, S), so the witness
is the first strict minimum in (size, lexicographic) order, and cuts a branch
whose prefix P has |N(P)|/cap no smaller than the best ratio.  The sampled
path ORs the masks of each drawn subset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bigraph import BipartiteGraph

SUBSET_BUDGET = 9_740_685
SIDES = ("left", "right")


@dataclass(frozen=True)
class ExpansionReport:
    """Minimum neighborhood ratio |N(S)|/|S| over examined subsets S."""

    side: str
    subset_cap: int
    alpha: float
    witness: tuple[int, ...]
    exhaustive: bool

    def to_json_dict(self) -> dict:
        return {
            "side": self.side,
            "cap": self.subset_cap,
            "alpha": self.alpha,
            "witness": list(self.witness),
            "exhaustive": self.exhaustive,
        }


def _neighbor_masks(g: BipartiteGraph, side: str) -> list[int]:
    neighbors = g.left_neighbors() if side == "left" else g.right_neighbors()
    return [sum(1 << w for w in nb) for nb in neighbors]


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


def _search(masks: list[int], cap: int) -> tuple[float, tuple[int, ...]]:
    """min |N(S)|/|S| over 1 <= |S| <= cap and its witness, by branch and bound.

    A depth-first search visits the subsets in lexicographic order, OR-ing
    each prefix's mask once.  Candidates compare in exact integers by the key
    (|N(S)|/|S|, |S|, S), so the witness is the first strict minimum in
    (size, lex) order.  The search descends from a prefix P only while
    |N(P)|/cap < best ratio: an extension T has |N(T)|/|T| >= |N(P)|/cap,
    equal only at |T| = cap, where T loses the tie to the best found so far,
    which is lex-smaller and no larger.  Callers pass the feasibility gate
    first.
    """
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
    masks = _neighbor_masks(g, side)
    try:
        _gate(side_size, cap)
    except ValueError:  # too many subsets: sample them
        pass
    else:
        return ExpansionReport(side, cap, *_search(masks, cap), True)
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


@dataclass(frozen=True)
class LosslessParams:
    """Measured (n, m, D, gamma, D(1-epsilon)) expander parameters."""

    n: int
    m_right: int
    D: int
    gamma: float
    alpha: float
    epsilon: float
    exhaustive: bool

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m_right": self.m_right,
            "D": self.D,
            "gamma": self.gamma,
            "alpha": self.alpha,
            "epsilon": self.epsilon,
            "exhaustive": self.exhaustive,
        }


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
