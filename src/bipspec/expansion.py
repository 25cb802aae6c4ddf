"""Vertex expansion by exact subset search, and the expander checks built on it.

Exact measurement is guaranteed for side sizes up to 24 with subset caps
up to 12 (sum of C(24, s) for s <= 12 = 9,740,685 subsets worst case).  Larger
requests degrade to seeded random sampling with exhaustive = False in
`vertex_expansion`; `lossless_parameters` and `theorem_r4_report` refuse them.

Neighborhoods are int bitmasks and |N(S)| is the bit count of the OR of the
members' masks.  One gate decides whether a request is exact.  Every exact
minimum-ratio measurement (`vertex_expansion`, `lossless_parameters`,
`theorem_r4_report`) runs one depth-first branch-and-bound search: it visits
subsets in lexicographic order, ORs each prefix's mask once, compares
candidates in exact integers by the key (|N(S)|/|S|, |S|, S), so the witness
is the first strict minimum in (size, lexicographic) order, and cuts a branch
whose prefix P has |N(P)|/cap no smaller than the best ratio.  The sampled
path ORs the masks of each drawn subset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bigraph import BipartiteGraph, complete_bipartite
from .vsplit import vertex_split

EXHAUSTIVE_SIDE_LIMIT = 24
EXHAUSTIVE_CAP_LIMIT = 12
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


def _gate(side_size: int, low: int, high: int) -> None:
    """The one feasibility gate of exact measurements: a side above
    EXHAUSTIVE_SIDE_LIMIT or a size above EXHAUSTIVE_CAP_LIMIT is refused
    with the subset count."""
    if side_size > EXHAUSTIVE_SIDE_LIMIT or high > EXHAUSTIVE_CAP_LIMIT:
        count = sum(math.comb(side_size, s) for s in range(low, high + 1))
        raise ValueError(
            f"exhaustive enumeration infeasible: {count} subsets for side size {side_size}, "
            f"cap {high} (limits: side {EXHAUSTIVE_SIDE_LIMIT}, cap {EXHAUSTIVE_CAP_LIMIT})"
        )


def _search(masks: list[int], low: int, high: int) -> tuple[float, tuple[int, ...]]:
    """min |N(S)|/|S| over low <= |S| <= high and its witness, by branch and bound.

    A depth-first search visits the subsets in lexicographic order, OR-ing
    each prefix's mask once.  Candidates compare in exact integers by the key
    (|N(S)|/|S|, |S|, S), so the witness is the first strict minimum in
    (size, lex) order.  The search descends from a prefix P only while
    |N(P)|/high < best ratio: an extension T has |N(T)|/|T| >= |N(P)|/high,
    equal only at |T| = high, where T loses the tie to the best found so far,
    which is lex-smaller and no larger.  Callers pass the feasibility gate
    first.
    """
    side_size = len(masks)
    best_count, best_size, best = 1, 0, ()  # 1/0 stands for an infinite ratio
    path: list[int] = []

    def descend(reached: int, start: int) -> None:
        nonlocal best_count, best_size, best
        size = len(path) + 1
        # leave room for the low - size members still needed after v
        for v in range(start, side_size - max(low - size, 0)):
            union = reached | masks[v]
            count = union.bit_count()
            if size >= low:
                lhs, rhs = count * best_size, best_count * size
                if lhs < rhs or lhs == rhs and size < best_size:
                    best_count, best_size, best = count, size, (*path, v)
            if size < high and count * best_size < best_count * high:
                path.append(v)
                descend(union, v + 1)
                path.pop()

    descend(0, 0)
    return (best_count / best_size if best_size else math.inf), best


def _gamma_cap(gamma: float, side_size: int) -> int:
    """The subset cap floor(gamma * side size) of a finite gamma, at most the
    side size.

    gamma is clamped to [-1, 1] before the product, which cannot overflow
    then; a cap below 1 is refused by the caller whatever its value.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    return math.floor(min(max(gamma, -1.0), 1.0) * side_size)


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
    floor(gamma * side size).  Exhaustive whenever side size <= 24 and
    cap <= 12, by the branch-and-bound search; otherwise `samples` seeded
    random subsets are drawn and the report says so.
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
        _gate(side_size, 1, cap)
    except ValueError:  # too many subsets: sample them
        pass
    else:
        return ExpansionReport(side, cap, *_search(masks, 1, cap), True)
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
    _gate(n1, 1, min(cap, n1))


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


@dataclass(frozen=True)
class SplitExpanderReport:
    """Expansion of the split of K_{m,n} at |S| = n/2, against case formulas.

    The case-3 formula instantiates the ambiguous index i as m - n/2, the
    closest reading; the formula comparison is informational and measured
    alpha is authoritative either way.
    """

    m: int
    n: int
    rule: str
    seed: int
    case: int
    formula_alpha: float
    measured_alpha: float
    matches: bool
    witness: tuple[int, ...]
    exhaustive: bool

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "rule": self.rule,
            "seed": self.seed,
            "case": self.case,
            "formula_alpha": self.formula_alpha,
            "measured_alpha": self.measured_alpha,
            "matches": self.matches,
            "witness": list(self.witness),
            "exhaustive": self.exhaustive,
        }


def theorem_r4_report(m: int, n: int, rule: str = "round-robin", seed: int = 0) -> SplitExpanderReport:
    """Measure the split-of-K_{m,n} expansion at subset size n/2 exactly."""
    if n % 2:
        raise ValueError(f"n must be even, got {n}")
    if not n <= m <= 2 * n:
        raise ValueError(f"requires n <= m <= 2n, got (m, n) = ({m}, {n})")
    size = n // 2
    _gate(m, size, size)
    split = vertex_split(complete_bipartite(m, n), rule, seed)
    best_ratio, best_subset = _search(_neighbor_masks(split.split_graph, "left"), size, size)
    if m == n:
        case, formula = 1, 1 + 2 / n
    elif m == 2 * n:
        case, formula = 2, 1.0
    else:
        case, formula = 3, 1 + ((m - n // 2) - n / 2) / n
    return SplitExpanderReport(
        m=m,
        n=n,
        rule=rule,
        seed=seed,
        case=case,
        formula_alpha=formula,
        measured_alpha=best_ratio,
        matches=abs(best_ratio - formula) <= 1e-9,
        witness=best_subset,
        exhaustive=True,
    )

