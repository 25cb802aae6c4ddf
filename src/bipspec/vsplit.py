"""Vertex-split transformation and second-eigenvalue connectivity criteria.

Splitting duplicates every right vertex y into (y_a, y_b) and partitions its
incident edges near-evenly between the copies; y_a takes the larger half when
the degree is odd.  The y_a copies occupy right indices 0..n2-1 (aligned with
the original order) and the y_b copies occupy n2..2*n2-1.

The transformation's stated preconditions (minimum degree >= 4, n1 >= 4,
n2 >= 3, n1 > n2, connectivity) are reported by the `split` command, from
`split_warnings`, rather than raised: the worked examples this follows split
K_{5,5} and K_{8,4}, which violate them, so rejecting such inputs would be
counterproductive.  `vertex_split` itself does not check them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bigraph import BipartiteGraph, _incidence, edge_connectivity
from .spectra import REPORT_TOL, adjacency_matrix, symmetric_eigenvalues

SPLIT_RULES = ("round-robin", "contiguous", "seeded-random")


def vertex_split(g: BipartiteGraph, rule: str = "round-robin", seed: int = 0) -> BipartiteGraph:
    """Split every right vertex of g in two, preserving all edges: the
    copies of right vertex j are the split graph's right vertices j (y_a)
    and n2 + j (y_b), whose neighbourhoods are its halves.

    Rules for assigning a y's sorted neighbor list to its copies:

    - round-robin (canonical): y_a takes the ceil(d/2) neighbors at cyclic
      offsets y-index .. y-index + ceil(d/2) - 1.  Rotating the window with
      the vertex index keeps complete bipartite splits connected, which a
      first-half/second-half assignment does not.
    - contiguous: y_a takes the first ceil(d/2) neighbors.
    - seeded-random: y_a takes a seeded random sample of ceil(d/2) neighbors.

    Identical (g, rule, seed) always produce identical results.
    """
    if rule not in SPLIT_RULES:
        raise ValueError(f"unknown split rule {rule!r}; expected one of {SPLIT_RULES}")
    if g.m == 0:
        raise ValueError("cannot vertex-split an empty graph")

    # every edge listed right vertex by right vertex, each one's neighbours
    # ascending: edge t is the place[t]-th of right[t]'s sorted neighbours
    _, _, _, degree, left = _incidence(g.keys, g.n1, g.n2)
    right = np.repeat(np.arange(g.n2), degree)
    start = np.cumsum(degree) - degree
    place = np.arange(g.m) - start[right]
    d = degree[right]
    if rule == "round-robin":
        to_a = (place - right) % d < (d + 1) // 2
    elif rule == "contiguous":
        to_a = place < (d + 1) // 2
    else:
        # the sample depends only on the degree, so positions stand in for
        # the neighbours themselves
        rng = random.Random(seed)
        to_a = np.zeros(g.m, dtype=bool)
        for s, dj in zip(start.tolist(), degree.tolist()):
            if dj:
                to_a[[s + p for p in rng.sample(range(dj), (dj + 1) // 2)]] = True

    n2 = 2 * g.n2
    return BipartiteGraph(g.n1, n2, np.sort(left * n2 + np.where(to_a, right, g.n2 + right)))


def split_warnings(g: BipartiteGraph, split: BipartiteGraph) -> list[str]:
    """The definition's preconditions g misses, then the split's degenerate
    outcomes: isolated copies, and halves Y_a and Y_b with no common
    left neighbour."""
    warnings: list[str] = []
    profile = g.degree_profile()
    if profile.delta < 4:
        warnings.append(f"definition requires minimum degree >= 4, got {profile.delta}")
    if g.n1 < 4:
        warnings.append(f"definition requires n1 >= 4, got {g.n1}")
    if g.n2 < 3:
        warnings.append(f"definition requires n2 >= 3, got {g.n2}")
    if not g.n1 > g.n2:
        warnings.append(f"definition requires n1 > n2, got ({g.n1}, {g.n2})")
    if not g.is_connected():
        warnings.append("definition requires a connected graph")
    isolated = [j for j, d in enumerate(profile.right_degrees) if d == 0]
    if isolated:
        warnings.append(
            f"right vertices of degree 0: {len(isolated)} (first {isolated[0]}); "
            "their copies are isolated"
        )
    left, right = np.divmod(split.keys, split.n2)
    reached = np.zeros((2, g.n1), dtype=bool)
    reached[right // g.n2, left] = True  # row 0 from the a copies j < n2, row 1 from the b copies
    if not np.any(reached[0] & reached[1]):
        warnings.append("N(Y_a) and N(Y_b) share no left vertex")
    return warnings


@dataclass(frozen=True)
class ConnectivityCriterionReport:
    """Second-eigenvalue connectivity criterion, measured both ways.

    criterion_met records whether lambda2' clears the theorem's threshold;
    conclusion_holds records whether the measured edge connectivity reaches
    k.  The report never asserts the implication between them: an instance
    with criterion_met and not conclusion_holds is a counterexample worth
    surfacing, not an error.
    """

    theorem: str
    k: int
    threshold: float
    lambda2_prime: float
    criterion_met: bool
    measured_kappa: int
    conclusion_holds: bool
    preconditions_met: bool
    notes: str = ""


def measure_split(split: BipartiteGraph) -> tuple[float, int]:
    """(lambda2', kappa') of the split graph: its second adjacency eigenvalue
    and its edge connectivity, the two measurements every criterion reads."""
    spectrum = symmetric_eigenvalues(adjacency_matrix(split))
    return spectrum.eigenvalues[1], edge_connectivity(split)


def _criterion_report(
    theorem: str,
    k: int,
    threshold: float,
    pre: bool,
    notes: str,
    measured: tuple[float, int],
) -> ConnectivityCriterionReport:
    lambda2p, kappa = measured
    return ConnectivityCriterionReport(
        theorem=theorem,
        k=k,
        threshold=threshold,
        lambda2_prime=lambda2p,
        criterion_met=lambda2p >= threshold - REPORT_TOL,
        measured_kappa=kappa,
        conclusion_holds=kappa >= k,
        preconditions_met=pre,
        notes=notes,
    )


def theorem_r1_check(
    g: BipartiteGraph, split: BipartiteGraph, k: int, measured: tuple[float, int]
) -> ConnectivityCriterionReport:
    """Regular-graph criterion: threshold (2k-1)/sqrt(2) on lambda2'.

    split is g's split and measured is measure_split(split).
    """
    notes = []
    if not g.degree_profile().is_regular:
        notes.append("original graph is not d-regular")
    if k < 2:
        notes.append(f"requires k >= 2, got {k}")
    delta_prime = split.degree_profile().delta
    if delta_prime < k:
        notes.append(f"split minimum degree {delta_prime} < k = {k}")
    threshold = (2 * k - 1) / math.sqrt(2.0)
    return _criterion_report("r1", k, threshold, not notes, "; ".join(notes), measured)


def theorem_r2_check(g: BipartiteGraph, k: int, measured: tuple[float, int]) -> ConnectivityCriterionReport:
    """Biregular criterion: threshold n2*(2k-1)/sqrt(2*n1*n2) on lambda2'.

    measured is measure_split of g's split.
    """
    notes = []
    if not g.degree_profile().is_biregular:
        notes.append("original graph is not biregular")
    if k < 2:
        notes.append(f"requires k >= 2, got {k}")
    threshold = g.n2 * (2 * k - 1) / math.sqrt(2 * g.n1 * g.n2)
    return _criterion_report("r2", k, threshold, not notes, "; ".join(notes), measured)
