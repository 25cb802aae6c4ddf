"""Vertex-split transformation and second-eigenvalue connectivity criteria.

Splitting duplicates every right vertex y into (y_a, y_b) and partitions its
incident edges near-evenly between the copies; y_a takes the larger half when
the degree is odd.  The y_a copies occupy right indices 0..n2-1 (aligned with
the original order) and the y_b copies occupy n2..2*n2-1.

The transformation's stated preconditions (minimum degree >= 4, n1 >= 4,
n2 >= 3, n1 > n2, connectivity) are reported as warnings rather than errors:
the worked examples this follows split K_{5,5} and K_{8,4}, which violate
them, so rejecting such inputs would be counterproductive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .bigraph import BipartiteGraph, build, edge_connectivity
from .spectra import REPORT_TOL, adjacency_matrix, symmetric_eigenvalues

SPLIT_RULES = ("round-robin", "contiguous", "seeded-random")


@dataclass(frozen=True)
class SplitMapping:
    """Destination copies and assigned neighbor sets for one original y."""

    a_index: int
    b_index: int
    a_neighbors: tuple[int, ...]
    b_neighbors: tuple[int, ...]


@dataclass(frozen=True)
class VertexSplitResult:
    original: BipartiteGraph
    split_graph: BipartiteGraph
    mapping: tuple[SplitMapping, ...]
    rule: str
    warnings: tuple[str, ...]


def vertex_split(g: BipartiteGraph, rule: str = "round-robin", seed: int = 0) -> VertexSplitResult:
    """Split every right vertex of g in two, preserving all edges.

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

    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    mapping: list[SplitMapping] = []
    isolated: list[int] = []
    for j, nb in enumerate(g.right_neighbors()):
        d = len(nb)
        da = (d + 1) // 2
        if d == 0:
            isolated.append(j)
            a_set: tuple[int, ...] = ()
        elif rule == "round-robin":
            positions = {(j + t) % d for t in range(da)}
            a_set = tuple(nb[p] for p in sorted(positions))
        elif rule == "contiguous":
            a_set = tuple(nb[:da])
        else:
            a_set = tuple(sorted(rng.sample(nb, da)))
        chosen = set(a_set)
        b_set = tuple(x for x in nb if x not in chosen)
        a_idx, b_idx = j, g.n2 + j
        edges.extend((x, a_idx) for x in a_set)
        edges.extend((x, b_idx) for x in b_set)
        mapping.append(SplitMapping(a_idx, b_idx, a_set, b_set))
    if isolated:
        warnings.append(
            f"right vertices of degree 0: {len(isolated)} (first {isolated[0]}); "
            "their copies are isolated"
        )

    split_graph = build(g.n1, 2 * g.n2, edges)
    shared = {x for sm in mapping for x in sm.a_neighbors} & {
        x for sm in mapping for x in sm.b_neighbors
    }
    if not shared:
        warnings.append("N(Y_a) and N(Y_b) share no left vertex")
    return VertexSplitResult(g, split_graph, tuple(mapping), rule, tuple(warnings))


def split_sidecar(result: VertexSplitResult) -> dict:
    """JSON sidecar accompanying the split graph's edge list."""
    return {
        "mapping": [[sm.a_index, sm.b_index] for sm in result.mapping],
        "rule": result.rule,
        "warnings": list(result.warnings),
    }


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

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "k": self.k,
            "threshold": self.threshold,
            "lambda2_prime": self.lambda2_prime,
            "criterion_met": self.criterion_met,
            "measured_kappa": self.measured_kappa,
            "conclusion_holds": self.conclusion_holds,
            "preconditions_met": self.preconditions_met,
            "notes": self.notes,
        }


def measure_split(split: VertexSplitResult) -> tuple[float, int]:
    """(lambda2', kappa') of the split graph: its second adjacency eigenvalue
    and its edge connectivity, the two measurements every criterion reads."""
    spectrum = symmetric_eigenvalues(adjacency_matrix(split.split_graph))
    return spectrum.eigenvalues[1], edge_connectivity(split.split_graph)


def _criterion_report(
    theorem: str,
    split: VertexSplitResult,
    k: int,
    threshold: float,
    pre: bool,
    notes: str,
    measured: tuple[float, int] | None,
) -> ConnectivityCriterionReport:
    lambda2p, kappa = measured or measure_split(split)
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
    split: VertexSplitResult, k: int, measured: tuple[float, int] | None = None
) -> ConnectivityCriterionReport:
    """Regular-graph criterion: threshold (2k-1)/sqrt(2) on lambda2'.

    measured is measure_split(split) when the caller already has it.
    """
    notes = []
    if not split.original.degree_profile().is_regular:
        notes.append("original graph is not d-regular")
    if k < 2:
        notes.append(f"requires k >= 2, got {k}")
    delta_prime = split.split_graph.degree_profile().delta
    if delta_prime < k:
        notes.append(f"split minimum degree {delta_prime} < k = {k}")
    threshold = (2 * k - 1) / math.sqrt(2.0)
    return _criterion_report("r1", split, k, threshold, not notes, "; ".join(notes), measured)


def theorem_r2_check(
    split: VertexSplitResult, k: int, measured: tuple[float, int] | None = None
) -> ConnectivityCriterionReport:
    """Biregular criterion: threshold n2*(2k-1)/sqrt(2*n1*n2) on lambda2'.

    measured is measure_split(split) when the caller already has it.
    """
    g = split.original
    notes = []
    if not g.degree_profile().is_biregular:
        notes.append("original graph is not biregular")
    if k < 2:
        notes.append(f"requires k >= 2, got {k}")
    threshold = g.n2 * (2 * k - 1) / math.sqrt(2 * g.n1 * g.n2)
    return _criterion_report("r2", split, k, threshold, not notes, "; ".join(notes), measured)
