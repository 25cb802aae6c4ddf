"""Dense symmetric eigensolving and bipartite quotient-matrix reports.

The eigensolver is a cyclic Jacobi iteration: rotation sweeps run until the
off-diagonal Frobenius norm falls below 1e-12 times the matrix norm (at most
100 sweeps), and every returned spectrum carries a certified eigenpair
residual.  Determinism and certified accuracy at desk scale (n up to a few
hundred) matter more here than raw speed, so no LAPACK-style solver is used
on this path.

Quotient matrices of the bipartition are 2x2 with closed-form eigenvalues;
the lifted n x n counterparts are materialized explicitly and verified
numerically.  The bound suite turns each second-eigenvalue inequality into a
checkable report: bounds whose preconditions fail are still evaluated, only
flagged, because the point of the reports is observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bigraph import BipartiteGraph

JACOBI_REL_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100
RESIDUAL_GATE = 1e-8
REPORT_TOL = 1e-9

MATRIX_KINDS = ("adjacency", "laplacian", "signless-laplacian", "lifted", "custom")
QUOTIENT_FLAVORS = ("adjacency", "laplacian")


class ConvergenceError(RuntimeError):
    """Raised when Jacobi sweeps fail to reach the off-diagonal target."""


@dataclass(frozen=True)
class SymmetricMatrix:
    """Square real matrix, exactly symmetric by construction."""

    data: np.ndarray
    kind: str = "custom"

    def __post_init__(self) -> None:
        d = self.data
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {d.shape}")
        if not np.array_equal(d, d.T):
            raise ValueError("matrix is not exactly symmetric")
        d.setflags(write=False)

    @property
    def order(self) -> int:
        return self.data.shape[0]


def _biadjacency(g: BipartiteGraph) -> np.ndarray:
    B = np.zeros((g.n1, g.n2))
    for u, v in g.edges:
        B[u, v] = 1.0
    return B


def adjacency_matrix(g: BipartiteGraph) -> SymmetricMatrix:
    """Block matrix [[0, B], [B^T, 0]] with left vertices indexed first."""
    B = _biadjacency(g)
    A = np.zeros((g.n, g.n))
    A[: g.n1, g.n1 :] = B
    A[g.n1 :, : g.n1] = B.T
    return SymmetricMatrix(A, "adjacency")


def laplacian_matrix(g: BipartiteGraph) -> SymmetricMatrix:
    A = adjacency_matrix(g).data
    L = np.diag(A.sum(axis=1)) - A
    return SymmetricMatrix(L, "laplacian")


def signless_laplacian_matrix(g: BipartiteGraph) -> SymmetricMatrix:
    A = adjacency_matrix(g).data
    Q = np.diag(A.sum(axis=1)) + A
    return SymmetricMatrix(Q, "signless-laplacian")


@dataclass(frozen=True)
class SpectrumReport:
    """Full real spectrum, descending, with solver diagnostics.

    residual is the max over eigenpairs of ||M v - lambda v|| / max(1, ||M||_F)
    and is certified to be at most 1e-8.
    """

    eigenvalues: tuple[float, ...]
    matrix_kind: str
    residual: float
    iterations: int

    @property
    def order(self) -> int:
        return len(self.eigenvalues)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.matrix_kind,
            "eigenvalues": list(self.eigenvalues),
            "residual": self.residual,
        }


def _offdiag_norm(A: np.ndarray) -> float:
    # direct sum over off-diagonal entries; a ||A||^2 - sum(diag^2) formulation
    # cancels catastrophically near convergence
    B = A.copy()
    np.fill_diagonal(B, 0.0)
    return float(np.linalg.norm(B, "fro"))


def symmetric_eigenvalues(M: SymmetricMatrix) -> SpectrumReport:
    """Full spectrum of a symmetric matrix by cyclic Jacobi sweeps.

    Raises ConvergenceError if the off-diagonal norm has not dropped below
    1e-12 * ||M||_F after 100 sweeps, or if the certified residual exceeds
    the 1e-8 gate.
    """
    n = M.order
    A = M.data.astype(float).copy()
    norm_f = float(np.linalg.norm(A, "fro"))
    if n == 1:
        return SpectrumReport((float(A[0, 0]),), M.kind, 0.0, 0)
    V = np.eye(n)
    target = JACOBI_REL_TOL * norm_f
    sweeps = 0
    off = _offdiag_norm(A)
    while off > target and sweeps < JACOBI_MAX_SWEEPS:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                if abs(apq) < 1e-150:
                    # rotation would be numerically the identity
                    A[p, q] = 0.0
                    A[q, p] = 0.0
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                col_p = A[:, p].copy()
                col_q = A[:, q].copy()
                A[:, p] = c * col_p - s * col_q
                A[:, q] = s * col_p + c * col_q
                row_p = A[p, :].copy()
                row_q = A[q, :].copy()
                A[p, :] = c * row_p - s * row_q
                A[q, :] = s * row_p + c * row_q
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = 0.0
                A[q, p] = 0.0
                vp = V[:, p].copy()
                vq = V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
        sweeps += 1
        off = _offdiag_norm(A)
    if off > target:
        raise ConvergenceError(
            f"Jacobi did not converge after {sweeps} sweeps: "
            f"off-diagonal norm {off:.3e} > target {target:.3e}"
        )
    vals = np.diag(A).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    V = V[:, order]
    residuals = np.linalg.norm(M.data @ V - V * vals[None, :], axis=0)
    residual = float(residuals.max()) / max(1.0, norm_f)
    if residual > RESIDUAL_GATE:
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds 1e-8 gate")
    return SpectrumReport(tuple(float(x) for x in vals), M.kind, residual, sweeps)


def eigenvalue_clusters(eigenvalues, tol: float = 1e-8) -> list[tuple[float, int]]:
    """Group a descending spectrum into (value, multiplicity) clusters."""
    clusters: list[tuple[float, int]] = []
    for x in eigenvalues:
        if clusters and abs(clusters[-1][0] - x) <= tol:
            clusters[-1] = (clusters[-1][0], clusters[-1][1] + 1)
        else:
            clusters.append((x, 1))
    return clusters


@dataclass(frozen=True)
class Quotient2x2:
    """Bipartite quotient matrix with closed-form eigenvalues (descending)."""

    b11: float
    b12: float
    b21: float
    b22: float
    eta1: float
    eta2: float
    flavor: str
    degenerate: bool = False

    def as_array(self) -> np.ndarray:
        return np.array([[self.b11, self.b12], [self.b21, self.b22]])


def bipartite_quotient(g: BipartiteGraph, flavor: str) -> Quotient2x2:
    """Quotient of the adjacency or Laplacian matrix over the bipartition.

    Adjacency flavor has eigenvalues +-m/sqrt(n1*n2); Laplacian flavor has
    eigenvalues {m*n/(n1*n2), 0}.  Both are closed forms, never iterated.
    An empty graph (m = 0) yields the zero quotient with a degeneracy flag.
    """
    if flavor not in QUOTIENT_FLAVORS:
        raise ValueError(f"unknown quotient flavor {flavor!r}")
    n1, n2, m = g.n1, g.n2, g.m
    if m == 0:
        return Quotient2x2(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, flavor, degenerate=True)
    if flavor == "adjacency":
        eta1 = m / math.sqrt(n1 * n2)
        return Quotient2x2(0.0, m / n1, m / n2, 0.0, eta1, -eta1, flavor)
    theta1 = m * g.n / (n1 * n2)
    return Quotient2x2(m / n1, -m / n1, -m / n2, m / n2, theta1, 0.0, flavor)


def _eigvec_2x2(q: np.ndarray, eig: float) -> np.ndarray:
    v = np.array([q[0, 1], eig - q[0, 0]])
    if np.linalg.norm(v) == 0.0:
        v = np.array([eig - q[1, 1], q[1, 0]])
    if np.linalg.norm(v) == 0.0:
        v = np.array([1.0, 0.0])
    return v


def lifted_matrix_spectrum(g: BipartiteGraph, flavor: str) -> SpectrumReport:
    """Spectrum of the lifted quotient S B_Q S^T, verified numerically.

    S is the normalized characteristic matrix of the bipartition, so the
    lifted matrix has the quotient eigenvalues plus zeros: {eta1, 0^(n-2),
    eta2} for the adjacency flavor and {theta1, 0^(n-1)} for the Laplacian
    flavor.  The report's residual certifies every claimed eigenpair against
    the materialized matrix: quotient eigenvectors lift through S, and the
    orthogonal complement of range(S) is annihilated, which covers the zero
    eigenvalues collectively.
    """
    q = bipartite_quotient(g, flavor)
    n1, n2, n = g.n1, g.n2, g.n
    S = np.zeros((n, 2))
    S[:n1, 0] = 1.0 / math.sqrt(n1)
    S[n1:, 1] = 1.0 / math.sqrt(n2)
    AQ = q.as_array()
    C = S @ AQ @ S.T
    norm_c = float(np.linalg.norm(C, "fro"))

    if flavor == "adjacency":
        claimed = [q.eta1] + [0.0] * (n - 2) + [q.eta2]
        lifted_pairs = [q.eta1, q.eta2]
    else:
        claimed = [q.eta1] + [0.0] * (n - 1)
        lifted_pairs = [q.eta1, q.eta2]

    residuals = []
    for eig in lifted_pairs:
        w = _eigvec_2x2(AQ, eig)
        v = S @ w
        v /= np.linalg.norm(v)
        residuals.append(float(np.linalg.norm(C @ v - eig * v)))
    # ||C (I - S S^T)||_F bounds the residual of every zero eigenpair drawn
    # from the complement of range(S)
    P = np.eye(n) - S @ S.T
    residuals.append(float(np.linalg.norm(C @ P, "fro")))
    residual = max(residuals) / max(1.0, norm_c)
    if residual > RESIDUAL_GATE:
        raise ConvergenceError(f"lifted spectrum residual {residual:.3e} exceeds gate")
    return SpectrumReport(tuple(claimed), "lifted", residual, 0)


@dataclass(frozen=True)
class InterlacingReport:
    """Juxtaposes the valid two-sided interlacing with the stronger chain.

    valid_form_holds checks lambda_i >= eta_i >= lambda_(n-2+i) for i = 1, 2
    (the t = 2 quotient form); claimed_chain_holds checks the stronger chain
    lambda_1 >= eta_1 >= lambda_2 and lambda_(n-1) >= eta_2 >= lambda_n.
    The chain is an observable, not an invariant: instances violate it.
    """

    valid_form_holds: bool
    claimed_chain_holds: bool
    witnesses: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "valid_form_holds": self.valid_form_holds,
            "claimed_chain_holds": self.claimed_chain_holds,
            "witnesses": list(self.witnesses),
        }


def interlacing_check(full: SpectrumReport, q: Quotient2x2) -> InterlacingReport:
    lam = full.eigenvalues
    n = len(lam)
    if n < 2:
        raise ValueError("interlacing check needs order >= 2")
    tol = REPORT_TOL
    e1, e2 = q.eta1, q.eta2
    valid_checks = [
        (lam[0] >= e1 - tol, f"valid form: lambda_1={lam[0]!r} < eta_1={e1!r}"),
        (e1 >= lam[n - 2] - tol, f"valid form: eta_1={e1!r} < lambda_(n-1)={lam[n-2]!r}"),
        (lam[1] >= e2 - tol, f"valid form: lambda_2={lam[1]!r} < eta_2={e2!r}"),
        (e2 >= lam[n - 1] - tol, f"valid form: eta_2={e2!r} < lambda_n={lam[n-1]!r}"),
    ]
    chain_checks = [
        (lam[0] >= e1 - tol, f"chain: lambda_1={lam[0]!r} < eta_1={e1!r}"),
        (e1 >= lam[1] - tol, f"chain: eta_1={e1!r} < lambda_2={lam[1]!r}"),
        (lam[n - 2] >= e2 - tol, f"chain: lambda_(n-1)={lam[n-2]!r} < eta_2={e2!r}"),
        (e2 >= lam[n - 1] - tol, f"chain: eta_2={e2!r} < lambda_n={lam[n-1]!r}"),
    ]
    witnesses = tuple(msg for ok, msg in valid_checks + chain_checks if not ok)
    return InterlacingReport(
        all(ok for ok, _ in valid_checks),
        all(ok for ok, _ in chain_checks),
        witnesses,
    )


@dataclass(frozen=True)
class BoundReport:
    """One eigenvalue bound evaluated against the solver-observed value.

    holds is bound - observed >= -REPORT_TOL for upper bounds and
    observed - bound >= -REPORT_TOL for lower bounds.
    """

    bound_id: str
    bound_value: float
    observed_value: float
    holds: bool
    preconditions_met: bool
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "bound": self.bound_value,
            "observed": self.observed_value,
            "holds": self.holds,
            "preconditions_met": self.preconditions_met,
            "notes": self.notes,
        }


def _upper(bound_id: str, bound: float, observed: float, pre: bool, notes: str) -> BoundReport:
    return BoundReport(bound_id, bound, observed, bound - observed >= -REPORT_TOL, pre, notes)


def _lower(bound_id: str, bound: float, observed: float, pre: bool, notes: str) -> BoundReport:
    return BoundReport(bound_id, bound, observed, observed - bound >= -REPORT_TOL, pre, notes)


def bound_suite(g: BipartiteGraph) -> list[BoundReport]:
    """Evaluate every second-eigenvalue bound on g.

    Inapplicable bounds (unmet preconditions) are still evaluated
    observationally with preconditions_met = False.  Reports on disconnected
    input carry a note, since most of the bounds presume connectivity.
    """
    if g.m == 0:
        raise ValueError("bound suite needs a nonempty graph")
    n1, n2, n, m = g.n1, g.n2, g.n, g.m
    lam = symmetric_eigenvalues(adjacency_matrix(g)).eigenvalues
    mu = symmetric_eigenvalues(laplacian_matrix(g)).eigenvalues
    profile = g.degree_profile()
    connected = g.is_connected()
    regular = profile.is_regular
    complete = m == n1 * n2
    base_note = "" if connected else "input graph is disconnected"

    def notes(*extra: str) -> str:
        return "; ".join(x for x in (base_note, *extra) if x)

    reg_note = "" if regular else "requires a regular bipartite graph"
    conn_note = "" if connected else "requires a connected graph"
    comp_note = "" if complete else "requires a complete bipartite graph"
    if connected and m != n - 1:
        # order-only bounds are tight on minimally connected graphs
        conn_note = "graph is not minimally connected (m > n - 1)"

    sq = m / math.sqrt(n1 * n2)
    if n % 2:
        tree_bound = 2 * (n - 1) / math.sqrt(n * n - 1)
    else:
        tree_bound = 2 * (n - 1) / n

    return [
        _upper("T1.iii", sq, lam[1], True, notes()),
        _lower("T1.iv", -sq, lam[n - 2], True, notes()),
        _upper("Cor-regular-adj", m / n1, lam[1], regular, notes(reg_note)),
        _upper("T2-tree", tree_bound, lam[1], connected, notes(conn_note)),
        _lower("T9-tree", -tree_bound, lam[n - 2], connected, notes(conn_note)),
        _upper("T5.ii", m * n / (n1 * n2), mu[1], True, notes()),
        _upper("Cor-regular-lap", 2 * m / n1, mu[1], regular, notes(reg_note)),
        _upper("Note-complete-lap", float(n), mu[1], complete, notes(comp_note)),
    ]
