"""The paper's canonical dual of the unified assignment form, as a reference.

The binary program is relaxed through one dual variable per sub-channel cover
constraint (``cover_dual``), one per agent's single-choice constraint
(``choice_dual``) and one per option enforcing binarity (``binary_dual``).
The choice and cover constraints are equalities, so their duals are free in
sign; wherever every binarity dual is positive the dual function is concave
and bounds the value of every exact cover from below.  Each choice and cover
constraint is one column of a stacked (option x constraint) matrix A,
``AssignmentInstance.constraint_matrix``, so their duals form one vector y.

The dual's value, gradient, recovered indicator, complementarity function,
perturbation certificate and finite-difference check are computed here from
A, the weights and a ``DualPoint`` alone.  No code is shared with the solver
(``dual``), so a change to its round cannot move this reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .assignment import AssignmentInstance


class DualDomainError(ValueError):
    """A binarity dual is zero, where ``dual_value``, ``dual_gradient`` and
    ``recover_indicator`` are undefined; ``dual.solve`` never reads a start's."""


@dataclass(frozen=True)
class DualPoint:
    """One point of the dual space: cover (N,), choice (K,), binary (n_options,)."""

    cover_dual: np.ndarray
    choice_dual: np.ndarray
    binary_dual: np.ndarray


def _terms(a: AssignmentInstance, d: DualPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked duals y = (choice, cover) in the column order of A, the
    slack s = u - A y and s + rho at ``d``; refuses a zero rho."""
    if (np.asarray(d.binary_dual) == 0).any():
        raise DualDomainError("binary duals must be non-zero")
    y = np.concatenate([d.choice_dual, d.cover_dual])
    slack = a.utilities - a.constraint_matrix @ y
    return y, slack, slack + d.binary_dual


def dual_value(a: AssignmentInstance, d: DualPoint) -> float:
    """Value -1/4 * sum((s + rho)^2 / rho) - sum(y) of the canonical dual at ``d``."""
    with np.errstate(over="ignore"):
        y, _, shifted = _terms(a, d)
        return -0.25 * float(shifted @ (shifted / d.binary_dual)) - float(y.sum())


def dual_gradient(a: AssignmentInstance, d: DualPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact partial derivatives of ``dual_value`` w.r.t. (cover, choice, binary).

    The (choice, cover) components are A^T x - 1 at the recovered
    indicator x; the binary component is ((slack/rho)^2 - 1) / 4.
    """
    with np.errstate(over="ignore"):
        _, slack, shifted = _terms(a, d)
        g_joint = a.constraint_matrix.T @ (shifted / (2.0 * d.binary_dual)) - 1.0
        g_binary = 0.25 * ((slack / d.binary_dual) ** 2 - 1.0)
    return g_joint[a.n_agents :], g_joint[: a.n_agents], g_binary


def recover_indicator(a: AssignmentInstance, d: DualPoint) -> np.ndarray:
    """Fractional indicator (s + rho) / (2 rho) per option, s = u - choice - cover_terms."""
    with np.errstate(over="ignore"):
        return _terms(a, d)[2] / (2.0 * d.binary_dual)


def xi_value(a: AssignmentInstance, selection: np.ndarray, d: DualPoint) -> float:
    """Total complementarity function at an indicator vector and a dual point.

    At any dual point it equals the primal value ``a.value`` of an exact
    cover, and ``dual_value`` at the recovered indicator.  It is defined at
    a zero binarity dual too.
    """
    x = np.asarray(selection, dtype=float)
    lin = a.constraint_matrix @ np.concatenate([d.choice_dual, d.cover_dual]) - d.binary_dual + a.weights
    total = float(np.sum(d.binary_dual * x * x + lin * x))
    return total - float(np.sum(d.cover_dual)) - float(np.sum(d.choice_dual))


@dataclass(frozen=True)
class GapReport:
    """Diagnostic of how far a dual point is from certifying its allocation.

    ``theta`` is -1/0/+1 per option: 0 where the reported selection matches
    the branch implied by the recovered indicator, ``implied - selected``
    where they disagree.  ``modified_utilities`` is the utility vector
    u - 2*theta*rho; at the same dual point the recovered indicator of the
    modified problem, ``a.with_weights(-modified_utilities)``, is
    ``frac - theta``, which lands on the reported selection, so the
    perturbed problem is solved exactly.
    """

    theta: np.ndarray
    modified_utilities: np.ndarray
    implied_selection: np.ndarray


def diagnose_gap(a: AssignmentInstance, d: DualPoint, selection: np.ndarray | None = None) -> GapReport:
    """Build the perturbation certificate for a converged dual point.

    ``selection`` is the reported 0/1 option vector (defaults to the branch
    implied by the recovered indicator, which yields all-zero theta).
    """
    frac = recover_indicator(a, d)
    implied = (frac >= 0.5).astype(np.int8)
    if selection is None:
        selection = implied
    sel = np.asarray(selection).astype(np.int8)
    theta = (implied - sel).astype(np.int8)
    modified = a.utilities - 2.0 * theta * d.binary_dual
    return GapReport(theta=theta, modified_utilities=modified, implied_selection=implied)


def _unpack(vec: np.ndarray, n_res: int, n_agents: int) -> DualPoint:
    return DualPoint(
        cover_dual=vec[:n_res],
        choice_dual=vec[n_res : n_res + n_agents],
        binary_dual=vec[n_res + n_agents :],
    )


def gradient_check(
    instances: Sequence[AssignmentInstance],
    points_per_instance: int = 50,
    h: float = 1e-6,
    seed: int = 99,
) -> dict:
    """Central finite differences of the dual value against the analytic gradient.

    Every coordinate of a point is sampled in [0.5, 2.0].
    The per-point error is max|analytic - fd| / (1 + max|analytic|).
    """
    if not instances:
        raise ValueError("gradient_check needs at least one instance")
    if points_per_instance < 1:
        raise ValueError(f"points_per_instance must be >= 1, got {points_per_instance}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    n_points = 0
    for a in instances:
        dim = a.n_resources + a.n_agents + a.n_options
        for _ in range(points_per_instance):
            vec = rng.uniform(0.5, 2.0, dim)
            d = _unpack(vec, a.n_resources, a.n_agents)
            g_cover, g_choice, g_binary = dual_gradient(a, d)
            analytic = np.concatenate([g_cover, g_choice, g_binary])
            fd = np.empty(dim)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fp = dual_value(a, _unpack(vec + e, a.n_resources, a.n_agents))
                fm = dual_value(a, _unpack(vec - e, a.n_resources, a.n_agents))
                fd[i] = (fp - fm) / (2.0 * h)
            err = float(np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(analytic))))
            worst = max(worst, err)
            n_points += 1
    return {"max_rel_error": worst, "n_points": n_points}
