"""Canonical dual solver for the unified assignment form.

The binary program is relaxed through one dual variable per sub-channel cover
constraint (``cover_dual``), one per agent's single-choice constraint
(``choice_dual``) and one per option enforcing binarity (``binary_dual``).
On the open cone where all three are positive the dual function is concave,
and a stationary point there recovers the exact binary optimum with zero
duality gap.  The solver runs nested sub-gradient loops (binarity duals
innermost, then choice, then cover) in which each loop steps onto the
stationary point of its own sub-problem (for the separable binarity duals a
single closed-form step), and certifies a run only when the converged point
sits inside the cone and the recovered indicator rounds to a feasible
assignment.  An uncertified run is repaired by a bounded exact-cover
search seeded with the recovered indicator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import Allocation, AssignmentInstance, InfeasibleInstanceError
from .baselines import exact_cover_search

# Node budget of the pre-ascent search for any exact cover; a search cut by
# it proves nothing, and the ascent runs as if a cover existed.
COVER_CHECK_NODES = 100_000


class DualDomainError(ValueError):
    """Dual quantities are undefined when a binarity dual is exactly zero."""


@dataclass(frozen=True)
class DualPoint:
    """One point of the dual space: cover (N,), choice (K,), binary (n_options,)."""

    cover_dual: np.ndarray
    choice_dual: np.ndarray
    binary_dual: np.ndarray

    @property
    def in_positive_cone(self) -> bool:
        return bool(
            np.all(self.cover_dual > 0)
            and np.all(self.choice_dual > 0)
            and np.all(self.binary_dual > 0)
        )

    def copy(self) -> "DualPoint":
        return DualPoint(
            cover_dual=self.cover_dual.copy(),
            choice_dual=self.choice_dual.copy(),
            binary_dual=self.binary_dual.copy(),
        )


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances, budgets and starting point of the nested dual ascent.

    ``tol`` bounds the sup-norm of each gradient at convergence;
    ``projection_offset`` is the binarity duals' magnitude floor (see
    ``project_rho``); ``init_value`` fills every dual at a cold start;
    ``max_inner`` caps the choice and cover loops (the binarity step is
    closed form and takes at most one step per round); ``max_outer`` caps
    the outer rounds and the choice/cover cycles within one round;
    ``round_tol`` is how close to 0/1 the recovered indicator must be.
    """

    tol: float = 1e-6
    projection_offset: float = 1e-3
    init_value: float = 1.0
    max_inner: int = 10_000
    max_outer: int = 1_000
    round_tol: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.round_tol < 0.5:
            raise ValueError("round_tol must be in (0, 0.5)")
        if not 0 < self.projection_offset < 1:
            raise ValueError("projection_offset must be in (0, 1)")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _check_binary_dual(binary_dual: np.ndarray) -> None:
    if (np.asarray(binary_dual) == 0).any():
        raise DualDomainError("binary duals must be non-zero")


def dual_value(a: AssignmentInstance, d: DualPoint) -> float:
    """Value of the canonical dual function at ``d``.

    -1/4 * sum((u + rho - slack_terms)^2 / rho) minus the sums of the cover
    and choice duals, with u the option utilities (-weights).
    """
    _check_binary_dual(d.binary_dual)
    u = -a.weights
    slack = u + d.binary_dual - d.choice_dual[a.agent_of] - a.footprint_matrix.T @ d.cover_dual
    quad = -0.25 * float(np.sum(slack * slack / d.binary_dual))
    return quad - float(np.sum(d.cover_dual)) - float(np.sum(d.choice_dual))


def dual_gradient(a: AssignmentInstance, d: DualPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact partial derivatives of ``dual_value`` w.r.t. (cover, choice, binary).

    The cover and choice components equal the half-residual sums of the
    recovered fractional indicator; the binary component is
    ((slack/rho)^2 - 1) / 4.  Its zero set |slack| = |rho| is what the
    stationarity condition prescribes.
    """
    _check_binary_dual(d.binary_dual)
    mat, binary = a.footprint_matrix, d.binary_dual
    slack0 = -a.weights - d.choice_dual[a.agent_of] - mat.T @ d.cover_dual
    frac = (slack0 + binary) / (2.0 * binary)
    g_cover = mat @ frac - 1.0
    g_choice = np.bincount(a.agent_of, weights=frac, minlength=a.n_agents) - 1.0
    ratio = slack0 / binary
    g_binary = 0.25 * (ratio * ratio - 1.0)
    return g_cover, g_choice, g_binary


def recover_indicator(a: AssignmentInstance, d: DualPoint) -> np.ndarray:
    """Fractional indicator (u + rho - choice - cover_terms) / (2 rho) per option."""
    _check_binary_dual(d.binary_dual)
    u = -a.weights
    slack = u + d.binary_dual - d.choice_dual[a.agent_of] - a.footprint_matrix.T @ d.cover_dual
    return slack / (2.0 * d.binary_dual)


def xi_value(a: AssignmentInstance, selection: np.ndarray, d: DualPoint) -> float:
    """Total complementarity function at an indicator vector and a dual point.

    Equals both the primal value and the dual value at a certified pair.
    """
    u = -a.weights
    x = np.asarray(selection, dtype=float)
    lin = d.choice_dual[a.agent_of] - d.binary_dual - u + a.footprint_matrix.T @ d.cover_dual
    total = float(np.sum(d.binary_dual * x * x + lin * x))
    return total - float(np.sum(d.cover_dual)) - float(np.sum(d.choice_dual))


def project_rho(previous: np.ndarray, proposed: np.ndarray, offset: float) -> np.ndarray:
    """Binarity step with a boundary guard: |proposed| floored at the offset.

    The result takes the previous iterate's sign (+ at zero), so a dual never
    crosses zero.  The floor keeps a degenerate tie from driving some dual to
    the cone boundary, where the quadratic curvature ``1/(2 rho)`` overflows;
    an exact-zero proposal lands on the offset itself.  The map is
    idempotent: a second step from its result with the same proposal
    returns the same point.
    """
    magnitude = np.maximum(np.abs(proposed), offset)
    return np.where(previous < 0, -magnitude, magnitude)


@dataclass(frozen=True)
class GapReport:
    """Diagnostic of how far a dual point is from certifying its allocation.

    ``theta`` is -1/0/+1 per option: 0 where the reported selection matches
    the branch implied by the recovered indicator, ``implied - selected``
    where they disagree.  ``modified_utilities`` is the utility vector
    u - 2*theta*rho; at the same dual point the recovered indicator of the
    modified problem is ``frac - theta``, which lands on the reported
    selection, so the perturbed problem is solved exactly.  ``max_ratio``
    is the largest 2|rho|/|u| over all options, with a small floor standing
    in for zero utilities; small values certify that every possible utility
    perturbation is relatively tiny, hence a near-optimal point.  A zero
    utility (the empty pattern) makes the floor bind, so the flag is
    deliberately conservative.
    """

    theta: np.ndarray
    modified_utilities: np.ndarray
    implied_selection: np.ndarray
    max_ratio: float
    near_optimal: bool


def diagnose_gap(
    a: AssignmentInstance,
    d: DualPoint,
    selection: np.ndarray | None = None,
    ratio_bound: float = 0.05,
) -> GapReport:
    """Build the perturbation certificate for a converged dual point.

    ``selection`` is the reported 0/1 option vector (defaults to the branch
    implied by the recovered indicator, which yields all-zero theta).
    """
    u = -a.weights
    frac = recover_indicator(a, d)
    implied = (frac >= 0.5).astype(np.int8)
    if selection is None:
        selection = implied
    sel = np.asarray(selection).astype(np.int8)
    theta = (implied - sel).astype(np.int8)
    modified = u - 2.0 * theta * d.binary_dual
    floor = 1e-9 * max(1.0, float(np.max(np.abs(u))))
    max_ratio = float(
        np.max(2.0 * np.abs(d.binary_dual) / np.maximum(np.abs(u), floor))
    )
    return GapReport(
        theta=theta,
        modified_utilities=modified,
        implied_selection=implied,
        max_ratio=max_ratio,
        near_optimal=bool(max_ratio <= ratio_bound),
    )


def modified_instance(a: AssignmentInstance, report: GapReport) -> AssignmentInstance:
    """Assignment instance whose utilities are the diagnostic's perturbed ones."""
    return a.with_weights(-report.modified_utilities)


@dataclass
class SolveReport:
    """Full outcome of one dual solve; see ``certified`` for the guarantee flag."""

    dual_point: DualPoint
    fractional: np.ndarray
    allocation: Allocation | None
    primal_value: float | None
    dual_value: float
    duality_gap: float | None
    in_positive_cone: bool
    binary_recovery: bool
    recovery_feasible: bool
    repaired: bool
    truncated: bool
    iterations: tuple[int, int, int]
    outer_iterations: int
    gap_report: GapReport | None
    violations: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.allocation is not None

    @property
    def certified(self) -> bool:
        """Exact-optimality guarantee: converged, in-cone, cleanly binarised."""
        return (
            not self.truncated
            and self.in_positive_cone
            and self.binary_recovery
            and self.recovery_feasible
        )

    def to_dict(self) -> dict:
        return {
            "primal_value": self.primal_value,
            "dual_value": self.dual_value,
            "duality_gap": self.duality_gap,
            "in_positive_cone": self.in_positive_cone,
            "binary_recovery": self.binary_recovery,
            "recovery_feasible": self.recovery_feasible,
            "repaired": self.repaired,
            "truncated": self.truncated,
            "certified": self.certified,
            "iterations": list(self.iterations),
            "outer_iterations": self.outer_iterations,
            "max_ratio": None if self.gap_report is None else self.gap_report.max_ratio,
            "near_optimal": None if self.gap_report is None else self.gap_report.near_optimal,
            "violations": list(self.violations),
            "allocation": None if self.allocation is None else list(self.allocation.option_index),
        }


def _binarize(frac: np.ndarray, round_tol: float) -> tuple[np.ndarray, bool]:
    near_one = np.abs(frac - 1.0) <= round_tol
    near_zero = np.abs(frac) <= round_tol
    ok = bool(np.all(near_zero | near_one))
    return near_one.astype(np.int8), ok


def repair_selection(
    a: AssignmentInstance, frac: np.ndarray, node_cap: int = 200_000
) -> np.ndarray | None:
    """Bounded feasibility repair: heuristic, carries no optimality guarantee.

    Runs ``exact_cover_search`` with each agent's children tried by largest
    fractional indicator, then lowest weight, then lowest index.  The search
    keeps the best exact cover found within the node cap, so small instances
    are repaired to the best reachable selection while large ones return the
    incumbent when the budget runs out.  Returns a 0/1 selection or None when
    no exact cover was found.
    """
    order = [
        sorted(a.agent_options(k), key=lambda o: (-frac[o], a.weights[o], o))
        for k in range(a.n_agents)
    ]
    best, _, _ = exact_cover_search(a, order, node_cap)
    if best is None:
        return None
    sel = np.zeros(a.n_options, dtype=np.int8)
    sel[best] = 1
    return sel


def solve(
    a: AssignmentInstance,
    cfg: SolverConfig = SolverConfig(),
    start: DualPoint | None = None,
) -> SolveReport:
    """Run the nested dual ascent on one assignment instance.

    Loop order per outer round: (1) unless their gradient's sup-norm is
    within tolerance, one closed-form step of the binarity duals, (2) choice
    duals, (3) cover duals, (4, 5) repeat 2-3 until both are within
    tolerance, (6, 7) repeat everything until all three gradients pass, (8)
    recover and round the indicator.  Each loop steps onto the stationary
    point of its own sub-problem: separable for the binarity duals, so one
    ``project_rho`` step lands them all, and linear for the choice and cover
    duals, whose shared system is solved once per round.  The binarity count
    in ``iterations`` adds 1 for that step and 1 more when it moved the duals
    and their gradient still fails the re-check.  One gradient pass per
    choice/cover cycle serves its stop test, the next cycle and the next
    round.  A round that leaves the state unchanged ends the ascent.  When
    the rounded indicator is not a feasible assignment, ``repair_selection``
    supplies one if it can.  Exceeding the iteration budgets yields
    ``truncated=True``, never an exception.

    Before the ascent a search on all-zero weights, which stops at the first
    cover, looks for any exact cover.  Without one the dual is unbounded, so
    a search that finishes empty-handed raises InfeasibleInstanceError; one
    that hits ``COVER_CHECK_NODES`` first lets the ascent run.
    """
    found, _, capped = exact_cover_search(
        a.with_weights(np.zeros(a.n_options)),
        [a.agent_options(k) for k in range(a.n_agents)],
        COVER_CHECK_NODES,
    )
    if found is None and not capped:
        raise InfeasibleInstanceError("no exact-cover assignment exists for this instance")
    u = -a.weights
    mat = a.footprint_matrix
    mat_t = np.ascontiguousarray(mat.T)
    agent_of = a.agent_of
    n_agents, n_res, n_opt = a.n_agents, a.n_resources, a.n_options

    if start is None:
        cover = np.full(n_res, cfg.init_value)
        choice = np.full(n_agents, cfg.init_value)
        binary = np.full(n_opt, cfg.init_value)
    else:
        cover = start.cover_dual.astype(float).copy()
        choice = start.choice_dual.astype(float).copy()
        binary = start.binary_dual.astype(float).copy()

    one_hot_t = np.zeros((n_opt, n_agents))
    one_hot_t[np.arange(n_opt), agent_of] = 1.0
    # the joint choice/cover system [[diag(s2), cross.T], [cross, m_cover]]:
    # every round rewrites all of it but the zero off-diagonal choice block
    h_joint = np.zeros((n_agents + n_res, n_agents + n_res))
    diag = np.arange(n_agents)
    tol = cfg.tol

    it_binary = it_choice = it_cover = 0
    outer_used = 0
    converged = False
    diverged = False
    prev_state: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    # slack0 and cover_terms depend only on (choice, cover); each gradient
    # pass leaves them current for the next cycle and the next round
    cover_terms = mat_t @ cover
    slack0 = u - choice[agent_of] - cover_terms
    ratio = slack0 / binary
    g_binary = 0.25 * (ratio * ratio - 1.0)

    for outer in range(1, cfg.max_outer + 1):
        outer_used = outer
        if np.abs(g_binary).max() > tol:
            # exact ascent target of each separable 1-D sub-problem on the
            # current half-line: |slack| with the sign of the iterate, so
            # one step lands every binarity dual
            stepped = project_rho(binary, slack0, cfg.projection_offset)
            it_binary += 1
            if not (stepped == binary).all():
                binary = stepped
                ratio = slack0 / binary
                if np.abs(0.25 * (ratio * ratio - 1.0)).max() > tol:
                    it_binary += 1
        if not np.isfinite(binary).all():
            diverged = True
            break
        inv2b = 0.5 / binary
        u_binary = u + binary
        weighted = mat * inv2b
        m_cover = weighted @ mat_t
        # With the binarity duals held fixed both remaining gradients are
        # linear, so their shared stationary point solves one symmetric
        # system per round.  The cover loop lands on its component and the
        # next choice pass then lands on the matching choice component.
        cover_target = None
        cross = weighted @ one_hot_t
        s2 = np.bincount(agent_of, weights=inv2b, minlength=n_agents)
        q_fixed = u_binary * inv2b
        h_joint[diag, diag] = s2
        h_joint[:n_agents, n_agents:] = cross.T
        h_joint[n_agents:, :n_agents] = cross
        h_joint[n_agents:, n_agents:] = m_cover
        rhs_joint = np.concatenate(
            [
                np.bincount(agent_of, weights=q_fixed, minlength=n_agents) - 1.0,
                mat @ q_fixed - 1.0,
            ]
        )
        try:
            sol = np.linalg.solve(h_joint, rhs_joint)
            sol = sol + np.linalg.solve(h_joint, rhs_joint - h_joint @ sol)
            if np.isfinite(sol).all():
                cover_target = sol[n_agents:]
        except np.linalg.LinAlgError:
            cover_target = None
        for _cycle in range(cfg.max_outer):
            s1 = np.bincount(
                agent_of, weights=(u_binary - cover_terms) * inv2b, minlength=n_agents
            )
            for _ in range(cfg.max_inner):
                g = s1 - choice * s2 - 1.0
                if np.abs(g).max() <= tol:
                    break
                # the gradient is linear with per-coordinate slope -s2
                moved = choice + g / s2
                it_choice += 1
                if (moved == choice).all():
                    break
                choice = moved
            if not np.isfinite(choice).all():
                diverged = True
                break
            v0 = mat @ ((u_binary - choice[agent_of]) * inv2b)
            for _ in range(cfg.max_inner):
                g = v0 - m_cover @ cover - 1.0
                if np.abs(g).max() <= tol:
                    break
                if cover_target is not None and not (cover == cover_target).all():
                    cover = cover_target
                    it_cover += 1
                    break
                landed = None
                try:
                    landed = np.linalg.solve(m_cover, v0 - 1.0)
                except np.linalg.LinAlgError:
                    landed = None
                if (
                    landed is not None
                    and np.isfinite(landed).all()
                    and not (cover == landed).all()
                ):
                    cover = landed
                    it_cover += 1
                    break
                gersh = float(np.max(np.sum(np.abs(m_cover), axis=1)))
                moved = cover + g / max(gersh, 1e-12)
                it_cover += 1
                if (moved == cover).all():
                    break
                cover = moved
            if not np.isfinite(cover).all():
                diverged = True
                break
            cover_terms = mat_t @ cover
            slack0 = u - choice[agent_of] - cover_terms
            frac = (slack0 + binary) / (2.0 * binary)
            g_cover = mat @ frac - 1.0
            g_choice = np.bincount(agent_of, weights=frac, minlength=n_agents) - 1.0
            if np.abs(g_choice).max() <= tol and np.abs(g_cover).max() <= tol:
                break
        if diverged:
            break
        ratio = slack0 / binary
        g_binary = 0.25 * (ratio * ratio - 1.0)
        if (
            np.abs(g_binary).max() <= tol
            and np.abs(g_choice).max() <= tol
            and np.abs(g_cover).max() <= tol
        ):
            converged = True
            break
        # the round maps state to state deterministically, so an unchanged
        # state can never make further progress; no iterate is ever written
        # in place, so the previous state is kept by reference
        if prev_state is not None and (
            (prev_state[0] == binary).all()
            and (prev_state[1] == choice).all()
            and (prev_state[2] == cover).all()
        ):
            break
        prev_state = (binary, choice, cover)

    d = DualPoint(cover_dual=cover, choice_dual=choice, binary_dual=binary)
    violations: list[str] = []
    if diverged:
        violations.append("dual iterates diverged to non-finite values")
        frac = np.zeros(n_opt)
        dval = float("nan")
        sel, binary_ok = np.zeros(n_opt, dtype=np.int8), False
        cone = False
    else:
        frac = recover_indicator(a, d)
        dval = dual_value(a, d)
        sel, binary_ok = _binarize(frac, cfg.round_tol)
        cone = d.in_positive_cone
    if not binary_ok and not diverged:
        violations.append("recovery is not within rounding tolerance of 0/1")
    recovery_feasible = False
    if binary_ok:
        sel_violations = a.selection_violations(sel)
        recovery_feasible = not sel_violations
        violations.extend(sel_violations)

    final_sel: np.ndarray | None = sel if (binary_ok and recovery_feasible) else None
    repaired = False
    if final_sel is None:
        rep = repair_selection(a, frac)
        if rep is not None:
            final_sel = rep
            repaired = True

    allocation = None
    primal = None
    gap = None
    if final_sel is not None:
        allocation = a.allocation_from_selection(final_sel)
        primal = a.value(allocation)
        if math.isfinite(dval):
            gap = primal - dval

    gap_report = None
    if not diverged:
        gap_report = diagnose_gap(a, d, selection=final_sel)

    return SolveReport(
        dual_point=d,
        fractional=frac,
        allocation=allocation,
        primal_value=primal,
        dual_value=dval,
        duality_gap=gap,
        in_positive_cone=cone,
        binary_recovery=binary_ok,
        recovery_feasible=recovery_feasible,
        repaired=repaired,
        truncated=not converged,
        iterations=(it_binary, it_choice, it_cover),
        outer_iterations=outer_used,
        gap_report=gap_report,
        violations=violations,
    )

