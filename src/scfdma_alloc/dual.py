"""Dual ascent solver for the unified assignment form.

The solver maximises the canonical dual defined in ``canonical``.  Its
choice and cover duals form one vector y, in the column order of the
constraint matrix A (``AssignmentInstance.constraint_matrix``), and each
option has one binarity dual rho.  The solver is a block-coordinate ascent
that keeps the binarity duals positive: each round takes one closed-form
step of those separable duals, rho = max(|slack|, offset), then lands y on
the stationary point of the quadratic left with rho held fixed, one Gram
system of A and one linear solve.  So rho is a function of the previous y,
and the dual at that rho is the Lagrangian dual of the LP relaxation
(0 <= x <= 1): a solve can certify only where that LP has an integral
optimum.  A round is a minorize-maximize step on that rho-eliminated dual
phi, so the rounds are grouped into SQUAREM cycles (Varadhan and Roland,
2008), which cut them to about a third at the paper's scale.  The binarity
floor and the cold start are in the utilities' units, so scaling every
weight by a power of two scales every dual by the same power and leaves
every round, exit and allocation as it was.

The ascent stops, certified, at the first landing whose options of positive
slack form an exact cover.  With s = u - A y the slack, an option's reduced
cost is w + A y = -s, so every exact cover x' has w.x' = -s.x' - sum(y) >=
L(y) = sum(min(-s, 0)) - sum(y), and the cover x of the options with s > 0
has w.x = L(y): it is the exact optimum.  Every computed s must clear its
forward rounding error, so that the proof holds in floating point.  Every
solve reports L(y), at least the canonical dual at any rho > 0, so
primal - L(y) is a proven gap whatever the outcome.  A run that stops
otherwise is repaired by a polynomial chain program over the agents,
ordered by the recovered indicator; when the repair finds no cover, the
exact oracle's forward sweep decides whether any exists.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import Allocation, AssignmentInstance, InfeasibleInstanceError
from .baselines import NO_COVER, OracleCeilingError, require_cover
# diagnose_gap is here for perfbench's trace of dual.diagnose_gap, until ROADMAP item 5 drops that probe
from .canonical import DualPoint, diagnose_gap  # noqa: F401
from .patterns import require_integer

# How an ascent can stop, and where its answer came from; see ``solve``.
TERMINATIONS = ("converged", "stagnation", "budget", "diverged")
OUTCOMES = ("certified", "repaired", "unallocated")
# The binarity duals' floor (see ``project_rho``) is FLOOR_SCALE times the
# utilities' mean magnitude, or PROJECTION_OFFSET where that is 0.
FLOOR_SCALE = 1e-5
PROJECTION_OFFSET = 1e-3
# How many times an extrapolation step is halved towards the plain round's
# before the cycle falls back to that round (see ``solve``).
EXTRAPOLATION_BACKTRACKS = 3


@dataclass(frozen=True)
class SolverConfig:
    """Budget of the dual ascent; its exit test has no tolerance (see ``solve``).

    ``max_outer``, an integer of at least 1, caps the rounds, each of which
    is one binarity step, one joint (choice, cover) landing and one
    evaluation (an extrapolation between rounds is not a round).
    """

    max_outer: int = 1_000

    def __post_init__(self) -> None:
        require_integer("max_outer", self.max_outer)
        if self.max_outer < 1:
            raise ValueError(f"max_outer must be an integer >= 1, got {self.max_outer!r}")


def _slack(a: AssignmentInstance, stacked: np.ndarray) -> np.ndarray:
    """Each option's slack u - A y at the stacked (choice, cover) duals y."""
    return a.utilities - a.layout.constraint_matrix @ stacked


def _evaluate(a: AssignmentInstance, stacked: np.ndarray, binary: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """At stacked (choice, cover) duals y and binarity duals rho: the slack
    s = u - A y, s + rho and the dual value -1/4 * sum((s + rho)^2 / rho)
    - sum(y), which callers evaluate with overflow ignored (see ``solve``)."""
    slack = _slack(a, stacked)
    shifted = slack + binary
    return slack, shifted, _value(stacked, shifted, binary)


def _value(stacked: np.ndarray, shifted: np.ndarray, binary: np.ndarray) -> float:
    """The dual value from y, slack + rho and rho (see ``_evaluate``)."""
    return -0.25 * float(shifted @ (shifted / binary)) - float(stacked.sum())


def joint_system(a: AssignmentInstance, binary: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (choice, cover) landing's linear system at fixed binarity duals.

    With the binarity duals rho held fixed the dual is a concave quadratic in
    the stacked duals y = (choice, cover).  With A the constraint matrix and
    W = diag(1 / (2 rho)), its stationary point solves the Gram system
    (A^T W A) y = A^T W (u + rho) - 1; returns that matrix and right-hand side.
    Both come from the instance's layout: the matrix is the product
    (A^T W) A, whose left factor is C-contiguous because the layout stores
    A column-major, and since u = -w the right-hand side is
    1/2 * colsum(A) - 1 - A^T W w.
    """
    layout = a.layout
    con = layout.constraint_matrix
    inv2b = 0.5 / binary
    h = (con.T * inv2b) @ con
    rhs = layout.half_colsum_minus_one - (a.weights * inv2b) @ con
    return h, rhs


def project_rho(proposed: np.ndarray, offset: float) -> np.ndarray:
    """Binarity step: |proposed| floored at the offset, so every dual stays positive.

    On rho > 0 each binarity dual's 1-D sub-problem is concave with its
    maximum at |slack|; the floor keeps a degenerate tie from driving some
    dual to zero, where the quadratic curvature ``1/(2 rho)`` overflows.  An
    exact-zero proposal lands on the offset itself, and the map is
    idempotent.
    """
    return np.maximum(np.abs(proposed), offset)


@dataclass
class SolveReport:
    """Full outcome of one dual solve.

    ``outcome`` is one of ``OUTCOMES``: ``certified`` when the ascent
    stopped at a proven exact cover (the exact optimum), ``repaired``
    when ``repair_selection`` supplied the cover, and ``unallocated`` when
    there is no allocation.  ``fractional`` is the recovered indicator at
    ``dual_point``, the last landing.  ``dual_value`` is the Lagrangian
    bound L(y) at its choice and cover duals (NaN after a divergence), so
    ``duality_gap`` is a proven optimality gap, 0 up to rounding when
    certified.
    """

    dual_point: DualPoint
    fractional: np.ndarray
    allocation: Allocation | None
    primal_value: float | None
    dual_value: float
    duality_gap: float | None
    outcome: str
    termination: str
    outer_iterations: int
    violations: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> tuple[int, int, int]:
        """(binarity steps, choice landings, cover landings): one of each per round."""
        return (self.outer_iterations,) * 3

    @property
    def feasible(self) -> bool:
        return self.outcome != "unallocated"

    @property
    def truncated(self) -> bool:
        """The ascent stopped before a landing proved an exact cover."""
        return self.termination != "converged"

    @property
    def certified(self) -> bool:
        """Exact-optimality guarantee: the ascent stopped at a proven exact cover."""
        return self.outcome == "certified"


def repair_selection(a: AssignmentInstance, frac: np.ndarray) -> Allocation | None:
    """Polynomial feasibility repair: heuristic, carries no optimality guarantee.

    Orders the agents left to right by the centre of their blocks, weighted
    by the positive part of ``frac`` (an agent with no such weight sits at
    the band's centre; centres are compared on a 1e-9 grid, so that rounding
    noise in ``frac`` cannot split a tie, and ties keep agent order).  Along
    that chain the lightest exact cover is a segmentation program: the cover
    of sub-channels 1..n by the first t agents of the order extends the
    cover of 1..n' by the first t-1 with agent t's option on block n'+1..n,
    or with its empty option when n' = n, both read from the instance's
    ``cover_costs``.  That is O(K * N^2) per order.  It then
    relocates one agent at a time (out of the order and back in at another
    position, which covers adjacent swaps): the prefix and suffix programs
    of the other agents price every position of each agent at once, and the
    lightest of all those moves is taken while its cover strictly lowers
    ``a.value``.  Returns that cover's allocation, or None when no order
    reached that way admits an exact cover.
    """
    n_agents, n_res, sizes, ends = a.n_agents, a.n_resources, a.sizes, a.layout.ends
    option_at, cost = a.layout.option_at, a.cover_costs

    def prefix(order: list[int]) -> np.ndarray:
        """[t, n]: the lightest cover of 1..n by order[:t]."""
        g = np.full((len(order) + 1, n_res + 1), math.inf)
        g[0, 0] = 0.0
        for t, k in enumerate(order):
            g[t + 1] = (g[t][:, None] + cost[k]).min(axis=0)
        return g

    def suffix(order: list[int]) -> np.ndarray:
        """[t, n]: the lightest cover of n+1..N by order[t:]."""
        h = np.full((len(order) + 1, n_res + 1), math.inf)
        h[-1, -1] = 0.0
        for t in range(len(order) - 1, -1, -1):
            h[t] = (cost[order[t]] + h[t + 1]).min(axis=1)
        return h

    def cover(order: list[int]) -> tuple[float, Allocation | None]:
        """``a.value`` and allocation of the order's lightest cover, or (inf, None)."""
        h = suffix(order)
        if h[0, 0] == math.inf:
            return math.inf, None
        chosen = [0] * n_agents
        n = 0
        for t, k in enumerate(order):
            m = int((cost[k, n] + h[t + 1]).argmin())
            chosen[k] = int(option_at[k, n, m])
            n = m
        allocation = Allocation(tuple(chosen))
        return a.value(allocation), allocation

    mass = np.where(sizes > 0, np.maximum(frac, 0.0), 0.0)
    total = np.bincount(a.agent_of, weights=mass, minlength=n_agents)
    moment = np.bincount(a.agent_of, weights=mass * (ends - (sizes - 1) / 2.0), minlength=n_agents)
    centre = np.divide(moment, total, out=np.full(n_agents, (n_res + 1) / 2.0), where=total > 0)
    # on a grid far coarser than rounding noise, centres equal in exact arithmetic tie
    order = np.argsort(np.round(centre, 9), kind="stable").tolist()
    best, allocation = cover(order)
    while True:
        moves = []
        for i, k in enumerate(order):
            rest = order[:i] + order[i + 1 :]
            # through[t]: the lightest cover with agent k put back at position t of rest
            through = (prefix(rest)[:, :, None] + cost[k] + suffix(rest)[:, None, :]).min(axis=(1, 2))
            t = int(through.argmin())
            if through[t] < through[i]:
                moves.append((through[t], rest[:t] + [k] + rest[t:]))
        if not moves:
            break
        candidate = min(moves, key=lambda move: move[0])[1]
        value, moved = cover(candidate)
        if not value < best:
            break
        order, best, allocation = candidate, value, moved
    return allocation


def _extrapolate(
    a: AssignmentInstance,
    y0: np.ndarray,
    y1: np.ndarray,
    y2: np.ndarray,
    least: float,
    offset: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """SQUAREM's squared extrapolation of two rounds y0 -> y1 -> y2.

    With r = y1 - y0, v = y2 - 2 y1 + y0 and alpha = min(-|r|/|v|, -1), the
    point is y' = y0 - 2 alpha r + alpha^2 v (alpha = -1 gives y2).  The
    norms are taken without squaring the differences, which overflow float64
    long before the duals do.  y' is kept only where phi(y'), the dual at
    rho = ``project_rho`` of its slack with the solve's floor ``offset``, is
    at least ``least``, the y2 landing's value; otherwise alpha moves halfway
    to -1, up to ``EXTRAPOLATION_BACKTRACKS`` times.  Returns y' and its slack, or None
    when v = 0, alpha reaches -1 or no step is kept.
    """
    r = y1 - y0
    v = (y2 - y1) - r
    norm_v = math.hypot(*v.tolist())
    if norm_v == 0.0:
        return None
    alpha = min(-math.hypot(*r.tolist()) / norm_v, -1.0)
    for _ in range(EXTRAPOLATION_BACKTRACKS):
        if alpha == -1.0:
            return None
        trial = y0 - 2.0 * alpha * r + alpha * alpha * v
        slack = _slack(a, trial)
        binary = project_rho(slack, offset)
        # a NaN phi fails the test too
        if _value(trial, slack + binary, binary) >= least:
            return trial, slack
        alpha = 0.5 * (alpha - 1.0)
    return None


def solve(
    a: AssignmentInstance,
    cfg: SolverConfig = SolverConfig(),
    start: DualPoint | None = None,
) -> SolveReport:
    """Run the block-coordinate dual ascent on one assignment instance.

    One round T (1) sets the binarity duals to ``project_rho`` of the slack
    at y, the closed-form maximiser of their separable sub-problems, floored
    at delta = ``FLOOR_SCALE`` * mean |u| (``PROJECTION_OFFSET`` when every
    utility is 0), (2) lands y on the stationary point of the dual with rho
    held fixed (``joint_system``, solved once; least squares when it is
    singular), and (3) evaluates the dual's value and slack once at that
    landing.  The value at a landing is a lower bound of phi there,
    where phi(y) is the dual at rho = ``project_rho`` of y's slack, and the
    next round's value is at least phi, so landing values never fall: T is a
    monotone minorize-maximize map of phi.  A warm ``start`` supplies the
    first y; a cold start's first round takes rho = mean |u| on every option
    (the floor when every utility is 0), whose landing is the least-squares
    fit of the utilities by the constraint columns.

    The rounds run in SQUAREM cycles.  From y0 a cycle lands y1 = T(y0) and
    y2 = T(y1), extrapolates them to y' (``_extrapolate``), keeping y' only
    where phi(y') is at least the y2 landing's value, and lands the
    stabilising round y3 = T(y'), which starts the next cycle; when no y' is
    kept the next cycle starts from y2.  So landing values still never fall,
    and the cycles add no fixed point.  ``max_outer`` counts landings, and
    every landing is tested for the exits, recorded as ``termination``:
    ``converged`` at the first landing whose options of positive slack are
    an exact cover and whose every slack clears its forward rounding error
    (K + N + 1) eps (|u| + A |y|); that cover is the exact optimum (see the
    module docstring); ``stagnation`` after two
    consecutive landings that do not raise the dual value above its best;
    ``budget`` after ``max_outer`` landings; and ``diverged`` when an
    iterate is not finite.  None of them raises.  The converged cover is
    ``certified``; otherwise ``repair_selection`` on the last indicator
    supplies the cover (``repaired``) or none (``unallocated``).  Every
    outcome reports the Lagrangian bound at the last landing, one sum over
    its slack.  A warm ``start`` is read for its choice and cover duals
    only, which may take either sign and may come from another instance on
    the same agents and sub-channels; its binarity duals are never read, as
    the first round sets them.  A start whose choice or cover duals do not
    number the instance's agents and sub-channels raises ValueError before
    any work.

    Nothing is searched before the ascent.  An instance whose footprint
    sizes cannot sum to the band (``OptionLayout.sizes_admit_cover``)
    raises InfeasibleInstanceError before the first round.  When the repair
    finds no cover, the oracle's ``require_cover`` decides: an instance
    with no exact cover at all, whose dual is unbounded, raises its
    InfeasibleInstanceError; one whose sweep would pass the oracle's node
    ceiling, or that has a cover the repair missed, is reported without an
    allocation (``unallocated``).
    """
    n_agents = a.n_agents
    scale = float(np.abs(a.utilities).mean())
    # the binarity floor, in the utilities' units
    offset = FLOOR_SCALE * scale or PROJECTION_OFFSET
    # ``path`` holds the cycle's iterates so far: y0, then the landings y1 and y2
    if start is None:
        # no y before the first landing: the report's duals only if the
        # first binarity step is already not finite
        stacked = np.full(n_agents + a.n_resources, math.nan)
        # a uniform slack of mean |u|, so the first step lands rho there
        slack = np.full(a.n_options, scale)
        path = []
    else:
        got = (len(start.choice_dual), len(start.cover_dual))
        if got != (n_agents, a.n_resources):
            raise ValueError(
                f"warm start has (choice, cover) lengths {got}, the instance needs {(n_agents, a.n_resources)}"
            )
        stacked = np.concatenate([start.choice_dual, start.cover_dual]).astype(float)
        slack = _slack(a, stacked)
        path = [stacked]
    if not a.layout.sizes_admit_cover:
        raise InfeasibleInstanceError(NO_COVER)

    con = a.layout.constraint_matrix
    # no option's slack u - A y sums more than K + N + 1 terms
    rounding = (con.shape[1] + 1) * np.finfo(float).eps
    termination = "budget"
    best_value = -math.inf
    flat_rounds = 0
    outer = 0

    # a slack far beyond its rho squares past float64: the value then reads
    # -inf, which raises no best value
    with np.errstate(over="ignore"):
        while outer < cfg.max_outer:
            outer += 1
            # |slack| maximises each separable 1-D sub-problem on rho > 0, so
            # one step lands every binarity dual; rho >= offset > 0, so its
            # max is finite only where every entry is (a NaN fails it too)
            binary = project_rho(slack, offset)
            if not binary.max() < math.inf:
                termination = "diverged"
                break
            h, rhs = joint_system(a, binary)
            try:
                stacked = np.linalg.solve(h, rhs)
            except np.linalg.LinAlgError:
                stacked = None
            if stacked is None or not np.isfinite(stacked).all():
                # a singular system (no exact cover) has no unique stationary point
                stacked = np.linalg.lstsq(h, rhs)[0]
                if not np.isfinite(stacked).all():
                    termination = "diverged"
                    break
            slack, shifted, dval = _evaluate(a, stacked, binary)
            positive = slack > 0.0
            # the options of positive slack are an exact cover, and every
            # slack clears its forward rounding error, so its sign is exact
            if (
                np.count_nonzero(positive) == n_agents
                and (con.T @ positive == 1.0).all()
                and (np.abs(slack) > rounding * (np.abs(a.utilities) + con @ np.abs(stacked))).all()
            ):
                termination = "converged"
                break
            # no landing lowers the dual (see the docstring), so two in a row
            # that do not raise it can make no further progress
            if dval > best_value:
                best_value, flat_rounds = dval, 0
            else:
                flat_rounds += 1
                if flat_rounds == 2:
                    termination = "stagnation"
                    break
            path.append(stacked)
            if len(path) == 3 and outer < cfg.max_outer:
                jump = _extrapolate(a, *path, dval, offset)
                if jump is None:
                    path = [stacked]  # carry on from y2
                else:
                    # the stabilising landing from y' starts the next cycle
                    stacked, slack = jump
                    path = []

    choice, cover = stacked[:n_agents], stacked[n_agents:]
    d = DualPoint(cover_dual=cover, choice_dual=choice, binary_dual=binary)
    violations: list[str] = []
    if termination == "diverged":
        violations.append("dual iterates diverged to non-finite values")
        frac = np.zeros(a.n_options)
        bound = math.nan
    else:
        frac = shifted / (2.0 * binary)
        # L(y) = sum(min(w + A y, 0)) - sum(y), where w + A y = -slack
        bound = -float(np.maximum(slack, 0.0).sum()) - float(stacked.sum())

    if termination == "converged":
        # options are grouped by agent, so the cover lists them in agent order
        allocation = Allocation(tuple(np.flatnonzero(positive).tolist()))
        outcome = "certified"
    else:
        allocation = repair_selection(a, frac)
        outcome = "unallocated" if allocation is None else "repaired"
    primal = gap = None
    if allocation is None:
        with contextlib.suppress(OracleCeilingError):
            require_cover(a)  # raises where no exact cover exists at all
    else:
        primal = a.value(allocation)
        if math.isfinite(bound):
            gap = primal - bound

    return SolveReport(
        dual_point=d,
        fractional=frac,
        allocation=allocation,
        primal_value=primal,
        dual_value=bound,
        duality_gap=gap,
        outcome=outcome,
        termination=termination,
        outer_iterations=outer,
        violations=violations,
    )

