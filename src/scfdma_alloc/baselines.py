"""Reference allocators: exact subset-DP oracle, marginal-gain greedy, round robin."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .assignment import Allocation, AssignmentInstance, InfeasibleInstanceError
from .patterns import read_only


class OracleCeilingError(RuntimeError):
    """The exact oracle refused to continue past its node ceiling."""


class InfeasibleAllocationError(ValueError):
    """Greedy or round robin could not allocate; an exact cover may still exist."""


# The node ceiling of the subset program, for the oracle and the dual's
# no-cover test alike; it admits K=12, N=24.
NODE_CEILING = 10**8
# The refusal of an instance that has no exact cover (InfeasibleInstanceError).
NO_COVER = "no exact-cover assignment exists for this instance"


def cover_sweep(a: AssignmentInstance, node_ceiling: int = NODE_CEILING) -> np.ndarray:
    """Forward sweep of the subset program over ``a.cover_costs``: its table ``f``.

    ``f[n, S]`` is the lightest assignment of the agents in S that covers
    sub-channels 1..n exactly (see ``brute_force``); ``f[N, all]`` is
    infinite exactly when no exact cover exists.  Raises OracleCeilingError,
    before any work, when the sweep's 2^(K-1) * n_options relaxations exceed
    ``node_ceiling``.

    Sub-channel n takes one step per block of agents (``_sweep_blocks``):
    each agent k's block n'+1..n relaxes every state after every cover of
    1..n' at once, and one gather of "T without k" (an inf cell where T
    lacks k) folds the block into ``f[n]`` by a min over agents.  Each step
    holds at most max(SWEEP_BUDGET, N * 2^K) elements besides the table.
    """
    n_agents, n_res = a.n_agents, a.n_resources
    n_states = 1 << n_agents
    relaxations = (n_states >> 1) * a.n_options
    if relaxations > node_ceiling:
        raise OracleCeilingError(
            f"subset program needs {relaxations} relaxations, over the node ceiling ({node_ceiling})"
        )
    cost = a.cover_costs
    # column n_states stays inf: the cell a state without agent k reads
    f = np.full((n_res + 1, n_states + 1), math.inf)
    f[0, 0] = 0.0
    for k in range(n_agents):
        # the states with highest agent k extend those below it: agent-order sums
        f[0, 1 << k : 2 << k] = f[0, : 1 << k] + cost[k, 0, 0]
    blocks = _sweep_blocks(n_agents, n_res)
    for n in range(1, n_res + 1):
        row = f[n, :n_states]
        for lo, hi, index in blocks:
            # agent k's block n'+1..n after a cover of 1..n', for every n' and state
            lightest = np.minimum.reduce(cost[lo:hi, :n, n, None] + f[:n], axis=1)
            np.minimum(row, np.minimum.reduce(lightest.take(index)), out=row)
    return f[:, :n_states]


def require_cover(a: AssignmentInstance, node_ceiling: int = NODE_CEILING) -> np.ndarray:
    """``cover_sweep``'s table, after refusing an instance with no exact cover.

    Raises InfeasibleInstanceError (``NO_COVER``) where ``f[N, all]`` is
    infinite, and OracleCeilingError as ``cover_sweep`` does.
    """
    f = cover_sweep(a, node_ceiling)
    if f[-1, -1] == math.inf:
        raise InfeasibleInstanceError(NO_COVER)
    return f


# Elements a step of ``cover_sweep`` may hold: its agents' (agents, n, 2^K)
# relaxations, one agent's at least.
SWEEP_BUDGET = 1 << 16


@lru_cache(maxsize=4)
def _sweep_blocks(n_agents: int, n_res: int) -> tuple[tuple[int, int, np.ndarray], ...]:
    """``cover_sweep``'s agent blocks [lo, hi) and each one's gather index.

    Entry [k - lo, T] of a block's index is the flat cell of state T without
    agent k in its (hi - lo, 2^K + 1) relaxations, or of the inf column
    where T lacks k.
    """
    n_states = 1 << n_agents
    per_block = max(1, SWEEP_BUDGET // (n_res * n_states))
    states = np.arange(n_states)
    bits = 1 << np.arange(n_agents)[:, None]
    without = np.where(states & bits, states ^ bits, n_states)
    blocks = []
    for lo in range(0, n_agents, per_block):
        hi = min(lo + per_block, n_agents)
        index = without[lo:hi] + (n_states + 1) * np.arange(hi - lo)[:, None]
        blocks.append((lo, hi, read_only(index)))
    return tuple(blocks)


def brute_force(a: AssignmentInstance, node_ceiling: int = NODE_CEILING) -> tuple[Allocation, float]:
    """Exact minimiser by a Held-Karp program over agent subsets.

    Every option is one contiguous block of sub-channels or the empty
    footprint.  ``f[n, S]`` is the lightest assignment of the agents in S that
    covers sub-channels 1..n exactly: the agents of S without a block in 1..n
    take their empty option, summed in agent order into ``f[0, S]``, and the
    blocks follow in sub-channel order.  Sweeping n upwards (``cover_sweep``),
    every option ending at n relaxes ``f[n, S] <- f[n - size, S ^ bit(k)] + w``
    for all S holding its agent k at once, so the sweep makes
    2^(K-1) * n_options relaxations instead of enumerating option tuples.
    ``f[N, all]`` is infinite exactly when no exact cover exists, which
    ``require_cover`` refuses with InfeasibleInstanceError.

    The answer keeps the exhaustive semantics: the least ``a.value`` (the
    weights summed in agent order), ties going to the smallest option tuple.
    Float addition is monotone, so ``f`` holds the least sub-channel-order
    sum D(C) over covers C exactly, but D(C) and V(C) = ``a.value`` round the
    same K weights in different orders.  Recursive summation of K terms is
    within g = (K-1)u / (1 - (K-1)u) * sum|w| of the exact sum (u = 2^-53),
    and sum|w| <= W = sum_k max_o |w_o|, so |D(C) - V(C)| <= 2gW for every
    cover.  For the V-minimiser C* and the D-minimiser C_D:
    D(C*) <= V(C*) + 2gW <= V(C_D) + 2gW <= D(C_D) + 4gW.  A backtrack through
    ``f`` therefore visits every cover with D(C) <= f[N, all] + 4KuW (K for
    K-1 absorbs g's denominator and the rounding of the threshold), values
    each with ``a.value`` and keeps a running best.  The extension of a
    partial cover is pruned by the least D through it, which monotonicity
    makes exact, so the visited covers are exactly those under the threshold.

    Raises OracleCeilingError, before any work, when the relaxations exceed
    ``node_ceiling``, and during the backtrack once more than ``node_ceiling``
    partial covers have been visited: an explicit refusal, never a wrong
    answer.
    """
    f = require_cover(a, node_ceiling)
    n_agents, n_res = a.n_agents, a.n_resources
    n_states = 1 << n_agents
    weights = a.weights.tolist()
    ending = a.layout.ending
    total = f.item(n_res, n_states - 1)
    firsts = [lo for lo, _ in a.agent_slices]
    scale = float(np.maximum.reduceat(np.abs(a.weights), firsts).sum())
    threshold = total + 4 * n_agents * 2.0**-53 * scale
    chosen = [0] * n_agents
    suffix: list[float] = []  # weights of the blocks right of the current state, nearest last
    best: tuple[float, tuple[int, ...]] | None = None
    visits = 0

    def least_total(prefix: float) -> float:
        for w in reversed(suffix):
            prefix += w
        return prefix

    def count_visit() -> None:
        nonlocal visits
        visits += 1
        if visits > node_ceiling:
            raise OracleCeilingError(
                f"near-tie backtrack exceeded the node ceiling ({node_ceiling})"
            )

    def visit(state: int, n: int) -> None:
        nonlocal best
        if n == 0:
            # the parent's test summed f[0, state], this leaf's empty options in
            # agent order, with the same suffix: it is finite and under the threshold
            count_visit()
            for o, k, _ in ending[0]:
                if state >> k & 1:
                    chosen[k] = o
            value = 0.0  # ``a.value``: the weights summed in agent order
            for o in chosen:
                value += weights[o]
            key = (value, tuple(chosen))
            if best is None or key < best:
                best = key
            return
        for o, k, size in ending[n]:
            if not state >> k & 1:
                continue
            rest = state ^ (1 << k)
            if least_total(f.item(n - size, rest) + weights[o]) > threshold:
                continue
            count_visit()
            chosen[k] = o
            suffix.append(weights[o])
            visit(rest, n - size)
            suffix.pop()

    visit(n_states - 1, n_res)
    assert best is not None  # the cover attaining f[N, all] is always visited
    return Allocation(option_index=best[1]), best[0]


def greedy(a: AssignmentInstance) -> Allocation:
    """Grow per-agent contiguous blocks one sub-channel at a time.

    Each step grants the single free sub-channel with the least marginal
    weight over all agents (``a.cover_costs``), seeding a new block at the
    block's own weight or extending an existing one at either edge; ties go
    to the lowest agent then the lowest sub-channel.  Runs until every
    sub-channel is assigned, and an agent left without a block takes its
    empty option.  Raises InfeasibleAllocationError when a block so grown,
    or an empty option so taken, is not one of the agent's options.
    """
    n_sub = a.n_resources
    cost = a.cover_costs.tolist()
    free = [True] * (n_sub + 1)
    # blocks[k]: agent k's block n+1..m as (n, m)
    blocks: list[tuple[int, int] | None] = [None] * a.n_agents

    for _ in range(n_sub):
        best: tuple[float, int, int, tuple[int, int]] | None = None
        for k, blk in enumerate(blocks):
            if blk is None:
                current = 0.0
                candidates = [(c, (c - 1, c)) for c in range(1, n_sub + 1) if free[c]]
            else:
                n, m = blk
                current = cost[k][n][m]
                candidates = []
                if n > 0 and free[n]:
                    candidates.append((n, (n - 1, m)))
                if m < n_sub and free[m + 1]:
                    candidates.append((m + 1, (n, m + 1)))
            for c, (n, m) in candidates:
                delta = cost[k][n][m] - current
                if best is None or delta < best[0]:
                    best = (delta, k, c, (n, m))
        assert best is not None  # a free sub-channel always has an adjacent grower
        _, k, c, blocks[k] = best
        free[c] = False

    at = a.layout.option_at
    spans = [blk or (0, 0) for blk in blocks]
    options = tuple(int(at[k, n, m]) for k, (n, m) in enumerate(spans))
    if min(options) < 0:
        raise InfeasibleAllocationError("greedy grew a block that is not one of its agent's options")
    return Allocation(option_index=options)


def round_robin(a: AssignmentInstance) -> Allocation:
    """Equal consecutive blocks in agent order; the first N mod K agents get one extra.

    Each agent takes its option on its block.  Raises
    InfeasibleAllocationError when there are more agents than sub-channels,
    so some agent would get none, or when an agent has no option on its
    block.
    """
    n_users, n_subchannels = a.n_agents, a.n_resources
    if n_users > n_subchannels:
        raise InfeasibleAllocationError(
            f"round robin needs n_users <= n_subchannels, got {n_users} > {n_subchannels}"
        )
    base, extra = divmod(n_subchannels, n_users)
    options = []
    end = 0
    for k in range(n_users):
        start, end = end, end + base + (k < extra)
        o = int(a.layout.option_at[k, start, end])
        if o < 0:
            raise InfeasibleAllocationError(
                f"user {k} has no option on its round-robin block of sub-channels {start + 1}..{end}"
            )
        options.append(o)
    return Allocation(option_index=tuple(options))
