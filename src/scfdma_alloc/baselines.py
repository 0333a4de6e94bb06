"""Reference allocators: exhaustive oracle, marginal-gain greedy, round robin."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .assignment import Allocation, AssignmentInstance
from .sumax import SumaxInstance


class OracleCeilingError(RuntimeError):
    """The exhaustive search refused to continue past its node ceiling."""


class InfeasibleAllocationError(ValueError):
    """No feasible assignment exists for the given instance or geometry."""


def _runs(mask: int) -> int:
    return (mask & ~(mask << 1)).bit_count()


def exact_cover_search(
    a: AssignmentInstance, order: Sequence[Sequence[int]], node_cap: int
) -> tuple[list[int] | None, float, bool]:
    """Depth-first search for the minimum-weight exact cover, one option per agent.

    Agents are expanded in index order and agent k's options are tried in
    ``order[k]``.  Prunes on footprint conflicts, on remaining coverable area,
    on the number of free runs left per remaining agent, and on an optimistic
    weight bound; checks exact cover at the leaves.  A cover replaces the
    incumbent only when strictly lighter (weights summed at full precision),
    so ties keep the first cover found in ``order``.  The search stops once
    more than ``node_cap`` partial nodes have been expanded.  Returns the best
    option list found (or None), its total weight, and whether the cap
    stopped the search.
    """
    n_agents = a.n_agents
    full = (1 << a.n_resources) - 1
    masks = a.footprint_masks
    weights = a.weights.tolist()
    sizes = a.sizes

    min_size = np.array([min(sizes[o] for o in a.agent_options(k)) for k in range(n_agents)])
    suffix_min_size = np.concatenate([np.cumsum(min_size[::-1])[::-1], [0]])
    min_w = np.array([min(a.weights[o] for o in a.agent_options(k)) for k in range(n_agents)])
    suffix_min_w = np.concatenate([np.cumsum(min_w[::-1])[::-1], [0.0]])

    best_value = math.inf
    best_path: list[int] | None = None
    path: list[int] = []
    nodes = 0

    def dfs(k: int, used: int, acc: float) -> None:
        nonlocal best_value, best_path, nodes
        if k == n_agents:
            if used == full and acc < best_value:
                best_value = acc
                best_path = path.copy()
            return
        if acc + suffix_min_w[k] >= best_value:
            return
        free = full & ~used
        if free.bit_count() < suffix_min_size[k]:
            return
        if _runs(free) > n_agents - k:
            return
        for o in order[k]:
            m = masks[o]
            if m & used:
                continue
            nodes += 1
            if nodes > node_cap:
                return  # each open frame returns at its next expansion
            path.append(o)
            dfs(k + 1, used | m, acc + weights[o])
            path.pop()

    dfs(0, 0, 0.0)
    return best_path, best_value, nodes > node_cap


def brute_force(a: AssignmentInstance, node_ceiling: int = 10**8) -> tuple[Allocation, float]:
    """Exact minimiser by depth-first enumeration over per-agent options.

    Runs ``exact_cover_search`` with each agent's options in index order, so
    ties break to the lexicographically smallest option sequence.  Raises
    OracleCeilingError once more than ``node_ceiling`` partial nodes have
    been expanded: an explicit refusal, never a wrong answer.
    """
    order = [a.agent_options(k) for k in range(a.n_agents)]
    best_path, best_value, capped = exact_cover_search(a, order, node_ceiling)
    if capped:
        raise OracleCeilingError(
            f"exhaustive search exceeded the node ceiling ({node_ceiling})"
        )
    if best_path is None:
        raise InfeasibleAllocationError("no exact-cover assignment exists for this instance")
    return Allocation(option_index=tuple(best_path)), best_value


def greedy(instance: SumaxInstance) -> tuple[int, ...]:
    """Grow per-user contiguous blocks one sub-channel at a time.

    Each step grants the single free sub-channel with the best marginal
    utility over all users, seeding a new block or extending an existing one
    at either edge; ties go to the lowest user then the lowest sub-channel.
    Runs until every sub-channel is assigned, so the result is always a
    feasible exact cover.  Returns one pattern index per user.
    """
    pats = instance.patterns
    n_sub = pats.n_subchannels
    n_users = instance.n_users
    util = instance.utilities
    free = [True] * (n_sub + 1)
    blocks: list[tuple[int, int] | None] = [None] * n_users

    for _ in range(n_sub):
        best: tuple[float, int, int, tuple[int, int]] | None = None
        for k in range(n_users):
            blk = blocks[k]
            if blk is None:
                current = 0.0
                candidates = [(n, (n, 1)) for n in range(1, n_sub + 1) if free[n]]
            else:
                start, length = blk
                current = float(util[k, pats.index_of(start, length)])
                candidates = []
                if start > 1 and free[start - 1]:
                    candidates.append((start - 1, (start - 1, length + 1)))
                if start + length <= n_sub and free[start + length]:
                    candidates.append((start + length, (start, length + 1)))
            for n_new, blk_new in candidates:
                delta = float(util[k, pats.index_of(*blk_new)]) - current
                if best is None or delta > best[0]:
                    best = (delta, k, n_new, blk_new)
        assert best is not None  # a free sub-channel always has an adjacent grower
        _, k, n_new, blk_new = best
        blocks[k] = blk_new
        free[n_new] = False

    return tuple(pats.index_of(*blk) if blk else pats.EMPTY for blk in blocks)


def round_robin(n_users: int, n_subchannels: int) -> tuple[tuple[int, ...], ...]:
    """Equal consecutive blocks in user order; first N mod K users get one extra.

    Returns per-user tuples of 1-based sub-channel indices.  Requires
    n_users <= n_subchannels so every user receives at least one sub-channel.
    """
    if n_users < 1 or n_subchannels < 1:
        raise ValueError("n_users and n_subchannels must be >= 1")
    if n_users > n_subchannels:
        raise InfeasibleAllocationError(
            f"round robin needs n_users <= n_subchannels, got {n_users} > {n_subchannels}"
        )
    base, extra = divmod(n_subchannels, n_users)
    out = []
    nxt = 1
    for k in range(n_users):
        length = base + (1 if k < extra else 0)
        out.append(tuple(range(nxt, nxt + length)))
        nxt += length
    return tuple(out)
