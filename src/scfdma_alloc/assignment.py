"""Unified one-option-per-agent assignment form with exact sub-channel cover.

Both models reduce to: pick exactly one option per agent, minimising the total
option weight, such that every sub-channel is covered exactly once.  Both
build one ``OptionTable``, and its allowed (user, pattern) entries are the
options, so every option maps back to its entry of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .patterns import OptionTable, PatternSet, read_only


class InfeasibleInstanceError(ValueError):
    """The instance admits no feasible assignment: users without options, or no exact cover."""


@dataclass(frozen=True)
class Allocation:
    """One chosen option index per agent, indexing an AssignmentInstance."""

    option_index: tuple[int, ...]


# Layouts ``to_assignment`` keeps, one per (pattern set, option mask): a
# campaign has at most three masks (sumax's, jamsc's joint and fixed-
# modulation tables), unless a strict power cap masks drop by drop.
LAYOUT_CACHE_SIZE = 8


@dataclass(frozen=True, eq=False)
class OptionLayout:
    """The structure of an option table, shared by every drop with that structure.

    The options are the entries that ``allowed``, a (K, J) mask over the
    catalogue ``patterns``, allows, in user-then-pattern order: option o
    is agent ``agent_of[o]``'s pattern ``pattern_of[o]``.  The layout holds
    what does not depend on the weights, each array built on first use and
    read-only, since one layout serves many instances.  Raises
    InfeasibleInstanceError naming the users that have no option.
    """

    patterns: PatternSet
    allowed: np.ndarray

    def __post_init__(self) -> None:
        allowed = read_only(np.array(self.allowed, dtype=bool))
        if allowed.ndim != 2 or allowed.shape[1] != self.patterns.n_patterns:
            raise ValueError(f"mask of shape {allowed.shape} is not (K, {self.patterns.n_patterns})")
        bare = np.nonzero(~allowed.any(axis=1))[0].tolist()
        if bare:
            raise InfeasibleInstanceError("users without any allowed option: " + ", ".join(map(str, bare)))
        object.__setattr__(self, "allowed", allowed)

    @property
    def n_agents(self) -> int:
        return self.allowed.shape[0]

    @property
    def n_resources(self) -> int:
        return self.patterns.n_subchannels

    @cached_property
    def agent_of(self) -> np.ndarray:
        return read_only(np.nonzero(self.allowed)[0])

    @cached_property
    def pattern_of(self) -> np.ndarray:
        return read_only(np.nonzero(self.allowed)[1])

    @cached_property
    def agent_slices(self) -> tuple[tuple[int, int], ...]:
        stops = np.cumsum(self.allowed.sum(axis=1)).tolist()
        return tuple(zip([0] + stops[:-1], stops))

    @cached_property
    def sizes(self) -> np.ndarray:
        return read_only(self.patterns.sizes[self.pattern_of])

    @cached_property
    def constraint_matrix(self) -> np.ndarray:
        """(n_options, n_agents + n_resources): the choice rows' one-hot, then the block.

        Row o holds option o's 0/1 coefficients in every choice and cover
        constraint: its agent's one-hot, then a 1 on each sub-channel from
        its first (``ends - sizes``) up to ``ends``.  ``constraint_matrix.T
        @ x`` stacks the per-agent choice counts and the per-sub-channel
        cover counts of an indicator ``x``, and ``constraint_matrix @ y``
        prices every option at stacked (choice, cover) duals ``y``.  It is
        the layout's one dense incidence, stored column-major so that its
        transpose is C-contiguous for the Gram product of every landing.
        """
        n_options, lanes = len(self.agent_of), np.arange(self.n_resources)
        firsts, ends = (self.ends - self.sizes)[:, None], self.ends[:, None]
        con = np.zeros((n_options, self.n_agents + self.n_resources), order="F")
        con[np.arange(n_options), self.agent_of] = 1.0
        con[:, self.n_agents :] = (firsts <= lanes) & (lanes < ends)
        return read_only(con)

    @cached_property
    def sizes_admit_cover(self) -> bool:
        """Whether one option per agent can have footprint sizes summing to the band:
        necessary for an exact cover, not sufficient."""
        starts = [lo for lo, _ in self.agent_slices]
        smallest = int(np.minimum.reduceat(self.sizes, starts).sum())
        largest = int(np.maximum.reduceat(self.sizes, starts).sum())
        return smallest <= self.n_resources <= largest

    @cached_property
    def half_colsum_minus_one(self) -> np.ndarray:
        """1/2 * colsum(A) - 1, the weight-free part of the landing's right-hand side."""
        return read_only(0.5 * self.constraint_matrix.sum(axis=0) - 1.0)

    @cached_property
    def ends(self) -> np.ndarray:
        """Each option's last sub-channel, 0 for the empty pattern."""
        return read_only(self.patterns.starts[self.pattern_of] + self.sizes)

    @cached_property
    def spans(self) -> tuple[tuple[int, int, int], ...]:
        """Each option's (agent, first sub-channel, end), 0-based with the end excluded, as Python ints."""
        return tuple(zip(self.agent_of.tolist(), (self.ends - self.sizes).tolist(), self.ends.tolist()))

    @cached_property
    def ending(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """For each sub-channel n = 0..N, the (option, agent, size) of every option ending at n.

        Options are listed in option order, and n = 0 lists the empty options.
        """
        ending: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n_resources + 1)]
        for o, (e, k, size) in enumerate(zip(self.ends.tolist(), self.agent_of.tolist(), self.sizes.tolist())):
            ending[e].append((o, k, size))
        return tuple(map(tuple, ending))

    @cached_property
    def option_at(self) -> np.ndarray:
        """(n_agents, N + 1, N + 1): agent k's option covering exactly n+1..m, or -1.

        Entry [k, n, m] is the option of agent k whose pattern is the block
        of sub-channels n+1..m, and its empty option sits on every diagonal
        cell [k, n, n].
        """
        table = np.full((self.n_agents, self.n_resources + 1, self.n_resources + 1), -1)
        table[self.agent_of, self.ends - self.sizes, self.ends] = np.arange(len(self.agent_of))
        diagonal = np.arange(self.n_resources + 1)
        table[:, diagonal, diagonal] = table[:, :1, 0]
        return read_only(table)


@dataclass(frozen=True)
class AssignmentInstance:
    """Flattened option table of a minimisation assignment problem.

    An instance is its option weights plus the ``OptionLayout`` that holds
    everything else: options are grouped by agent (``agent_slices``), each
    option's block is read from ``sizes`` and the layout's ``ends``, and
    ``constraint_matrix`` stacks the choice and cover incidence.
    ``to_assignment`` and ``with_weights`` share one layout across
    instances.  Raises ValueError when the weights are not one per option
    of the layout.
    """

    weights: np.ndarray
    layout: OptionLayout = field(repr=False)

    def __post_init__(self) -> None:
        if np.shape(self.weights) != self.layout.agent_of.shape:
            raise ValueError(
                f"weights of shape {np.shape(self.weights)} do not match the layout's "
                f"{len(self.layout.agent_of)} options"
            )

    @property
    def n_agents(self) -> int:
        return self.layout.n_agents

    @property
    def n_resources(self) -> int:
        return self.layout.n_resources

    @property
    def agent_of(self) -> np.ndarray:
        return self.layout.agent_of

    @property
    def agent_slices(self) -> tuple[tuple[int, int], ...]:
        return self.layout.agent_slices

    @property
    def n_options(self) -> int:
        return len(self.weights)

    def agent_options(self, agent: int) -> range:
        lo, hi = self.agent_slices[agent]
        return range(lo, hi)

    @property
    def sizes(self) -> np.ndarray:
        return self.layout.sizes

    @cached_property
    def utilities(self) -> np.ndarray:
        """Each option's utility u = -weights, from which the dual subtracts its price."""
        return -self.weights

    @property
    def constraint_matrix(self) -> np.ndarray:
        """The layout's stacked (choice, cover) matrix; see ``OptionLayout``."""
        return self.layout.constraint_matrix

    @cached_property
    def cover_costs(self) -> np.ndarray:
        """(n_agents, N + 1, N + 1): the weight of ``layout.option_at``'s option, inf where none."""
        at = self.layout.option_at
        return read_only(np.where(at >= 0, self.weights[at], math.inf))

    def value(self, allocation: Allocation) -> float:
        """Total weight, summed in agent order (stable for exact comparisons)."""
        total = 0.0
        for o in allocation.option_index:
            total += float(self.weights[o])
        return total

    def selection_vector(self, allocation: Allocation) -> np.ndarray:
        x = np.zeros(self.n_options, dtype=np.int8)
        x[list(allocation.option_index)] = 1
        return x

    def allocation_violations(self, allocation: Allocation) -> list[str]:
        chosen = allocation.option_index
        if len(chosen) != self.n_agents:
            return [f"allocation has {len(chosen)} choices for {self.n_agents} agents"]
        spans = self.layout.spans
        out = [
            f"agent {k} chose option {o} outside its range"
            for k, o in enumerate(chosen)
            if not (0 <= o < self.n_options and spans[o][0] == k)
        ]
        # every agent has exactly one option, so only the cover can fail
        return out or self._violations(chosen)

    def selection_violations(self, selection: np.ndarray) -> list[str]:
        """Violations of a 0/1 option vector: one per agent, exact cover."""
        return self._violations(np.flatnonzero(selection).tolist())

    def _violations(self, options: Sequence[int]) -> list[str]:
        """The agents that do not hold exactly one of ``options``, then the
        sub-channels that they do not cover exactly once."""
        agents, cover, spans = [0] * self.n_agents, [0] * self.n_resources, self.layout.spans
        for o in options:
            k, first, end = spans[o]
            agents[k] += 1
            for n in range(first, end):
                cover[n] += 1
        out = [f"agent {k} selects {c} options" for k, c in enumerate(agents) if c != 1]
        out += [f"sub-channel {n + 1} covered {c} times" for n, c in enumerate(cover) if c != 1]
        return out

    def with_weights(self, weights: np.ndarray) -> "AssignmentInstance":
        return replace(self, weights=np.asarray(weights, dtype=float))  # shares the layout


def to_assignment(table: OptionTable) -> AssignmentInstance:
    """Flatten an option table into the minimisation assignment form.

    The options are the table's allowed entries, at its weights.  Tables
    with the same pattern set and mask share one ``OptionLayout``, of which
    the ``LAYOUT_CACHE_SIZE`` most recently used are kept.  Raises
    InfeasibleInstanceError naming the users that have no option.
    """
    layout = _layout(table.patterns, table.n_users, table.allowed.tobytes())
    return AssignmentInstance(weights=table.weights[table.allowed], layout=layout)


@lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _layout(patterns: PatternSet, n_users: int, mask: bytes) -> OptionLayout:
    """The layout of ``mask``, a (K, J) bool array's bytes."""
    return OptionLayout(patterns, np.frombuffer(mask, dtype=bool).reshape(n_users, patterns.n_patterns))
