"""Unified one-option-per-agent assignment form with exact sub-channel cover.

Both models reduce to: pick exactly one option per agent, minimising the total
option weight, such that every sub-channel is covered exactly once.  Both are
(user, pattern) tables, so every option carries its originating (k, j) tag and
results can be mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .jamsc import JamscInstance
from .patterns import PatternSet
from .sumax import SumaxInstance


class InfeasibleInstanceError(ValueError):
    """The instance admits no feasible assignment (e.g. users without options)."""


@dataclass(frozen=True)
class Allocation:
    """One chosen option index per agent, indexing an AssignmentInstance."""

    option_index: tuple[int, ...]


@dataclass(frozen=True)
class AssignmentInstance:
    """Flattened option table of a minimisation assignment problem.

    Options are grouped by agent (``agent_slices``); ``footprint_matrix`` is
    the (n_resources, n_options) 0/1 cover matrix and ``footprint_masks`` the
    same footprints as int bitmasks.  ``provenance`` holds the (user, pattern)
    tag of every option.
    """

    kind: str
    n_agents: int
    n_resources: int
    weights: np.ndarray
    agent_of: np.ndarray
    agent_slices: tuple[tuple[int, int], ...]
    footprint_matrix: np.ndarray
    footprint_masks: tuple[int, ...]
    provenance: tuple[tuple[int, int], ...]
    patterns: PatternSet

    @property
    def n_options(self) -> int:
        return len(self.weights)

    def agent_options(self, agent: int) -> range:
        lo, hi = self.agent_slices[agent]
        return range(lo, hi)

    @cached_property
    def sizes(self) -> np.ndarray:
        return self.footprint_matrix.sum(axis=0).astype(np.int64)

    @cached_property
    def _option_by_tag(self) -> dict[tuple[int, int], int]:
        return {tag: o for o, tag in enumerate(self.provenance)}

    def option_for(self, tag: tuple[int, int]) -> int:
        try:
            return self._option_by_tag[tag]
        except KeyError:
            raise KeyError(f"no option with tag {tag} (masked or out of range)") from None

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
        out: list[str] = []
        if len(allocation.option_index) != self.n_agents:
            return [f"allocation has {len(allocation.option_index)} choices for {self.n_agents} agents"]
        for k, o in enumerate(allocation.option_index):
            if not (self.agent_slices[k][0] <= o < self.agent_slices[k][1]):
                out.append(f"agent {k} chose option {o} outside its range")
        if out:
            return out
        cover = np.zeros(self.n_resources, dtype=np.int64)
        for o in allocation.option_index:
            cover += self.footprint_matrix[:, o].astype(np.int64)
        for n in np.nonzero(cover != 1)[0]:
            out.append(f"sub-channel {n + 1} covered {int(cover[n])} times")
        return out

    def selection_violations(self, selection: np.ndarray) -> list[str]:
        """Violations of a 0/1 option vector: one per agent, exact cover."""
        out: list[str] = []
        sel = np.asarray(selection)
        per_agent = np.bincount(self.agent_of, weights=sel, minlength=self.n_agents)
        for k in np.nonzero(per_agent != 1)[0]:
            out.append(f"agent {k} selects {int(per_agent[k])} options")
        cover = self.footprint_matrix.astype(np.int64) @ sel.astype(np.int64)
        for n in np.nonzero(cover != 1)[0]:
            out.append(f"sub-channel {n + 1} covered {int(cover[n])} times")
        return out

    def allocation_from_selection(self, selection: np.ndarray) -> Allocation:
        chosen = np.nonzero(selection)[0]
        if len(chosen) != self.n_agents:
            raise ValueError("selection does not pick exactly one option per agent")
        order = np.argsort(self.agent_of[chosen], kind="stable")
        return Allocation(option_index=tuple(int(o) for o in chosen[order]))

    def allocation_from_tags(self, tags: Sequence[tuple[int, int]]) -> Allocation:
        """Build an Allocation from per-agent provenance tags, in agent order."""
        return Allocation(option_index=tuple(self.option_for(tag) for tag in tags))

    def with_weights(self, weights: np.ndarray) -> "AssignmentInstance":
        if weights.shape != self.weights.shape:
            raise ValueError("replacement weights must keep the option count")
        return replace(self, weights=np.asarray(weights, dtype=float))


def to_assignment(instance: SumaxInstance | JamscInstance) -> AssignmentInstance:
    """Flatten a model instance into the minimisation assignment form.

    Both models are (K, J) tables: options are the allowed (user, pattern)
    entries in user-then-pattern order, each tagged (k, j).  sumax allows
    every pattern, the empty one included, at weight -utility; jamsc allows
    its unmasked entries at weight cost.  Raises InfeasibleInstanceError
    naming the users that have no option.
    """
    if isinstance(instance, SumaxInstance):
        kind, weights = "sumax", -instance.utilities
        allowed = np.ones(weights.shape, dtype=bool)
    elif isinstance(instance, JamscInstance):
        kind, weights, allowed = "jamsc", instance.costs, instance.allowed
    else:
        raise TypeError(f"cannot convert {type(instance).__name__} to an assignment instance")
    counts = allowed.sum(axis=1)
    if not counts.all():
        raise InfeasibleInstanceError(
            "users without any allowed option: "
            + ", ".join(str(k) for k in np.nonzero(counts == 0)[0].tolist())
        )
    patterns = instance.patterns
    k_idx, j_idx = np.nonzero(allowed)
    stops = np.cumsum(counts).tolist()
    return AssignmentInstance(
        kind=kind,
        n_agents=instance.n_users,
        n_resources=patterns.n_subchannels,
        weights=weights[k_idx, j_idx],
        agent_of=k_idx.astype(np.int64),
        agent_slices=tuple(zip([0] + stops[:-1], stops)),
        footprint_matrix=patterns.matrix[:, j_idx].astype(np.float64),
        footprint_masks=tuple(patterns.bitmasks[j] for j in j_idx.tolist()),
        provenance=tuple(zip(k_idx.tolist(), j_idx.tolist())),
        patterns=patterns,
    )
