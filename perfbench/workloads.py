"""The benchmark's workloads: one campaign configuration each.

Every workload is a closed loop: one process issues drops one after another
through ``harness.run_campaign``, drop i of a campaign using seed
``base_seed + i``.  Campaigns run in fixed-size batches so that a run can stop
after its time budget; batch b starts where batch b-1 ended.
"""

from __future__ import annotations

from dataclasses import dataclass

from scfdma_alloc.channel import ScenarioConfig
from scfdma_alloc.harness import CampaignConfig


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    n_users: int
    n_subchannels: int
    allocators: tuple[str, ...]
    primary: str  # the dual allocator whose quality is reported
    batch_drops: int  # drops per run_campaign call

    @property
    def oracle(self) -> str | None:
        return next((a for a in self.allocators if a.startswith("oracle")), None)

    def campaign(self, base_seed: int, n_drops: int, out_dir: str) -> CampaignConfig:
        kw = {"allocators_sumax" if self.problem == "sumax" else "allocators_jamsc": self.allocators}
        return CampaignConfig(
            scenario=ScenarioConfig(n_users=self.n_users, n_subchannels=self.n_subchannels),
            problem=self.problem,
            n_drops=n_drops,
            base_seed=base_seed,
            out_dir=out_dir,
            **kw,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sumax-paper",
            problem="sumax", n_users=4, n_subchannels=8,
            allocators=("dual", "oracle", "greedy", "round_robin"),
            primary="dual", batch_drops=50,
        ),
        Workload(
            name="jamsc-paper",
            problem="jamsc", n_users=4, n_subchannels=8,
            allocators=("dual_am", "dual_fixed", "oracle_am", "round_robin"),
            primary="dual_am", batch_drops=10,
        ),
        Workload(
            name="sumax-scale",
            problem="sumax", n_users=12, n_subchannels=24,
            allocators=("dual", "greedy", "round_robin"),
            primary="dual", batch_drops=1,
        ),
    )
}
