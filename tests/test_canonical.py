import numpy as np
import pytest

from scfdma_alloc import canonical, dual
from scfdma_alloc.harness import sumax_assignment_for_seed


def reference_outputs(a, d, selection):
    """Everything ``canonical`` computes at one dual point, as plain values."""
    gap = canonical.diagnose_gap(a, d, selection=selection)
    return (
        canonical.dual_value(a, d),
        *canonical.dual_gradient(a, d),
        canonical.recover_indicator(a, d),
        canonical.xi_value(a, selection, d),
        gap.theta,
        gap.modified_utilities,
        gap.implied_selection,
        canonical.gradient_check([a], points_per_instance=2),
    )


def test_the_reference_runs_none_of_the_solvers_round(monkeypatch):
    # the acceptance tests check the solver against this module, so it must
    # give the same bits when every helper of the round is broken
    a = sumax_assignment_for_seed(2, 5, 5001)
    rep = dual.solve(a)
    assert not rep.certified  # a point where the selection and the indicator disagree
    selection = a.selection_vector(rep.allocation)
    rng = np.random.default_rng(7)
    points = [rep.dual_point, canonical.DualPoint(
        cover_dual=rng.normal(size=a.n_resources), choice_dual=rng.normal(size=a.n_agents),
        binary_dual=rng.uniform(0.5, 2.0, a.n_options),
    )]
    before = [reference_outputs(a, d, selection) for d in points]

    def broken(*args, **kwargs):
        raise AssertionError("the reference called the solver's round")

    for name in ("_evaluate", "_value", "_slack", "joint_system"):
        monkeypatch.setattr(dual, name, broken)
    with pytest.raises(AssertionError, match="solver's round"):
        dual.solve(a)  # the patches do break the solver
    after = [reference_outputs(a, d, selection) for d in points]
    for was, now in zip(before, after):
        assert len(was) == len(now)
        for x, y in zip(was, now):
            if isinstance(x, dict):
                assert x == y
            else:
                assert np.array_equal(x, y)
    # perfbench's layer trace probes ``dual.diagnose_gap``
    assert dual.diagnose_gap is canonical.diagnose_gap

