import random

import pytest

from twistlab import verify
from twistlab.verify import check_quotient_center, run_all

LEVEL_2_CHECKS = {
    "ring.level_embedding_hom",
    "center.commutator_vs_structural",
    "center.free_module_round_trip",
    "center.lattice_nesting",
    "simplicity.ascends_for_central_elements",
    "pi.frontier_rises_with_level",
    "quotient.center_collapses_to_base",
}


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (5, 5)])
def test_run_all_at_kmax_1_skips_and_never_passes_vacuously(p, q):
    results = run_all(p, q, 2, 1, 0)
    assert not [r for r in results if r.passed is False]
    assert not [r for r in results if "no higher level" in r.detail]
    skipped = [r for r in results if r.passed is None]
    assert all(r.detail.startswith("not run: ") for r in skipped)
    assert {r.name for r in skipped} >= LEVEL_2_CHECKS
    # the level-1 rows of the two level-2 names still run
    ran = {r.name for r in results if r.passed is True}
    assert {"center.commutator_vs_structural", "center.free_module_round_trip"} <= ran


@pytest.mark.parametrize("trials", [0, -5])
def test_run_all_refuses_no_trials_before_building_anything(monkeypatch, trials):
    def refuse(*args, **kwargs):
        raise AssertionError("built a tower")

    monkeypatch.setattr(verify, "build_tower", refuse)
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        run_all(2, 2, 1, 1, 0, trials=trials)


def test_quotient_center_check_fails_on_a_wrong_exit_level(ctx_n1_k1, monkeypatch):
    # each tested element is probed on both sides of its exit level, so an
    # exit level one too high is caught
    assert check_quotient_center(ctx_n1_k1, random.Random(0), 20).passed is True
    exact = verify.exit_level
    monkeypatch.setattr(
        verify, "exit_level", lambda z: None if exact(z) is None else exact(z) + 1)
    result = check_quotient_center(ctx_n1_k1, random.Random(0), 20)
    assert result.passed is False
    assert not result.detail.endswith(" 0 failures")


def test_quotient_center_check_fails_on_a_probe_that_always_commutes(ctx_n1_k1,
                                                                     monkeypatch):
    # the "not central at the exit level" side is checked, not only the
    # "central below it" side
    monkeypatch.setattr(verify, "center_of_quotient_test", lambda f, level: True)
    assert check_quotient_center(ctx_n1_k1, random.Random(0), 20).passed is False
