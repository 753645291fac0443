import json
import random

import pytest

from twistlab import pi, ring, verify
from twistlab.cli import main
from twistlab.errors import BudgetError, InternalFaultError, NotAUnitError
from twistlab.ring import RingElement, _from_codes
from twistlab.verify import CheckResult, check_quotient_center, run_all

LEVEL_2_CHECKS = {
    "ring.level_embedding_hom",
    "center.commutator_vs_structural@2",
    "center.free_module_round_trip@2",
    "center.lattice_nesting",
    "simplicity.ascends_for_central_elements",
    "pi.frontier_rises_with_level",
    "quotient.center_collapses_to_base",
}


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (5, 5), (7, 7)])
def test_run_all_at_kmax_1_skips_and_never_passes_vacuously(p, q):
    results = run_all(p, q, 2, 1, 0)
    assert not [r for r in results if r.passed is False]
    assert not [r for r in results if "no higher level" in r.detail]
    skipped = [r for r in results if r.passed is None]
    assert all(r.detail.startswith("not run: ") for r in skipped)
    assert {r.name for r in skipped} >= LEVEL_2_CHECKS
    # the level-1 runs of the two checks that also run at level 2 still run
    ran = {r.name for r in results if r.passed is True}
    assert {"center.commutator_vs_structural", "center.free_module_round_trip"} <= ran


def test_run_all_in_odd_characteristic_at_level_2_has_no_fail_row():
    # (3, 3): the level-2 field GF(3^9) is built through its Zech tables
    results = run_all(3, 3, 2, 2, 0)
    assert [r for r in results if r.passed is False] == []


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


def test_quotient_center_row_fails_on_a_claimed_exit_past_k_max(monkeypatch):
    # at k_max = 2 an exit level one too high puts every claimed exit past
    # k_max; a draw that really leaves the center at level 2 is caught there
    exact = verify.exit_level
    monkeypatch.setattr(
        verify, "exit_level", lambda z: None if exact(z) is None else exact(z) + 1)
    rows = {r.name: r for r in run_all(2, 2, 2, 2, 0)}
    assert rows["quotient.center_collapses_to_base"].passed is False


def test_a_faulting_check_is_a_fail_row_and_the_other_rows_run(monkeypatch,
                                                               tmp_path, capsys):
    clean = run_all(2, 2, 1, 1, 0, trials=20)

    def fault(ctx):
        raise InternalFaultError("planted")

    monkeypatch.setattr(verify, "check_ring_commutation_rule", fault)
    faulted = run_all(2, 2, 1, 1, 0, trials=20)
    assert [r.name for r in faulted] == [r.name for r in clean]
    failed = CheckResult("ring.commutation_rule", False,
                         "internal consistency fault: planted")
    assert [r for r in faulted if r not in clean] == [failed]
    # the CLI writes the full report and exits 1
    out = tmp_path / "out.json"
    argv = ["verify-all", "--n", "1", "--kmax", "1", "--trials", "20"]
    assert main(argv + ["--out", str(out)]) == 1
    checks = json.loads(out.read_text())["result"]["checks"]
    assert checks == [r.to_json_dict() for r in faulted]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == len(clean)
    assert [ln for ln in err if ln.startswith("FAIL")] == [
        "FAIL  ring.commutation_rule: internal consistency fault: planted"]


def test_a_check_raising_another_defect_error_is_a_fail_row(monkeypatch, tmp_path):
    clean = run_all(2, 2, 1, 1, 0, trials=20)

    def planted(self):
        raise NotAUnitError("planted")

    monkeypatch.setattr(RingElement, "invert_unit", planted)
    faulted = run_all(2, 2, 1, 1, 0, trials=20)
    assert [r.name for r in faulted] == [r.name for r in clean]
    assert [r for r in faulted if r.passed is False] == [
        CheckResult("ring.graded_division_units", False, "NotAUnitError: planted")]
    # the CLI writes the full report and exits 1
    out = tmp_path / "out.json"
    argv = ["verify-all", "--n", "1", "--kmax", "1", "--trials", "20", "--out", str(out)]
    assert main(argv) == 1
    assert json.loads(out.read_text())["result"]["checks"] == [
        r.to_json_dict() for r in faulted]


def test_a_budget_refusal_inside_a_check_still_aborts_the_batch(monkeypatch, capsys):
    def refuse(ctx):
        raise BudgetError("planted")

    monkeypatch.setattr(verify, "check_ring_commutation_rule", refuse)
    with pytest.raises(BudgetError, match="planted"):
        run_all(2, 2, 1, 1, 0, trials=20)
    assert main(["verify-all", "--n", "1", "--kmax", "1", "--trials", "20"]) == 2
    assert capsys.readouterr().err == "error: planted\n"


def splitting_row():
    rows = {r.name: r for r in run_all(2, 2, 1, 1, 0, trials=20)}
    return rows["quotient.splitting_representation_hom"]


def test_splitting_representation_row_fails_on_a_zero_determinant(monkeypatch):
    # the row checks that a nonzero element has an invertible matrix, not only
    # that the representation is multiplicative
    monkeypatch.setattr(verify, "_bareiss", lambda F, add, mul, matrix, rhs=None: ({}, None))
    assert splitting_row().passed is False


def test_splitting_representation_row_fails_on_an_untwisted_ring_product(monkeypatch):
    # rho is built from the twist rule alone, so a ring product that drops
    # sigma_g no longer matches rho(r) rho(s)
    def untwisted(ctx, left, right, out):
        level = ctx.level
        for g, c in left.items():
            for h, d in right.items():
                w = ctx.add_words(g, h)
                out[w] = level.add(out.get(w, 0), level.mul(c, d))
        return out

    assert splitting_row().passed is True
    monkeypatch.setattr(ring, "_mul_codes", untwisted)
    row = splitting_row()
    assert row.passed is False and row.detail.startswith("10 random pairs, ")


def test_splitting_representation_row_fails_without_the_inverse_twist(monkeypatch):
    # entry (i, j) of rho(s) carries sigma_(w_i)^(-1)(c); undoing it breaks
    # both the product rule and the read-back of column 0
    rho = verify.splitting_representation

    def dropped(s, lat):
        ctx = s.ctx
        return [[{v: ctx.level.frob_code(c, ctx.word_exponent(wi)) for v, c in e.items()}
                 for e in row] for wi, row in zip(lat.box_representatives(), rho(s, lat))]

    monkeypatch.setattr(verify, "splitting_representation", dropped)
    assert splitting_row().passed is False


def level_2_rows(trials=20):
    return {r.name: r for r in run_all(2, 2, 2, 2, 0, trials=trials)}


def test_center_rows_fail_when_everything_passes_as_central(monkeypatch):
    # the commutator test is the witness of the structural one: claiming every
    # element central disagrees with it on the random draws, at both levels
    rows = ("center.commutator_vs_structural", "center.commutator_vs_structural@2")
    assert all(level_2_rows()[name].passed is True for name in rows)
    monkeypatch.setattr(verify, "is_central", lambda r: True)
    failed = level_2_rows()
    assert [failed[name].passed for name in rows] == [False, False]


def test_pi_frontier_row_fails_when_high_degrees_vanish(monkeypatch):
    # S_6 is no identity of the level-2 ring (2 p^2 = 8), so a standard
    # polynomial that vanishes past degree 4 moves the frontier down
    name = "pi.frontier_rises_with_level"
    assert level_2_rows()[name].passed is True
    exact = pi.standard_polynomial

    def zeroed(elements):
        value = exact(elements)
        return value - value if len(elements) > 4 else value

    monkeypatch.setattr(pi, "standard_polynomial", zeroed)
    assert level_2_rows()[name].passed is False


EXACT = {name: getattr(verify, name) for name in (
    "parse_element", "standard_polynomial", "action_exponent", "decompose_over_center")}


def _drop_last_term(ctx, text):
    codes = dict(EXACT["parse_element"](ctx, text).codes)
    codes.popitem()
    return _from_codes(ctx, codes)


def _off_by_one_on_odd_first_entry(config, word, k):
    # mod 2 this is another homomorphism, so the row needs level 2 to see it
    return (EXACT["action_exponent"](config, word, k) + word[0] % 2) % config.p**k


def _last_coordinate_zeroed(r, basis, lattice):
    return EXACT["decompose_over_center"](r, basis, lattice)[:-1] + [r.ctx.zero()]


# a planted defect in the layer a row checks fails that row, and the batch runs on
@pytest.mark.parametrize("name,defect,rows", [
    ("parse_element", _drop_last_term, ["ring.literal_round_trip"]),
    ("standard_polynomial", lambda args: EXACT["standard_polynomial"](args) + args[0],
     ["pi.multilinear_alternating"]),
    ("action_exponent", _off_by_one_on_odd_first_entry,
     ["action.homomorphism_and_compatibility"]),
    ("decompose_over_center", _last_coordinate_zeroed,
     ["center.free_module_round_trip", "center.free_module_round_trip@2"]),
], ids=["literal-drops-its-last-term", "standard-polynomial-adds-its-first-argument",
        "exponent-off-by-one-on-odd-first-entries", "decomposition-zeroes-its-last"])
def test_a_planted_defect_fails_its_row(name, defect, rows, monkeypatch):
    assert all(level_2_rows()[row].passed is True for row in rows)
    monkeypatch.setattr(verify, name, defect)
    failed = level_2_rows()
    assert [failed[row].passed for row in rows] == [False] * len(rows)
