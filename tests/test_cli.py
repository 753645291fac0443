import hashlib
import json

import pytest

from twistlab import quotient
from twistlab.action import default_action
from twistlab.cli import build_parser, main


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# SHA-256 of the stderr of pinned runs, keyed by argv; any other pinned run
# writes nothing there
STDERR_GOLDENS = {
    "pi-test --k 2 --degree 8 --trials 20":
        "1103e3c482afff21c71cbd44f60182ffa4be28e1e8bb6c05a82d8eacb4200b79",
    "pi-test --p 3 --n 1 --k 1 --degree 4 --trials 30 --seed 5":
        "dc991856dd7861491a0a46526332e226c4cb65266072c838fcdd09a57965ab78",
    "verify-all --n 2 --kmax 2":
        "b9a925b1807ebe966a4a2a7c1b73ce7f421b96b75908df07248f9fe70431117b",
}


def pinned_stdout_digest(capsys, argv) -> str:
    """SHA-256 of a successful run's stdout, its stderr checked on the way."""
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert _sha256(captured.err) == STDERR_GOLDENS.get(" ".join(argv), _sha256(""))
    return _sha256(captured.out)


def test_tower_command(tmp_path):
    code, text = run(tmp_path, "tower", "--p", "2", "--q", "2", "--kmax", "2")
    assert code == 0
    data = json.loads(text)
    assert data["command"] == "tower"
    assert [lvl["m"] for lvl in data["result"]["levels"]] == [0, 1, 2]
    assert len(data["result"]["levels"][2]["defining_polynomial"]) == 5


def test_center_command_matches_expected_index(tmp_path):
    code, text = run(
        tmp_path, "center", "--p", "2", "--q", "2", "--n", "2", "--k", "2"
    )
    assert code == 0
    data = json.loads(text)
    assert data["result"]["index"] == 4
    assert data["result"]["k"] == 2


def test_simplicity_command(tmp_path):
    code, text = run(
        tmp_path, "simplicity", "--p", "2", "--q", "2", "--n", "2", "--k", "1",
        "--element", "1 + x1",
    )
    assert code == 0
    data = json.loads(text)
    assert data["result"]["audit_replay_ok"] is True
    assert len(data["result"]["trace"]["steps"]) == 1
    assert data["result"]["trace"]["final_unit"] == "x1"


def test_pi_test_command(tmp_path):
    code, text = run(
        tmp_path, "pi-test", "--p", "2", "--q", "2", "--n", "2", "--k", "1",
        "--degree", "4", "--trials", "50", "--seed", "7",
    )
    assert code == 0
    data = json.loads(text)
    assert data["result"]["report"]["vanish_count"] == 50
    assert "vanished" in data["result"]["verdict"]


def test_growth_command_csv(tmp_path):
    out = tmp_path / "table.csv"
    code = main(
        ["growth", "--p", "2", "--q", "2", "--n", "1", "--k", "1",
         "--nmax", "16", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,dim"
    assert lines[1] == "0,1"
    assert lines[-1].startswith("# gk_estimate,")


@pytest.mark.parametrize("nmax", range(9))
def test_short_growth_tables_print_without_an_estimate(tmp_path, nmax):
    # a table with fewer than 6 fit points is exact but gets no slope
    from twistlab.growth import growth_table
    from twistlab.ring import RingContext
    from twistlab.tower import TowerConfig, build_tower

    ctx = RingContext(build_tower(TowerConfig(2, 2, 1)), default_action(2, 2), 1)
    rows = growth_table(ctx, None, n_max=nmax).rows
    out = tmp_path / "table.csv"
    assert main(["growth", "--nmax", str(nmax), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1:-1] == [f"{n},{d}" for n, d in enumerate(rows)]
    assert lines[-1].startswith("# no gk_estimate: table too short: ")
    code, text = run(tmp_path, "growth", "--nmax", str(nmax), "--format", "json")
    result = json.loads(text)["result"]
    assert code == 0 and result["table"]["rows"] == rows
    assert result["gk_estimate"] is None and result["residual"] is None


def test_invert_command(tmp_path):
    code, text = run(
        tmp_path, "invert", "--p", "2", "--q", "2", "--n", "1", "--k", "1",
        "--element", "1 + x1",
    )
    assert code == 0
    data = json.loads(text)
    assert data["result"]["verification_product_equals_one"] is True


def test_center_probe_command(tmp_path):
    code, text = run(
        tmp_path, "center-probe", "--p", "2", "--q", "2", "--n", "1", "--k", "1",
        "--element", "x1^2", "--probe-level", "2",
    )
    assert code == 0
    assert json.loads(text)["result"]["commutes_at_probe_level"] is False


@pytest.mark.parametrize("p,q", [(2, 3), (3, 2)])
def test_verify_all_other_desk_configs(tmp_path, p, q):
    code, text = run(
        tmp_path, "verify-all", "--p", str(p), "--q", str(q), "--n", "2",
        "--trials", "40",
    )
    assert code == 0
    assert json.loads(text)["result"]["all_passed"] is True


def test_invert_with_denominator(tmp_path):
    code, text = run(
        tmp_path, "invert", "--p", "2", "--q", "2", "--n", "1", "--k", "1",
        "--element", "t*x1 + 1", "--den", "1 + x1^2",
    )
    assert code == 0
    data = json.loads(text)
    assert data["result"]["verification_product_equals_one"] is True


def test_budget_exceeded_exits_2(tmp_path):
    code, _ = run(tmp_path, "tower", "--p", "3", "--q", "3", "--kmax", "3")
    assert code == 2


def test_budget_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TWISTLAB_FIELD_BUDGET", "8")
    code, _ = run(tmp_path, "tower", "--p", "2", "--q", "2", "--kmax", "2")
    assert code == 2  # 2^4 = 16 > 8
    monkeypatch.setenv("TWISTLAB_FIELD_BUDGET", "16")
    code, _ = run(tmp_path, "tower", "--p", "2", "--q", "2", "--kmax", "2")
    assert code == 0


def test_dependent_exponents_refused(tmp_path):
    code, _ = run(
        tmp_path, "verify-all", "--p", "2", "--q", "2", "--n", "2",
        "--exponents", "[[0],[0]]",
    )
    assert code == 2


def test_bad_element_literal_exits_2(tmp_path):
    code, _ = run(
        tmp_path, "invert", "--p", "2", "--q", "2", "--n", "1", "--k", "1",
        "--element", "x9 + ??",
    )
    assert code == 2


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 2, "q": 2, "n": 2, "k": 2}))
    code, text = run(tmp_path, "center", "--config", str(cfg))
    assert code == 0
    assert json.loads(text)["result"]["index"] == 4


@pytest.mark.parametrize("config", [
    {"func": 1},
    {"command": "tower"},
    {"config": "other.json"},
    {"help": True},
    {"not_an_option": 3},
    {"n": "two"},
    {"n": 2.5},
    {"n": True},
    {"n": [2]},
    {"format": "xml"},
    {"element": "1 + x1"},  # an option of other subcommands only
    {"exponents": 5},
    {"exponents": [5]},
    {"exponents": [[1], ["a"]]},
    {"exponents": [[0], [True]]},
    {"exponents": {"0": [0]}},
    [1, 2],
    "center",
    3,
])
def test_malformed_config_file_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run(tmp_path, "center", "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_config_file_with_an_invalid_choice_exits_2(tmp_path, capsys):
    # --format is an option of growth alone, so only growth reaches its choices
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"format": "xml"}))
    code, text = run(tmp_path, "growth", "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err == "error: config value 'xml' is invalid for --format\n"


@pytest.mark.parametrize("spec", ["5", "[5]", '[[1],["a"]]', "[[0],[1.5]]", "{}"])
def test_malformed_exponents_flag_exits_2(tmp_path, capsys, spec):
    code, text = run(tmp_path, "center", "--exponents", spec)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_unparsable_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    code, _ = run(tmp_path, "center", "--config", str(cfg))
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_values_are_coerced_like_flags(tmp_path):
    # a report's own config block is a valid config file: string integers
    # are converted, null keeps a None default, lists become JSON text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "n": "2", "k": 2, "kmax": None, "den": None,
        "exponents": [[0], [0, 9]],
    }))
    code, text = run(tmp_path, "invert", "--config", str(cfg), "--element", "1 + x1")
    assert code == 0
    data = json.loads(text)
    assert data["config"]["n"] == 2 and data["config"]["kmax"] is None
    assert data["result"]["verification_product_equals_one"] is True


def test_allow_large_is_gone(tmp_path, capsys):
    # the inversion budget has no override, neither as a flag nor as a key
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--element", "1 + x1", "--allow-large"])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"allow_large": True}))
    code, text = run(tmp_path, "invert", "--config", str(cfg), "--element", "1 + x1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "allow_large" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["invert"], ["center-probe", "--probe-level", "2"],
])
def test_zero_denominator_exits_2(tmp_path, capsys, command):
    code, text = run(
        tmp_path, *command, "--n", "1", "--element", "1+x1", "--den", "0",
    )
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err == "error: zero denominator\n"


@pytest.mark.parametrize("depth", [900, 3000])
@pytest.mark.parametrize("command", [
    ["simplicity", "--element", "{}"],
    ["invert", "--element", "{}"],
    ["invert", "--element", "1 + x1", "--den", "{}"],
])
def test_deeply_nested_literal_exits_2(tmp_path, capsys, command, depth):
    deep = "(" * depth + "1 + x1" + ")" * depth
    code, text = run(tmp_path, *[a.format(deep) for a in command], "--n", "1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err == "error: parentheses nest more than 100 deep\n"


BULKY_INVERT = ["invert", "--n", "1", "--k", "3", "--kmax", "3",
                "--element", "1 + x1 + x1^2 + x1^3 + x1^5"]


def test_bulky_numerator_inverts(tmp_path):
    # 5 terms at degree 8, refused by the former 5^8 > 2^17 size estimate
    code, text = run(tmp_path, *BULKY_INVERT)
    assert code == 0
    assert json.loads(text)["result"]["verification_product_equals_one"] is True


def test_inversion_over_budget_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quotient, "INVERSION_CAP", 100)
    code, text = run(tmp_path, *BULKY_INVERT)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: work cap of 100 term pairs exceeded: ")
    assert err.endswith(" counted\n") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["tower"], ["center"], ["invert", "--element", "1 + x1"], ["verify-all"],
])
def test_format_is_an_option_of_growth_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--format", "json"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format json" in capsys.readouterr().err
    assert "--format" in build_parser().commands["growth"].format_help()


# SHA-256 of invert stdout as first recorded, with the p^(2k) regular
# representation; a change to the returned denominator has to update these
# on purpose
INVERT_GOLDENS = [
    (["--n", "1", "--k", "1", "--element", "1 + x1 + t*x1^3"],
     "fc56056847582fb28d346d9703d6d080fbce71f90ab8daa9ba75cc12b4ec2d2f"),
    (["--n", "1", "--k", "2", "--element", "1 + x1 + t*x1^3"],
     "4d06c16a1a241968a3a5c0c8bc6663b2e3f3c68752237b24c68e5a42eac570c7"),
    (["--n", "1", "--k", "3", "--kmax", "3", "--element", "1 + x1 + t*x1^3"],
     "1f746127754d0ca795c26dbd2331e3588298a4520fda6070300ee6e64b1e05a9"),
    (["--p", "3", "--n", "1", "--k", "1", "--element", "1 + t*x1"],
     "34fc79cec38c1422e71f20ea831c57e1fe509957dba99af5db04b61c0d0bc4bb"),
    (["--q", "3", "--n", "1", "--k", "1", "--element", "1 + x1 + 2*t*x1^2"],
     "099a39d17b24808b614723c59b89a022f68893fe6f467e44b82f1ad285af8f2e"),
    (["--n", "2", "--k", "1", "--element", "t*x1 + x2", "--den", "1 + x1^2"],
     "69663752a75ea6a6fd71d18692d625c8bab739e7e4e023ab3de45979ba095042"),
]


@pytest.mark.parametrize("argv,digest", INVERT_GOLDENS)
def test_invert_report_bytes_are_pinned(capsys, argv, digest):
    assert pinned_stdout_digest(capsys, ["invert"] + argv) == digest


def test_huge_kmax_is_refused_before_any_work(tmp_path):
    code, _ = run(tmp_path, "tower", "--kmax", "1000000000")
    assert code == 2
    code, _ = run(tmp_path, "center", "--kmax", "1000000000")
    assert code == 2


def test_pi_test_zero_trials_exits_2(tmp_path, capsys):
    code, text = run(
        tmp_path, "pi-test", "--k", "1", "--degree", "4", "--trials", "0",
    )
    assert code == 2 and text == ""
    assert "vanished" not in capsys.readouterr().err


@pytest.mark.parametrize("degree", ["0", "-2"])
def test_pi_test_degree_below_two_exits_2(tmp_path, capsys, degree):
    code, text = run(tmp_path, "pi-test", "--k", "1", "--degree", degree)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and f"got {degree}" in err
    assert "Traceback" not in err


def test_rank_over_certification_budget_exits_2(tmp_path, capsys):
    code, text = run(tmp_path, "center", "--n", "9", "--k", "1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and "budget" in err and "Traceback" not in err


def test_huge_rank_is_refused_before_building_exponents(tmp_path, capsys, monkeypatch):
    import twistlab.cli

    def guarded(n, p):
        if n >= 8:
            raise AssertionError(f"default_action built {n} exponents")
        return default_action(n, p)

    monkeypatch.setattr(twistlab.cli, "default_action", guarded)
    code, text = run(tmp_path, "center", "--n", "1000000000", "--k", "1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err == ("error: certifying rank 1000000000 at coefficient bound 8"
                   " exceeds the budget 131072 vectors per level\n")


@pytest.mark.parametrize("p,q", [("2", "1000000000000000003"),
                                 ("1000000000000000003", "2")])
def test_huge_p_or_q_is_refused_before_factoring(tmp_path, capsys, monkeypatch, p, q):
    import twistlab.tower

    def bounded(fn):
        def wrapper(n):
            if n > 1 << 20:
                raise AssertionError(f"{fn.__name__}({n}) ran before the budget check")
            return fn(n)
        return wrapper

    for name in ("is_prime", "factor_prime_power"):
        monkeypatch.setattr(twistlab.tower, name, bounded(getattr(twistlab.tower, name)))
    code, text = run(tmp_path, "tower", "--p", p, "--q", q, "--kmax", "1")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: field order ") and "exceeds the budget" in err


def test_pi_scan_without_levels_exits_2(tmp_path, capsys):
    code, text = run(tmp_path, "pi-scan", "--k", "0")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "error:" in err and "Traceback" not in err


VERIFY_ALL_GOLDEN = (
    ["verify-all", "--n", "2", "--kmax", "2"],
    "397ee76fcc778c068fc135c04e1274ac61a6b4bfe1e2bc668d3c22b960fdf3c9",
)


def test_verify_all_report_bytes_are_pinned(capsys):
    # SHA-256 of the report as first recorded; any change to a check's
    # detail text or counts shows here
    argv, digest = VERIFY_ALL_GOLDEN
    assert pinned_stdout_digest(capsys, argv) == digest


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (5, 5)])
def test_verify_all_at_kmax_1_skips_what_needs_level_2(tmp_path, capsys, p, q):
    code, text = run(tmp_path, "verify-all", "--p", str(p), "--q", str(q),
                     "--n", "2", "--kmax", "1")
    err = capsys.readouterr().err
    assert code == 0
    result = json.loads(text)["result"]
    skipped = [c for c in result["checks"] if c["passed"] is None]
    assert result["all_passed"] is True
    assert all(c["passed"] is True for c in result["checks"] if c not in skipped)
    assert {c["name"] for c in skipped} >= {
        "ring.level_embedding_hom", "center.lattice_nesting",
        "simplicity.ascends_for_central_elements", "pi.frontier_rises_with_level",
        "quotient.center_collapses_to_base"}
    assert all(c["detail"].startswith("not run: ") for c in skipped)
    assert '"passed": null' in text
    lines = err.splitlines()
    assert [ln for ln in lines if ln.startswith("SKIP  ")] == [
        f"SKIP  {c['name']}: {c['detail']}" for c in skipped]
    assert len(lines) == len(result["checks"])
    assert not any(ln.startswith("FAIL") for ln in lines)


def test_verify_all_at_kmax_0_exits_2(tmp_path, capsys):
    code, text = run(tmp_path, "verify-all", "--kmax", "0")
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "error:" in err and "Traceback" not in err


GROWTH_GOLDENS = [
    (["--n", "3", "--k", "1", "--nmax", "12"],
     "2ef383d1dee2e322357a2685fc805957fa348883d8a2ebffdc17d1dfc2056f3e"),
    (["--n", "2", "--k", "2", "--nmax", "10", "--format", "json"],
     "74cde955d62920b01e7a04639e80696aacfe2d56ee88c660066776b07dce722e"),
    # odd and extension base fields: codes whose leading base-q digit is above
    # 1 scale a row before subtracting it, and are scaled before being stored
    (["--p", "3", "--q", "3", "--n", "2", "--k", "2", "--nmax", "10", "--format", "json"],
     "85bac1e1f83ec94755ed11635062910080c89f46bbdca275b1a90d0c73e11de1"),
    (["--p", "2", "--q", "4", "--n", "2", "--k", "3", "--kmax", "3", "--nmax", "10",
      "--format", "json"],
     "2854b1ce92abb0902071e997f99640b0f56838c80f97807b82043751bda50fb6"),
]


@pytest.mark.parametrize("argv,digest", GROWTH_GOLDENS)
def test_growth_report_bytes_are_pinned(capsys, argv, digest):
    assert pinned_stdout_digest(capsys, ["growth"] + argv) == digest


# The standard polynomial and ring sums run on level codes; these reports'
# values, witnesses and trial counts keep their bytes.
PI_GOLDENS = [
    (["pi-test", "--k", "2", "--degree", "8", "--trials", "20"],
     "b697741c0e400d40de278e6f2b88cebacf4e28ff8cf7e88a47487f510427dbcc"),
    (["pi-scan", "--n", "2", "--k", "2", "--trials", "40"],
     "d8a9ad1a6d873d676798ae9d8267bf9dbefc7502c5b7ec80f342ddbc26779e72"),
    (["pi-test", "--p", "3", "--n", "1", "--k", "1", "--degree", "4", "--trials", "30",
      "--seed", "5"],
     "6f802858b1ea280b82c745243ba813f50e666f8383d4dec7bbaf18f7245cfa35"),
    (["simplicity", "--n", "4", "--k", "1", "--kmax", "4", "--element",
      "x1 + t*x2*x3^-1 + x1^-1*x4"],
     "7422459a8fb83b51677fb34f0f58b939fbd6a6b1ca9c485c5ae74bfb92adf429"),
]


@pytest.mark.parametrize("argv,digest", PI_GOLDENS)
def test_pi_and_simplicity_report_bytes_are_pinned(capsys, argv, digest):
    assert pinned_stdout_digest(capsys, argv) == digest


# SHA-256 of tower, center and center-probe stdout as first recorded
REPORT_GOLDENS = [
    (["tower"],
     "5df2f1ed3555813fe3d9e63bc4b8086f657a0eef4b166a2319366a79d4b9b65b"),
    (["tower", "--p", "3", "--q", "9", "--kmax", "1"],
     "5758fc6daef96f650cf7a25834b7b3114336b2d965d86b19576920fd25f747a4"),
    (["center", "--n", "2", "--k", "2"],
     "425c92ddcb0fd46be783f80ed83a5c110210d30ae4814d29c878746abbeec218"),
    (["center", "--p", "3", "--q", "3", "--n", "1", "--k", "2"],
     "10534699d621f2c6bafab186ce6781bd6030b12e5130ccc2c57391be15088e48"),
    (["center-probe", "--n", "1", "--k", "1", "--element", "x1^2", "--probe-level", "2"],
     "52b85a2a7824994d7fbe2da45b0ed387691468cb8b740f83cccdb4f90a049762"),
    (["center-probe", "--n", "1", "--k", "1", "--element", "x1^4", "--probe-level", "2"],
     "c1196569550a32d92be434f8673a5239e9846b86e1169a86182035cd10adabea"),
    (["center-probe", "--n", "2", "--k", "1", "--element", "t*x1 + x2",
      "--den", "1 + x1^2", "--probe-level", "2"],
     "16c84e0871f4039a43df4995bde8f0f17889d959dd1f4a368ccdec4c0b83b5e1"),
]


@pytest.mark.parametrize("argv,digest", REPORT_GOLDENS)
def test_tower_and_center_report_bytes_are_pinned(capsys, argv, digest):
    assert pinned_stdout_digest(capsys, argv) == digest


def test_every_subcommand_has_a_byte_golden():
    # a new subcommand cannot bypass the shared report path unpinned
    pinned = {argv[0] for argv, _ in PI_GOLDENS + REPORT_GOLDENS + [VERIFY_ALL_GOLDEN]}
    pinned |= {cmd for cmd, table in [("invert", INVERT_GOLDENS),
                                      ("growth", GROWTH_GOLDENS)] if table}
    assert set(build_parser().commands) == pinned


@pytest.mark.parametrize("command", [
    ["tower"], ["verify-all", "--n", "1", "--trials", "20"],
])
@pytest.mark.parametrize("key", ["kmax", "k_max"])
def test_null_kmax_in_config_means_the_default_2(tmp_path, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: None}))
    code, text = run(tmp_path, *command, "--config", str(cfg))
    assert code == 0
    assert json.loads(text)["config"]["kmax"] == 2
    assert (code, text) == run(tmp_path, *command)


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_all_without_trials_exits_2(tmp_path, capsys, trials):
    # "0 random triples, 0 failures" is no evidence, also at k_max = 1
    code, text = run(tmp_path, "verify-all", "--n", "1", "--kmax", "1", "--trials", trials)
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err == f"error: trials must be >= 1, got {trials}\n"


def test_explicit_flags_beat_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2}))
    code, text = run(tmp_path, "center", "--config", str(cfg), "--k", "1")
    assert code == 0
    assert json.loads(text)["result"]["index"] == 2


@pytest.mark.parametrize("config,argv,key,want", [
    ({"nmax": 20}, ["growth", "--n", "1", "--k", "1", "--nm", "12", "--format", "json"],
     "nmax", 12),
    ({"seed": 5}, ["center", "--se", "3"], "seed", 3),
    ({"seed": 5, "k": 2}, ["center", "--seed=3"], "k", 2),
])
def test_abbreviated_flags_beat_config_file(tmp_path, config, argv, key, want):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, text = run(tmp_path, *argv, "--config", str(cfg))
    assert code == 0
    assert json.loads(text)["config"][key] == want


EXPONENTS = "[[0],[0,9]]"


@pytest.mark.parametrize("argv", [
    ["simplicity", "--element", "x1 + t*x2"],
    ["pi-test", "--degree", "4", "--trials", "20"],
    ["invert", "--element", "1 + x1", "--den", "1"],
    ["center-probe", "--element", "1 + x1", "--probe-level", "2"],
    # the pinned runs of the other commands
    ["tower"],
    ["center", "--n", "2", "--k", "2"],
    ["pi-scan", "--n", "2", "--k", "2", "--trials", "40"],
    ["growth", "--n", "2", "--k", "2", "--nmax", "10", "--format", "json"],
    ["verify-all", "--n", "2", "--kmax", "2"],
    # acting exponents other than the default ones
    ["center", "--n", "2", "--exponents", EXPONENTS],
    ["invert", "--element", "t + x2", "--den", "1 + x1^2", "--exponents", EXPONENTS],
], ids=lambda argv: argv[0] + ("-exponents" if "--exponents" in argv else ""))
def test_a_report_reruns_from_its_own_config(tmp_path, capsys, argv):
    # required options may come from the config file, so a report's own
    # config block reruns the same command byte for byte; --format says how
    # the report is written, not what it reports, so it is given again
    code, text = run(tmp_path, *argv)
    assert code == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(json.loads(text)["config"]))
    err = capsys.readouterr().err
    fmt = argv[argv.index("--format"):][:2] if "--format" in argv else []
    assert run(tmp_path, argv[0], "--config", str(cfg), *fmt) == (code, text)
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", [
    ["center", "--n", "2"],
    ["invert", "--element", "t + x2", "--den", "1 + x1^2"],
], ids=lambda argv: argv[0])
def test_a_report_names_its_exponents_only_when_given(tmp_path, argv):
    # the default action leaves config as it was, so pinned reports keep
    # their bytes; other exponents are named, and they change the report
    _, default = run(tmp_path, *argv)
    _, other = run(tmp_path, *argv, "--exponents", EXPONENTS)
    assert "exponents" not in json.loads(default)["config"]
    assert json.loads(other)["config"]["exponents"] == EXPONENTS
    assert json.loads(other)["result"] != json.loads(default)["result"]


@pytest.mark.parametrize("argv,missing", [
    (["simplicity"], "--element"),
    (["center-probe"], "--element, --probe-level"),
    (["pi-test"], "--degree"),
])
def test_required_options_missing_after_the_config_exit_2(tmp_path, capsys, argv,
                                                          missing):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))
    for extra in ([], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: twistlab {argv[0]} ")
        assert err.endswith(f"error: the following arguments are required: {missing}\n")


def test_reports_embed_version_and_seed(tmp_path):
    import twistlab

    code, text = run(tmp_path, "center", "--seed", "99")
    data = json.loads(text)
    assert data["version"] == twistlab.__version__
    assert data["config"]["seed"] == 99


def test_script_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import twistlab

    # the child must import the same package, also when pytest alone put
    # src/ on the path
    src = str(Path(twistlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "twistlab.cli", "center", "--p", "2", "--q", "2",
         "--n", "1", "--k", "1"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["index"] == 2


def test_failed_assertion_writes_the_report_and_exits_1(tmp_path, capsys, monkeypatch):
    import twistlab.cli
    from twistlab.verify import CheckResult

    monkeypatch.setattr(twistlab.cli, "replay_trace", lambda trace: None)
    code, text = run(tmp_path, "simplicity", "--n", "1", "--element", "1 + x1")
    assert code == 1 and json.loads(text)["result"]["audit_replay_ok"] is False
    monkeypatch.setattr(twistlab.cli, "run_all", lambda *a, **kw: [
        CheckResult("a", True, "ok"), CheckResult("b", False, "broken"),
        CheckResult("c", None, "not run: no level")])
    capsys.readouterr()
    code, text = run(tmp_path, "verify-all", "--n", "1")
    assert code == 1 and json.loads(text)["result"]["all_passed"] is False
    assert capsys.readouterr().err == (
        "PASS  a: ok\nFAIL  b: broken\nSKIP  c: not run: no level\n")


def test_pi_scan_certifies_its_action_once(tmp_path, monkeypatch):
    # one action for every level, so the certification search runs once:
    # no (action, level) pair is searched twice
    from twistlab import action

    searched, search = [], action.find_relation

    def counted(config, coeff_bound, k):
        searched.append((config, k))
        return search(config, coeff_bound, k)

    monkeypatch.setattr(action, "find_relation", counted)
    code, _ = run(tmp_path, "pi-scan", "--n", "3", "--k", "3", "--trials", "1")
    assert code == 0 and searched
    assert len({config for config, _ in searched}) == 1
    assert len(set(searched)) == len(searched)


def test_tower_takes_no_exponents(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tower", "--exponents", "[[0]]"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exponents [[0]]" in capsys.readouterr().err
    assert "--exponents" not in build_parser().commands["tower"].format_help()


def test_an_internal_fault_exits_1_without_a_report(tmp_path, capsys, monkeypatch):
    import twistlab.cli
    from twistlab.errors import InternalFaultError

    def fault(ctx):
        raise InternalFaultError("planted")

    monkeypatch.setattr(twistlab.cli, "kernel_lattice", fault)
    assert run(tmp_path, "center", "--n", "1") == (1, "")
    assert capsys.readouterr().err == "internal consistency fault: planted\n"
