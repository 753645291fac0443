"""Command-line front end.

Subcommands build the configured tower and contexts, run one experiment or
the whole verification batch, and emit machine-readable reports (JSON, or
CSV for growth tables).  Reports are deterministic: identical configuration
and seed give byte-identical output.  Exit codes: 0 all assertions passed,
1 an assertion failed, 2 invalid configuration or usage.

The field-order budget can be overridden with the TWISTLAB_FIELD_BUDGET
environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .action import ActionConfig, check_certification_budget, default_action
from .center import kernel_lattice
from .errors import InternalFaultError, TwistlabError
from .growth import gk_estimate, growth_table
from .pi import pi_degree_scan, test_identity
from .quotient import CentralFraction, center_of_quotient_test, invert
from .ring import DEFAULT_CERT_BOUND, RingContext, parse_element
from .simplicity import replay_trace, unit_in_ideal
from .tower import DEFAULT_FIELD_BUDGET, TowerConfig, build_tower, tower_to_json
from .verify import run_all

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2
# a report's config is every parsed option but these, and exponents when unset
NOT_CONFIG = ("command", "func", "out", "format", "config")


def _budget() -> int:
    return int(os.environ.get("TWISTLAB_FIELD_BUDGET", DEFAULT_FIELD_BUDGET))


def _config_value(action, value):
    """A config-file value, checked and converted as its flag's argument.

    null restores an option whose default is None; non-string values of
    string options are taken as their JSON text (e.g. exponent lists).
    """
    if value is None and action.default is None:
        return None
    if action.type is int:
        if isinstance(value, (int, str)) and not isinstance(value, bool):
            try:
                return int(value)
            except ValueError:
                pass
    else:
        text = value if isinstance(value, str) else json.dumps(value)
        if action.choices is None or text in action.choices:
            return text
    raise ValueError(
        f"config value {value!r} is invalid for {action.option_strings[0]}"
    )


def _apply_config_file(args, argv, ap):
    """Config-file values become the subcommand's defaults and argv is parsed
    again, so every flag given on the command line wins, abbreviated or not.

    Keys are the subcommand's own option names (k_max is read as kmax);
    any other key, a mistyped value or a file that is not a JSON object is
    a usage error.
    """
    if not args.config:
        return args
    with open(args.config) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"config file {args.config} must hold a JSON object")
    parser = ap.commands[args.command]
    options = {
        a.dest: a for a in parser._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    aliases = {"k_max": "kmax"}
    defaults = {}
    for key, value in data.items():
        key = aliases.get(key, key)
        if key not in options:
            raise ValueError(f"config key {key!r} is not an option of {args.command}")
        defaults[key] = _config_value(options[key], value)
    parser.set_defaults(**defaults)
    return ap.parse_args(argv)


def _parse_args(ap, argv):
    """Parse argv and merge --config, then check the required options, so a
    required option may come from the config file; one still missing is
    refused with argparse's own message and exit 2."""
    required = [a for p in ap.commands.values() for a in p._actions if a.required]
    for a in required:
        a.required = False
    try:
        args = _apply_config_file(ap.parse_args(argv), argv, ap)
    finally:
        for a in required:
            a.required = True
    parser = ap.commands[args.command]
    missing = ["/".join(a.option_strings) for a in parser._actions
               if a.required and getattr(args, a.dest) is None]
    if missing:
        parser.error(f"the following arguments are required: {', '.join(missing)}")
    return args


def _action(args) -> object:
    # refuse an uncertifiable rank before building n exponents
    check_certification_budget(args.n, DEFAULT_CERT_BOUND)
    spec = args.exponents
    if spec:
        positions = json.loads(spec)
        if not isinstance(positions, list) or not all(
            isinstance(ps, list) and all(type(e) is int for e in ps)
            for ps in positions
        ):
            raise ValueError(
                f"--exponents must be a JSON list of lists of integers, got {spec}"
            )
        return ActionConfig.from_json_dict(
            {"n": args.n, "p": args.p, "exponents": positions})
    return default_action(args.n, args.p)


def _context(args, k=None, action=None) -> RingContext:
    k = args.k if k is None else k
    k_max = args.kmax if args.kmax is not None else max(k, 2)
    tower = build_tower(TowerConfig(args.p, args.q, k_max), budget=_budget())
    return RingContext(tower, action or _action(args), k)


# Each cmd_* returns (result, passed, *stderr lines); result is the report's
# "result" value, or text written as it is (growth's CSV).
def cmd_tower(args):
    args.kmax = 2 if args.kmax is None else args.kmax  # reported resolved
    tower = build_tower(TowerConfig(args.p, args.q, args.kmax), budget=_budget())
    return tower_to_json(tower), True


def cmd_center(args):
    return kernel_lattice(_context(args)).to_json_dict(), True


def cmd_simplicity(args):
    trace = unit_in_ideal(parse_element(_context(args), args.element))
    ok = replay_trace(trace) == trace.final_unit
    return {"trace": trace.to_json_dict(), "audit_replay_ok": ok}, ok


def cmd_pi_test(args):
    rep = test_identity(_context(args), args.degree, args.trials, seed=args.seed)
    verdict = (
        f"degree {args.degree} vanished in all {rep.trials} trials"
        if rep.is_identity_evidence()
        else f"degree {args.degree} witness found (trial count {rep.trials})"
    )
    return {"report": rep.to_json_dict(), "verdict": verdict}, True, verdict


def cmd_pi_scan(args):
    action = _action(args)  # one action, so one certification for every level
    contexts = [_context(args, k, action) for k in range(1, args.k + 1)]
    rows = pi_degree_scan(contexts, args.trials, seed=args.seed)
    frontier = [r.largest_failing_degree or 0 for r in rows]
    monotone = all(b >= a for a, b in zip(frontier, frontier[1:]))
    result = {"rows": [r.to_json_dict() for r in rows], "frontier_monotone": monotone}
    return result, monotone


def cmd_growth(args):
    table = growth_table(_context(args), None, n_max=args.nmax)
    try:  # the table is exact either way; a short one gets no slope
        est = gk_estimate(table)
        trailer = f"# gk_estimate,{est.slope:.6f},residual,{est.residual:.6f}"
        fit = {"gk_estimate": round(est.slope, 6), "residual": round(est.residual, 6)}
    except ValueError as exc:
        trailer, fit = f"# no gk_estimate: {exc}", {"gk_estimate": None, "residual": None}
    if (args.format or "csv") == "csv":
        return table.to_csv() + trailer + "\n", True
    return {"table": table.to_json_dict(), **fit}, True


def _fraction(args) -> CentralFraction:
    """The --element / --den fraction of invert and center-probe."""
    ctx = _context(args)
    num = parse_element(ctx, args.element)
    den = parse_element(ctx, args.den) if args.den else ctx.one()
    if den.is_zero():
        raise ValueError("zero denominator")
    return CentralFraction(ctx, num, den)


def cmd_invert(args):
    f = _fraction(args)
    g = invert(f)
    product = f * g
    ok = product == CentralFraction(f.ctx, f.ctx.one(), f.ctx.one())
    return {
        "inverse_num": g.num.to_literal(),
        "inverse_den": g.den.to_literal(),
        "verification_product": product.to_literal(),
        "verification_product_equals_one": ok,
    }, ok


def cmd_center_probe(args):
    outcome = center_of_quotient_test(_fraction(args), args.probe_level)
    return {"commutes_at_probe_level": outcome}, True


def cmd_verify_all(args):
    args.kmax = 2 if args.kmax is None else args.kmax  # reported resolved
    results = run_all(args.p, args.q, args.n, args.kmax, seed=args.seed,
                      trials=args.trials, action=_action(args))
    all_ok = False not in (r.passed for r in results)  # a skipped check is None
    verdicts = {True: "PASS", False: "FAIL", None: "SKIP"}
    return (
        {"checks": [r.to_json_dict() for r in results], "all_passed": all_ok},
        all_ok,
        *(f"{verdicts[r.passed]}  {r.name}: {r.detail}" for r in results),
    )


def build_parser() -> argparse.ArgumentParser:
    """The twistlab parser; its .commands maps each subcommand to its parser."""
    ap = argparse.ArgumentParser(
        prog="twistlab",
        description="Exact experiments with twisted group rings over "
        "finite-field towers",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    ap.commands = {}

    def command(name, func, summary, with_n=True, with_k=True):
        p = ap.commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--p", type=int, default=2, help="tower prime")
        p.add_argument("--q", type=int, default=2, help="base field order")
        if with_n:
            p.add_argument("--n", type=int, default=2, help="rank of the acting group")
            p.add_argument(
                "--exponents", type=str, default=None,
                help="JSON list of digit-position lists overriding the default "
                "acting exponents, e.g. '[[0],[0,9]]'",
            )
        if with_k:
            p.add_argument("--k", type=int, default=1, help="working level")
        p.add_argument("--kmax", type=int, default=None, help="highest level to build")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", type=str, default=None, help="output path (stdout)")
        p.add_argument(
            "--config", type=str, default=None,
            help="JSON file with defaults for any of the flags above",
        )
        return p

    command("tower", cmd_tower, "build a tower and print its description",
            with_n=False, with_k=False)
    command("center", cmd_center, "kernel lattice of the level action")
    p = command("simplicity", cmd_simplicity, "shrink an element to a unit in its ideal")
    p.add_argument("--element", type=str, required=True, help="element literal")
    p = command("pi-test", cmd_pi_test, "sample one standard polynomial")
    p.add_argument("--degree", type=int, required=True, help="even degree <= 8")
    p.add_argument("--trials", type=int, default=1000)
    p = command("pi-scan", cmd_pi_scan, "identity frontier for levels 1..k")
    p.add_argument("--trials", type=int, default=200)
    p = command("growth", cmd_growth, "subalgebra growth table and slope")
    p.add_argument("--nmax", type=int, default=16, help="largest product length")
    p.add_argument("--format", choices=("json", "csv"), help="output format")
    p = command("invert", cmd_invert, "invert a central fraction")
    p.add_argument("--element", type=str, required=True, help="numerator literal")
    p.add_argument("--den", type=str, default=None, help="central denominator literal")
    p = command("center-probe", cmd_center_probe, "commutation test at a higher level")
    p.add_argument("--element", type=str, required=True)
    p.add_argument("--den", type=str, default=None)
    p.add_argument("--probe-level", type=int, required=True, dest="probe_level")
    p = command("verify-all", cmd_verify_all, "run every module's invariant suite",
                with_k=False)
    p.add_argument("--trials", type=int, default=200)
    return ap


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = _parse_args(ap, argv)
        result, ok, *log = args.func(args)
        text = result
        if not isinstance(result, str):
            config = {k: v for k, v in vars(args).items()
                      if k not in NOT_CONFIG and (v is not None or k != "exponents")}
            report = {"command": args.command, "version": __version__,
                      "config": config, "result": result}
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        sys.stderr.writelines(line + "\n" for line in log)
        return EXIT_OK if ok else EXIT_ASSERTION
    except InternalFaultError as exc:
        sys.stderr.write(f"internal consistency fault: {exc}\n")
        return EXIT_ASSERTION
    except (TwistlabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
