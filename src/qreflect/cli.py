"""Command-line interface.

Subcommands:

* ``table1``   -- sign table of the seven two-qubit transpose/flip/reflection
  maps together with the per-map sign-change counts.
* ``analyze``  -- run selected criteria against a state file.
* ``upb-demo`` -- reflect the separable product-basis mixture into the bound
  entangled state and verify the whole chain.
* ``prop``     -- seeded randomised invariant suite.

``main`` reads the command line by one of two paths.  A command line that
names a command and holds only exact option names and their values is read
from the command parser's own tables (:func:`_read_exact`); the full
argparse parser reads every other, so every usage line, error, help and
version text is argparse's own.  ``main`` builds and prints every report:
JSON on stdout with ``command``, ``input_digest``, ``result`` and
``wall_time_s``, or with ``--plain`` the command's aligned text.  A
``cmd_*`` only computes and returns
``(exit_code, input_digest, result, plain_lines)``, where
``plain_lines`` is a generator that ``main`` runs only under ``--plain``;
every error exit raises ``SystemExit(_error(code, message))``, which
``main`` maps to its exit code.  Exit codes: 0 success, 1 failed property
suite, 2 unreadable input (state file or qubit subset), 3 dimension
mismatch (including a subset naming a qubit the state lacks).
Entanglement verdicts never affect the exit code, and neither does a
reader that closes stdout early.  The ``QREFLECT_TOL`` environment variable
sets the verdict thresholds (default ``1e-10``); it must pass the criteria's
tolerance rule, a finite float >= 0 (otherwise exit 2).  It does not change
the positivity check a state file passes when it is loaded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .criteria import _reports, _verdict_tolerance, complement, feasibility, total_reflection_feasible
from .io import StateFormatError, parse_density, read_state_file
from .linalg import min_eig
from .reflections import classify, mask_partial_transpose, mask_spin_flip, mask_total_reflection
from .states import upb_kets, upb_separable
from .stokes import PSD_TOL, DensityState, _digits

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_DIMENSION = 3

# json.dumps(report, sort_keys=True) builds this encoder per call; encode() keeps no state, so one serves every report.
_REPORT_ENCODER = json.JSONEncoder(sort_keys=True)


def _tolerance() -> float:
    raw = os.environ.get("QREFLECT_TOL")
    if raw is None:
        return PSD_TOL
    try:
        return _verdict_tolerance(float(raw))
    except ValueError:
        raise SystemExit(_error(EXIT_BAD_INPUT, f"QREFLECT_TOL must be a finite float >= 0, got {raw!r}"))


def _parse_subset(text: str) -> tuple[int, ...]:
    """Accept qubit letters ('A', 'AB') or 1-based digits ('1', '1,3'); the criteria's subset rule checks them."""
    cleaned = text.replace(",", "").strip()
    if not cleaned:
        raise SystemExit(_error(EXIT_BAD_INPUT, "empty qubit subset"))
    labels = []
    for ch in cleaned:
        if ch.isascii() and ch.isalpha():
            labels.append(ord(ch.upper()) - ord("A") + 1)
        elif ch.isascii() and ch.isdigit():
            labels.append(int(ch))
        else:
            raise SystemExit(_error(EXIT_BAD_INPUT, f"cannot parse qubit label {ch!r} in {text!r}"))
    return tuple(labels)


def _error(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_table1(args):
    masks = {
        "transpose_A": mask_partial_transpose(2, (1,)),
        "transpose_B": mask_partial_transpose(2, (2,)),
        "transpose_AB": mask_partial_transpose(2, (1, 2)),
        "spinflip_A": mask_spin_flip(2, (1,)),
        "spinflip_B": mask_spin_flip(2, (2,)),
        "spinflip_AB": mask_spin_flip(2, (1, 2)),
        "reflection_AB": mask_total_reflection(2),
    }
    rows = ["".join(map(str, digits)) for digits in _digits(2)]
    signs = [[int(mask.signs[k]) for mask in masks.values()] for k in range(16)]
    counts = [classify(mask).sign_change_count for mask in masks.values()]
    result = {
        "rows": rows,
        "columns": list(masks),
        "signs": signs,
        "sign_change_counts": counts,
    }

    def lines():
        width = max(len(c) for c in masks)
        yield "component  " + "  ".join(c.rjust(width) for c in masks)
        for row, sign_row in zip(rows, signs):
            cells = "  ".join(("+" if s > 0 else "-").rjust(width) for s in sign_row)
            yield f"{row:<9}  {cells}"
        yield f"{'changes':<9}  " + "  ".join(str(c).rjust(width) for c in counts)

    return EXIT_OK, None, result, lines()


def cmd_analyze(args):
    tol = _tolerance()
    try:
        raw = read_state_file(args.state)
        rho = parse_density(raw, args.state)
    except StateFormatError as exc:
        raise SystemExit(_error(EXIT_BAD_INPUT, str(exc)))
    digest = hashlib.sha256(raw).hexdigest()
    n = rho.n
    requests = [("ppt", _parse_subset(text)) for text in args.ppt or ()]
    if args.ccn:
        requests.append(("ccn", None))
    if args.concurrence:
        requests.append(("concurrence", None))
    requests += [("reflection", _parse_subset(text)) for text in args.reflect or ()]
    if args.feasible:
        requests.append(("total-reflection", None))
    requests += [("reduction", _parse_subset(text)) for text in args.reduction or ()]
    try:
        reports = _reports(rho, requests, tol)
    except ValueError as exc:
        raise SystemExit(_error(EXIT_DIMENSION, str(exc)))
    result = {
        "n": n,
        "purity": float(np.dot(rho.spectrum, rho.spectrum)),
        "min_eig": min_eig(rho),
        "criteria": [r.to_dict() for r in reports],
    }

    def lines():
        yield f"state: n={n} purity={result['purity']:.12g} min_eig={result['min_eig']:.3e}"
        for r in reports:
            subset = "" if r.subset is None else f" subset={list(r.subset)}"
            yield f"{r.criterion:<17} verdict={r.verdict:<21} witness={r.witness:+.12g}{subset}"

    return EXIT_OK, digest, result, lines()


def cmd_upb_demo(args):
    tol = _tolerance()
    separable = upb_separable()
    # The reflected mixture is the complement, so its lowest eigenvalue is this report's witness.
    reflected = total_reflection_feasible(separable, tol)
    bound_entangled = complement(separable)
    cuts = _reports(bound_entangled, [(criterion, (q,)) for criterion in ("ppt", "ccn") for q in (1, 2, 3)], tol)
    ppt_reports = cuts[:3]
    kets = upb_kets()
    components = DensityState(np.stack([np.outer(vec, vec.conj()) for vec in kets]), stack=True)
    component_minima = feasibility(components, tol)[0].tolist()
    overlaps = [float((vec.conj() @ bound_entangled.matrix @ vec).real) for vec in kets]
    result = {
        "separable_feasible": reflected.extra,
        "reflected_min_eig": reflected.witness,
        "reflected_is_density": reflected.verdict == "feasible",
        "ppt_cuts": [r.to_dict() for r in ppt_reports],
        "component_min_eigs": component_minima,
        "components_all_nonpositive": bool(max(component_minima) < -1e-6),
        "support_overlaps": overlaps,
        "cross_norms": {f"cut_{r.subset[0]}": r.witness for r in cuts[3:]},
    }

    def lines():
        density = result["reflected_is_density"]
        yield f"reflected separable mixture: min_eig={reflected.witness:+.6e} -> density={density}"
        yield "ppt cuts: " + ", ".join(f"{r.subset}: {r.verdict}" for r in ppt_reports)
        yield "reflected components min_eig: " + ", ".join(f"{v:+.3e}" for v in component_minima)
        yield "cross norms per cut: " + ", ".join(f"{k}={v:.6f}" for k, v in result["cross_norms"].items())

    return EXIT_OK, None, result, lines()


def cmd_prop(args):
    # The invariant suite is imported here, so the other commands do not load it.
    from .properties import run_suite
    try:
        results = run_suite(seed=args.seed, trials=args.trials, corrupt_mask=args.inject_mask_corruption)
    except ValueError as exc:
        raise SystemExit(_error(EXIT_BAD_INPUT, str(exc)))
    all_passed = all(r.passed for r in results)
    result = {
        "seed": args.seed,
        "trials": args.trials,
        "invariants": [r.to_dict() for r in results],
        "all_passed": all_passed,
    }

    def lines():
        for r in results:
            yield f"{'PASS' if r.passed else 'FAIL'} {r.name} (worst deviation {r.worst:.3e})"
        yield f"{'all passed' if all_passed else 'FAILURES DETECTED'} [seed={args.seed}, trials={args.trials}]"

    return (EXIT_OK if all_passed else EXIT_PROPERTY_FAILURE), None, result, lines()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qreflect", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"qreflect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--plain", action="store_true", help="aligned text instead of JSON")

    p = sub.add_parser("table1", parents=[common], help="two-qubit sign table for the discrete symmetry maps")
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser("analyze", parents=[common], help="run criteria against a state file")
    p.add_argument("state", help="path to a JSON state file")
    p.add_argument("--ppt", action="append", metavar="SUBSET", help="partial-transpose test across SUBSET")
    p.add_argument("--ccn", action="store_true", help="computable cross norm across the first-half cut")
    p.add_argument("--concurrence", action="store_true", help="two-qubit concurrence")
    p.add_argument("--reflect", action="append", metavar="SUBSET", help="reflection feasibility across SUBSET")
    p.add_argument("--feasible", action="store_true", help="total-reflection feasibility flags")
    p.add_argument("--reduction", action="append", metavar="SUBSET", help="reduction criterion tracing SUBSET")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "upb-demo", parents=[common], help="reflect the product-basis mixture into the bound entangled state"
    )
    p.set_defaults(fn=cmd_upb_demo)

    p = sub.add_parser("prop", parents=[common], help="seeded randomised invariant suite")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument(
        "--inject-mask-corruption",
        action="store_true",
        help="negative control: tamper with one mask sign so the suite must fail",
    )
    p.set_defaults(fn=cmd_prop)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` leaves it unchanged."""
    return build_parser()


@functools.cache
def _commands() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, by name: the subparsers of :func:`_parser`."""
    (sub,) = (action for action in _parser()._actions if isinstance(action, argparse._SubParsersAction))
    return sub.choices


@functools.cache
def _defaults(name: str) -> dict:
    """The namespace the full parser starts command ``name`` with: ``command``, each action's default, the parser's."""
    parser = _commands()[name]
    defaults = {"command": name}
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults.setdefault(action.dest, action.default)
    for dest, value in parser._defaults.items():
        defaults.setdefault(dest, value)
    return defaults


def _read_exact(name: str, tokens) -> argparse.Namespace | None:
    """The namespace the full parser gives ``[name, *tokens]``, if ``tokens`` are exact option names and values.

    Tokens are looked up in the command parser's own tables: a token led by
    ``-`` must be one of its option strings other than ``-h``/``--help``,
    and an option's value is the next token, which must not be led by
    ``-``; any other token fills the parser's next positional.  Each value
    goes through the action's ``type`` and the action itself, as argparse
    does.  ``None`` (the full parser reads the line) for anything else: an
    unknown or abbreviated option, ``--opt=value``, ``--``, help, a missing
    or dash-led value, a ``type`` that raises, a missing or an extra
    positional.  This is argparse's own reading for parsers like this
    program's (no ``choices``, ``nargs`` of ``None`` or 0, no required
    option, ...); a test pins that premise for every command parser.
    """
    parser = _commands()[name]
    options = parser._option_string_actions
    namespace = argparse.Namespace(**_defaults(name))
    pending = iter(parser._positionals._group_actions)
    tokens = iter(tokens)
    for token in tokens:
        if token.startswith("-"):
            action, option = options.get(token), token
            if action is None or isinstance(action, argparse._HelpAction):
                return None
            # a flag gets the empty list argparse hands it; any other option reads the next token
            value = [] if action.nargs == 0 else next(tokens, "-")
            if value[:1] == "-":  # a missing or dash-led value
                return None
        else:
            action, option, value = next(pending, None), None, token
            if action is None:
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        action(parser, namespace, value, option)
    if next(pending, None) is not None:
        return None
    return namespace


def _parse_args(argv=None) -> argparse.Namespace:
    """The namespace the full parser gives ``argv``, read by one of two paths.

    A command line that names a command and holds only exact option names and
    values is read by :func:`_read_exact` from that command parser's own
    tables.  The full parser reads every other one, and exits with its own
    usage line and error, help or version text.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = _read_exact(argv[0], argv[1:]) if argv and argv[0] in _commands() else None
    return _parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    try:
        code, digest, result, lines = args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_INPUT
    if args.plain:
        text = "\n".join(lines)
    else:
        report = {
            "command": args.command,
            "input_digest": digest,
            "result": result,
            "wall_time_s": time.perf_counter() - started,
        }
        text = _REPORT_ENCODER.encode(report)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early; point it at devnull so the exit flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
