"""Command line front end.

    qpel check [--verify set|stochastic|quantum|all] [--rules core,qubit,beta-iso]
               [--auto-depth N] [--format text|json] [--timing] FILES...
    qpel eval --backend B FILE DECL
    qpel wp [--cross-check] FILE TERM EFFECT

Exit codes: 0 success, 2 parse, 3 typing, 4 proof, 5 semantic mismatch.
A reader that closes the output early does not change the exit code.
"""
from __future__ import annotations

import argparse
import os
import sys

from .backends import BACKEND_NAMES
from .derivation import DerivationError, SearchBudgetExhausted
from .driver import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PROOF,
    EXIT_SEMANTIC,
    EXIT_TYPE,
    eval_decl,
    read_source,
    render_pred,
    render_state,
    run_paths,
    wp_decls,
)
from .parser import ElabError, QpelSyntaxError, parse
from .rules import PACKS
from .typecheck import QpelTypeError


def _parse_rules(spec: str):
    packs = frozenset(p.strip() for p in spec.split(",") if p.strip())
    unknown = packs - set(PACKS)
    if unknown:
        raise SystemExit(f"unknown rule pack(s): {', '.join(sorted(unknown))}")
    return packs | {"core"}


def _emit(text: str, code: int) -> int:
    """Print the command's output and return its exit code, also when the
    reader has closed the pipe: the rest of the output is dropped, and stdout
    goes to devnull so that the flush at exit does not raise again."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="qpel", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check files: parse, typecheck, prove, verify")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--verify", default=None,
                         help="backend to verify lemmas in: set, stochastic, quantum, or all")
    p_check.add_argument("--rules", default="core,qubit",
                         help="comma-separated rule packs (default: core,qubit)")
    p_check.add_argument("--auto-depth", type=int, default=6)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--timing", action="store_true",
                         help="include per-declaration timings in the report")

    p_eval = sub.add_parser("eval", help="evaluate a closed term declaration")
    p_eval.add_argument("--backend", required=True, choices=BACKEND_NAMES)
    p_eval.add_argument("file")
    p_eval.add_argument("decl")

    p_wp = sub.add_parser("wp", help="weakest precondition of an effect along a term")
    p_wp.add_argument("--cross-check", action="store_true",
                      help="compare against the substituted effect and report the deviation")
    p_wp.add_argument("file")
    p_wp.add_argument("term")
    p_wp.add_argument("effect")

    args = ap.parse_args(argv)

    if args.command == "check":
        verify = ()
        if args.verify == "all":
            verify = BACKEND_NAMES
        elif args.verify:
            if args.verify not in BACKEND_NAMES:
                raise SystemExit(f"unknown backend {args.verify!r}")
            verify = (args.verify,)
        rendered, code = run_paths(
            args.files,
            packs=_parse_rules(args.rules),
            depth=args.auto_depth,
            verify=verify,
            fmt=args.format,
            timing=args.timing,
        )
        return _emit(rendered, code)

    if args.command == "eval":
        try:
            sf = parse(read_source(args.file))
        except (OSError, QpelSyntaxError, ElabError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            state, _ = eval_decl(sf, args.decl, args.backend)
        except QpelTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TYPE
        except SearchBudgetExhausted as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PROOF
        return _emit(render_state(args.backend, state), EXIT_OK)

    if args.command == "wp":
        try:
            sf = parse(read_source(args.file))
        except (OSError, QpelSyntaxError, ElabError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            pred, deviation = wp_decls(
                sf, args.term, args.effect, cross_check=args.cross_check
            )
        except QpelTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_TYPE
        except (DerivationError, SearchBudgetExhausted) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PROOF
        if deviation is None:
            return _emit(render_pred(pred), EXIT_OK)
        return _emit(f"{render_pred(pred)}\ncross-check max deviation: {deviation:.3e}",
                     EXIT_SEMANTIC if deviation > 1e-9 else EXIT_OK)

    raise AssertionError


if __name__ == "__main__":
    sys.exit(main())
