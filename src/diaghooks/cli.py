"""Command-line front end; a thin layer of parsing and formatting over the library.

Exit codes are part of the contract: 0 success, 1 disagreement between two
computation routes, 2 parse error, 3 bad modulus/residue, 4 not a core,
5 bad quotient, 6 not self-conjugate, 7 internal error (any other exception).
Codes 2-6 are the `exit_code` of the error that ended the command.
"""

import argparse
import functools
import json
import sys
from dataclasses import asdict
from operator import attrgetter, itemgetter

from .abacus import _rebuild, core_and_quotient, is_p_core, p_quotient, render_ascii
from .bisequence import Bisequence, is_symmetric_p_core
from .errors import MAX_P, BadModulus, BadPartitionSyntax, DiagHookError, require_modulus  # cli.MAX_P: the same bound
from .formula import delta_general
from .partitions import _EMPTY, DeltaSet, Partition, _self_conjugate_arms, delta_of, from_delta_lengths
from .verify import run_verify

MAX_PARTS = 10**6  # parse_partition and --from-delta refuse more cells (and so more parts) before building anything
MAX_N_MAX = 120  # verify refuses more: run_verify(120, (3,5,7)) checks 417,891 cells in 55 s (2-vCPU VM, Python 3.11)
_json = json.JSONEncoder(check_circular=False).encode  # json.dumps' bytes; what --json prints is fresh, so has no cycles


def _digit_ints(tokens: list[str]) -> tuple[int, ...] | None:
    # str.isdigit alone accepts '²' and '３'; int() refuses a token of over 4300 digits, which a shorter join rules out
    s = "".join(tokens)
    if s.isascii() and s.isdigit() and "" not in tokens and (len(s) <= 4300 or max(map(len, tokens)) <= 4300):
        return tuple(map(int, tokens))


def _per_distinct(read, texts: list[str]):
    """read(texts), with read given each distinct text once, in first-seen order; a falsy result is kept as it is."""
    got = read(distinct := list(dict.fromkeys(texts)))
    return got if not got or len(got) == len(texts) else itemgetter(*texts)(dict(zip(distinct, got)))


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts with optional exponents, e.g. '6^2,2'."""
    text = text.strip()
    if not text:
        return _EMPTY
    stripped = tokens = text.split(",")  # a clean line is read as it is; only a refused one is stripped
    ints = _per_distinct(_digit_ints, tokens) or _per_distinct(_digit_ints, stripped := list(map(str.strip, tokens)))
    if ints and sum(ints) + ints.count(0) <= MAX_PARTS:
        return Partition(ints)  # no exponent and within the bound; the loop reports every refusal
    parts: list[int] = []
    cells = pos = 0
    for token, plain in zip(tokens, stripped):
        base, caret, exp = plain.partition("^")
        if not (read := _digit_ints([base, exp] if caret else [base])):
            raise BadPartitionSyntax(f"bad token {plain!r} at position {pos}")
        part, count = read if caret else (*read, 1)
        cells += (part or 1) * count  # a part 0, which Partition refuses, counts as one cell so the list stays bounded
        if cells > MAX_PARTS:
            raise BadPartitionSyntax(f"token {plain!r} at position {pos} makes more than {MAX_PARTS} cells")
        parts.extend([part] * count)
        pos += len(token) + 1
    return Partition(tuple(parts))


def parse_int_list(text: str) -> list[int]:
    out = []
    pos = 0
    for token in text.split(","):
        stripped = token.strip()
        if not (value := _digit_ints([stripped])):
            raise BadPartitionSyntax(f"bad integer {stripped!r} at position {pos}")
        out += value
        pos += len(token) + 1
    return out


def _input_partition(text: str, from_delta: bool) -> Partition:
    if from_delta and text.strip():  # blank text is the empty partition in both modes
        lengths = parse_int_list(text)
        if sum(lengths) > MAX_PARTS:
            raise BadPartitionSyntax(f"diagonal hook lengths sum to more than {MAX_PARTS} cells")
        return from_delta_lengths(lengths)
    return parse_partition(text)


def _lengths(delta: DeltaSet) -> str:
    return ",".join(str(d) for d in delta.lengths) if delta.lengths else "(empty)"


def cmd_core(args) -> int:
    la = parse_partition(args.partition)
    core, quotient = core_and_quotient(la, args.p)
    weights = list(map(sum, map(attrgetter("parts"), quotient)))
    if args.json:
        print(_json({
            "partition": list(la.parts),
            "p": args.p,
            "core": list(core.parts),
            "quotient": list(map(attrgetter("parts"), quotient)),
            "weights": {"total": la.weight, "core": core.weight, "quotient": weights},
        }))
    else:
        print(f"core: {core}")
        print(f"quotient: {', '.join(str(c) for c in quotient)}")
        print(f"weights: n={la.weight} core={core.weight} quotient={weights}")
    return 0


def cmd_quotient(args) -> int:
    la = parse_partition(args.partition)
    quotient = p_quotient(la, args.p)
    if args.json:
        print(_json({
            "partition": list(la.parts),
            "p": args.p,
            "quotient": [list(c.parts) for c in quotient],
        }))
    else:
        for g, c in enumerate(quotient):
            print(f"{g}: {c}")
    return 0


def cmd_delta(args) -> int:
    core = _input_partition(args.core, args.from_delta)
    quotient = _per_distinct(lambda texts: tuple(map(parse_partition, texts)), args.quotient)  # the line's first refusal
    p = args.p
    checked = delta_general(core, quotient, p)  # validates the pair once, before either route runs
    formula = checked if args.method in ("formula", "both") else None
    rebuilt = _rebuild(core, quotient, p)  # the guard above checked all the public rebuild would
    oracle = delta_of(rebuilt) if args.method in ("oracle", "both") else None
    shown = formula if formula is not None else oracle
    expected = core.weight + p * sum(map(sum, map(attrgetter("parts"), quotient)))
    conserved = shown.total == expected
    agree = (formula == oracle) if formula is not None and oracle is not None else None
    if args.json:
        print(_json({
            "core": list(core.parts),
            "quotient": list(map(attrgetter("parts"), quotient)),
            "p": p,
            "partition": list(rebuilt.parts),
            "n": expected,
            "delta_formula": list(formula.lengths) if formula is not None else None,
            "delta_oracle": list(oracle.lengths) if oracle is not None else None,
            "conserved": conserved,
            "agree": agree,
        }))
    else:
        print(f"partition: {rebuilt}  (n={expected})")
        if formula is not None:
            print(f"delta (formula): {_lengths(formula)}")
        if oracle is not None:
            print(f"delta (oracle):  {_lengths(oracle)}")
        print(f"conservation: sum={shown.total} n={expected} -> {'OK' if conserved else 'FAIL'}")
        if agree is not None:
            print(f"verdict: {'AGREE' if agree else 'DISAGREE'}")
    if agree is False or not conserved:
        return 1
    return 0


def cmd_check_core(args) -> int:
    la = _input_partition(args.partition, args.from_delta)
    arms = _self_conjugate_arms(la)
    by_criterion = is_symmetric_p_core(Bisequence(arms, arms), args.p)
    by_hooks = is_p_core(la, args.p)
    agree = by_criterion == by_hooks
    if args.json:
        print(_json({
            "partition": list(la.parts),
            "p": args.p,
            "criterion": by_criterion,
            "direct": by_hooks,
            "agree": agree,
            "is_core": by_hooks,
        }))
    else:
        print(f"criterion: {'CORE' if by_criterion else 'NOT A CORE'}")
        print(f"direct:    {'CORE' if by_hooks else 'NOT A CORE'}")
        print(f"verdict: {'CORE' if by_hooks else 'NOT A CORE'}" if agree else "verdict: DISAGREE")
    return 0 if agree else 1


def cmd_render(args) -> int:
    la = parse_partition(args.partition)
    print(render_ascii(la, args.p))
    return 0


def cmd_verify(args) -> int:
    if args.n_max > MAX_N_MAX:
        raise BadPartitionSyntax(f"--n-max {args.n_max} is above {MAX_N_MAX}")
    # a cell's abacus has at most n + p beads, and run_verify checks each distinct modulus once
    if args.n_max * (total := sum(set(args.moduli))) > MAX_N_MAX * 1000:
        raise BadModulus(f"--n-max {args.n_max} times the --primes sum {total} is above {MAX_N_MAX * 1000}")
    report = run_verify(args.n_max, args.moduli)
    if args.json:
        print(_json({
            "n_max": report.n_max,
            "primes": list(report.moduli),
            "cells": report.cells,
            "failures": report.failures,
            "first_failure": asdict(report.first_failure) if report.first_failure else None,
        }))
    else:
        print(f"checked {report.cells} (lambda,p) cells, {report.failures} failures")
        if report.first_failure:
            f = report.first_failure
            print(f"first failure: n={f.n} partition={Partition(f.partition)} p={f.p} check={f.check}")
            print(f"  {f.detail}")
    if not report.ok:  # on stderr, so stdout keeps the shape scripts read
        counts = ", ".join(f"{check}={count}" for check, count in sorted(report.failures_by_check.items()))
        print(f"failures by check: {counts}", file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diaghooks",
        description="Diagonal hook lengths of self-conjugate partitions via p-cores and p-quotients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_p(sp):
        sp.add_argument("--p", type=int, required=True, help="number of runners (>= 2)")

    sp = sub.add_parser("core", help="p-core and p-quotient of a partition")
    sp.add_argument("partition", help="e.g. '3,2,1' or '6^2,2'; empty string for the empty partition")
    add_p(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_core)

    sp = sub.add_parser("quotient", help="p-quotient of a partition")
    sp.add_argument("partition")
    add_p(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_quotient)

    sp = sub.add_parser("delta", help="diagonal hook lengths from a core and quotient")
    sp.add_argument("--core", default="", help="core partition (or delta lengths with --from-delta)")
    sp.add_argument("--from-delta", action="store_true", help="read --core as a list of diagonal hook lengths")
    sp.add_argument("--quotient", action="append", default=[], metavar="PARTITION",
                    help="one quotient component; repeat exactly p times")
    add_p(sp)
    sp.add_argument("--method", choices=("formula", "oracle", "both"), default="both")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_delta)

    sp = sub.add_parser("check-core", help="test a self-conjugate partition for p-core-ness both ways")
    sp.add_argument("partition", help="partition (or delta lengths with --from-delta)")
    sp.add_argument("--from-delta", action="store_true")
    add_p(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_check_core)

    sp = sub.add_parser("render", help="ASCII abacus with the axis marked")
    sp.add_argument("partition")
    add_p(sp)
    sp.set_defaults(func=cmd_render)

    sp = sub.add_parser("verify", help="exhaustive formula-vs-diagram sweep")
    sp.add_argument("--n-max", type=int, default=20)
    sp.add_argument("--primes", default="3,5,7", help="comma-separated moduli")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _split_quotients(argv: list[str]) -> tuple[list[str], list[str] | None]:
    """A `delta` line without its --quotient options, and their values in order.

    argparse rescans every option index per option it consumes, O(k^2) in k
    options, and a query at modulus p has p of them. A line stays whole, with
    values None, unless each --quotient is spelled `--quotient VALUE`, follows
    `delta` or an argument, and has an argument for value, and no `--` or other
    `--q...` token (`--quotient=VALUE`, `--quot`) occurs: then argparse reads the rest.
    """
    whole = argv, None
    if not argv or argv[0] != "delta" or "--" in argv:
        return whole
    rest, values = ["delta"], []
    after_arg = True  # `delta` is no option, so nothing before the first token awaits a value
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--quotient":
            value = next(tokens, "-")  # a missing value is refused like an option
            if not after_arg or value.startswith("-"):
                return whole
            values.append(value)
        elif token.startswith("--q"):
            return whole
        else:
            rest.append(token)
            after_arg = not token.startswith("-")
    return rest, values


def main(argv=None) -> int:
    rest, quotients = _split_quotients(sys.argv[1:] if argv is None else argv)
    args = _parser().parse_args(rest)
    if quotients is not None:
        args.quotient = quotients
    try:  # the modulus rule, for every command before any of them builds anything; verify computes with args.moduli
        args.moduli = list(map(require_modulus, [args.p] if hasattr(args, "p") else parse_int_list(args.primes)))
        return args.func(args)
    except DiagHookError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # a bug, not bad input: keep exit 1 for "routes disagreed"
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 7
