"""Command-line front end.

Every subcommand is a thin wrapper over one library operation and produces
deterministic output: the same invocation (including seed) writes byte-iden-
tical files.  Output formats are csv (default), json, and plain; plain is for
reading, not parsing.  Tables and listings are written line by line as they
are formed, so their memory does not grow with their length.  The exact
values of pmf and gf are the reduced Decimal pairs the series recurrence
yields as each row is written, a cumulative as 1 less a pair of the tail
series; pmf's brute and both modes feed the same recurrence from the
strict counting DP, one length at a time, so no pmf or gf value meets the
interpreter's limit on converting integers to text.  Decimal columns round
in a context the command makes.

Exit codes: 0 success, 1 word-is-not-a-superpattern (check), 2 parse/usage
error, 3 enumeration budget exceeded, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Context
from itertools import chain, islice, repeat, tee
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import oeis
from .classify import (
    QUATERNARY_EXAMPLE,
    BudgetExceededError,
    CountReport,
    classify,
    count_formulas,
    ends_with_minimum_superpattern,
    has_flanking_pairs,
    is_superpattern,
    iter_strict_minimal_upto_iso,
    iter_strict_superpatterns,
    iter_superpatterns,
    missing_patterns,
    verify_quaternary_counterexample,
    _minimal_listing,
    _strict_counts,
)
from .patterns import Pattern, Word, contains_pattern
from .series import _EXACT, _recurrence, _tail_series, moments_from_gf
from .waiting import (
    _supported_gf,
    coupon_expectations,
    simulate_tau,
    waiting_time_gf,
)

EXIT_OK = 0
EXIT_NOT_SUPERPATTERN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY_FAILED = 4


def format_decimal(value: tuple, context: Context) -> str:
    """A reduced pair written as a decimal by `context` alone, for display only."""
    return context.to_sci_string(context.divide(*value))


def _fraction_text(value: tuple) -> str:
    """A reduced pair as str(Fraction) writes it: the numerator alone when
    the denominator is 1."""
    numerator, denominator = value
    return f"{numerator}" if denominator == 1 else f"{numerator}/{denominator}"


def _emit(pieces: Iterable[str], out: Optional[str]) -> None:
    """Write text to the file or to stdout piece by piece, as it is formed."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _json(value: object) -> list[str]:
    """A JSON document as one piece."""
    return [json.dumps(value, indent=2) + "\n"]


def _csv(header: str, rows: Iterable[str]) -> Iterator[str]:
    """A CSV table line by line: the header, then each row as it is formed."""
    yield header + "\n"
    for row in rows:
        yield row + "\n"


def _csv_word(word: str) -> str:
    """A word as one CSV field: a comma-form word (d > 9) is quoted, RFC 4180
    style.  Words hold only digits and commas, so no quote needs doubling."""
    return f'"{word}"' if "," in word else word


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(sub: argparse.ArgumentParser, *, budget: bool = False) -> None:
    sub.add_argument("--format", choices=("csv", "json", "plain"), default="csv")
    sub.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    if budget:
        sub.add_argument(
            "--budget",
            type=_positive_int,
            help="most words B a listing may print, with at most B * (B.bit_length() + 1) letters"
            " (default B = 2^24)",
        )


# --- check --------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    word = Word.parse(args.word, alphabet_size=args.d)
    flags = classify(word, args.k)
    # A superpattern misses nothing; search the patterns again only otherwise.
    missing = [] if flags.is_superpattern else [str(p) for p in missing_patterns(word, args.k)]
    if args.format == "json":
        pieces = _json(
            {
                "word": str(word),
                "k": args.k,
                "d": word.alphabet_size,
                "is_superpattern": flags.is_superpattern,
                "is_minimal": flags.is_minimal,
                "is_strict": flags.is_strict,
                "is_minimum": flags.is_minimum,
                "missing_patterns": missing,
            }
        )
    elif args.format == "csv":
        pieces = _csv(
            "word,k,d,is_superpattern,is_minimal,is_strict,is_minimum,missing_patterns",
            [
                f"{_csv_word(str(word))},{args.k},{word.alphabet_size},{flags.is_superpattern},"
                f"{flags.is_minimal},{flags.is_strict},{flags.is_minimum},"
                f"{';'.join(missing)}"
            ],
        )
    else:
        lines = [
            f"word {word} (alphabet 1..{word.alphabet_size}, k={args.k})",
            f"  superpattern: {flags.is_superpattern}",
            f"  minimal:      {flags.is_minimal}",
            f"  strict:       {flags.is_strict}",
            f"  minimum:      {flags.is_minimum}",
        ]
        if missing:
            lines.append(f"  missing patterns: {' '.join(missing)}")
        pieces = ["\n".join(lines) + "\n"]
    _emit(pieces, args.out)
    return EXIT_OK if flags.is_superpattern else EXIT_NOT_SUPERPATTERN


# --- enumerate ------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.filter != "all" and (args.d, args.k) != (3, 3):
        raise ValueError(f"--filter {args.filter} is defined only for --d 3 --k 3")
    full = args.scope == "full"
    if args.filter == "all":
        words = iter_superpatterns(args.d, args.k, args.n, canonical=not full, budget=args.budget)
    else:
        words = _minimal_listing(args.n, args.filter == "strict-minimal", args.budget, () if full else (1, 2))
    # The walker refuses before its first word, so a refused listing, whose
    # first word is formed before anything is opened, writes nothing.
    first = list(islice(words, 1))
    _emit(_listing(chain(first, words), args.format), args.out)
    return EXIT_OK


def _listing(words: Iterable[Word], fmt: str) -> Iterator[str]:
    """A listing line by line, each word as it is yielded and the count
    after the words."""
    count = 0
    if fmt == "json":
        # The bytes json.dumps({"words": [...], "count": count}, indent=2) gives.
        yield '{\n  "words": ['
        for count, word in enumerate(words, 1):
            yield ("\n    " if count == 1 else ",\n    ") + json.dumps(str(word))
        yield ("\n  ]" if count else "]") + f',\n  "count": {count}\n}}\n'
        return
    csv = fmt == "csv"
    if csv:
        yield "word\n"
    for count, word in enumerate(words, 1):
        yield (_csv_word(str(word)) if csv else str(word)) + "\n"
    yield f"{'# ' if csv else ''}count: {count}\n"


# --- counts ---------------------------------------------------------------------


def _require_printable_counts(n: int) -> None:
    """Refuse, before any work, an --n-to whose row could exceed the
    interpreter's limit on converting integers to text.

    The row's largest value is s_total = 6 s_a, and every column grows with
    n.  With N = n - 2, s_a sums ((j-2)^2 - 2) C(N, j) over j = 5..N, each
    weight at least 7, so s_a >= 7 (2^N - sum_{j<=4} C(N, j)) >= 7 * 2^(N-1)
    once N >= 9, and s_total > 2^(N+4).  Past the limit's bit length that
    bound decides at once; only near it is s_a formed exactly, from its
    closed form.
    """
    limit = sys.get_int_max_str_digits()
    if not limit or n < 7:
        return
    # N + 4 = n + 2.  The limit is at least 640 digits, so N is far above 9
    # wherever the bound decides; the extra bit covers the logarithm's rounding.
    if n + 2 > limit * math.log2(10) + 1 or count_formulas(n).s_total >= 10**limit:
        raise ValueError(
            f"--n-to {n}: s_total passes the {limit}-digit limit on converting integers to text"
        )


def cmd_counts(args: argparse.Namespace) -> int:
    if args.n_from > args.n_to:
        raise ValueError("--n-from must not exceed --n-to")
    _require_printable_counts(args.n_to)
    # The first row is formed before anything is written, so that a refused
    # --n-from writes nothing.
    reports = map(count_formulas, range(args.n_from, args.n_to + 1))
    reports = chain([next(reports)], reports)
    names = CountReport.__match_args__
    values = attrgetter(*names)
    if args.format == "json":
        # The bytes json.dumps(rows, indent=2) gives for the whole list.
        rows = ("  " + json.dumps(dict(zip(names, values(r))), indent=2).replace("\n", "\n  ") for r in reports)
        pieces = chain(["[\n", next(rows)], (",\n" + row for row in rows), ["\n]\n"])
    else:
        pieces = _csv(",".join(names), (",".join(map(str, values(r))) for r in reports))
    _emit(pieces, args.out)
    return EXIT_OK


# --- pmf ------------------------------------------------------------------------


def cmd_pmf(args: argparse.Namespace) -> int:
    d, n_max = args.d, args.n
    # Refuses an unsolved alphabet, then an n below the support, also in
    # brute mode.
    gf = _supported_gf(d, n_max)
    if args.mode != "exact":
        # count_n / d^n and P(tau > n) = C_n / d^n, C_n = d C_{n-1} - count_n, C_0 = 1,
        # both fed by one DP a length at a time; it makes the DFA before any output.
        counts, negated = tee(_strict_counts(d, d, n_max))
        tails = _recurrence([-d], chain([1], (-c for c in negated)), 1, d)
        brute = islice(zip(_recurrence([], chain([0], counts), 1, d), tails), 1, n_max + 1)
    if args.mode == "brute":
        rows = zip(brute, repeat(None))
    else:
        exact = islice(zip(gf.expand(), _tail_series(gf).expand()), 1, n_max + 1)
        rows = zip(exact, (p for p, _ in brute) if args.mode == "both" else repeat(None))
    # A cumulative is 1 less its row's tail pair, in lowest terms as that is.
    rows = ((p, (_EXACT.subtract(den, num), den), (num, den), b) for (p, (num, den)), b in rows)
    if args.format == "json":
        pieces = _pmf_json(d, n_max, rows)
    else:
        pieces = _pmf_csv(rows, Context(prec=args.digits), args.mode == "both")
    _emit(pieces, args.out)
    return EXIT_OK


def _pmf_csv(rows: Iterable, context: Context, both: bool) -> Iterator[str]:
    """The pmf table line by line, each row as it is formed, and the tail
    row from the last."""
    yield "n,probability_exact,probability_decimal,cumulative_exact" + (",brute_exact,match\n" if both else "\n")
    for n, (p, cumulative, tail, b) in enumerate(rows, 1):
        yield f"{n},{_fraction_text(p)},{format_decimal(p, context)},{_fraction_text(cumulative)}" + (
            "\n" if b is None else f",{_fraction_text(b)},{p == b}\n"
        )
    yield f"tail,{_fraction_text(tail)},{format_decimal(tail, context)},1" + (",,\n" if both else "\n")


def _pmf_json(d: int, n_max: int, rows: Iterable) -> Iterator[str]:
    """The bytes json.dumps({"d", "k", "n_max", "rows", "tail"}, indent=2)
    gives, each row as it is formed."""
    yield f'{{\n  "d": {d},\n  "k": {d},\n  "n_max": {n_max},\n  "rows": ['
    for n, (p, cumulative, tail, b) in enumerate(rows, 1):
        row = {"n": n, "probability": _fraction_text(p), "cumulative": _fraction_text(cumulative)}
        if b is not None:
            row |= {"brute_force": _fraction_text(b), "match": p == b}
        yield ("\n    " if n == 1 else ",\n    ") + json.dumps(row, indent=2).replace("\n", "\n    ")
    yield f'\n  ],\n  "tail": {json.dumps(_fraction_text(tail))}\n}}\n'


# --- moments --------------------------------------------------------------------


def cmd_moments(args: argparse.Namespace) -> int:
    mean, variance = moments_from_gf(waiting_time_gf(args.d))
    context = Context(prec=args.digits)
    mean_decimal, variance_decimal = (format_decimal(v.as_integer_ratio(), context) for v in (mean, variance))
    if args.format == "json":
        pieces = _json(
            {
                "d": args.d,
                "k": args.d,
                "mean": str(mean),
                "mean_decimal": mean_decimal,
                "variance": str(variance),
                "variance_decimal": variance_decimal,
            }
        )
    elif args.format == "csv":
        pieces = _csv(
            "quantity,exact,decimal",
            [
                f"mean,{mean},{mean_decimal}",
                f"variance,{variance},{variance_decimal}",
            ],
        )
    else:
        pieces = [
            f"mean     = {mean} = {mean_decimal}\n",
            f"variance = {variance} = {variance_decimal}\n",
        ]
    _emit(pieces, args.out)
    return EXIT_OK


# --- gf -------------------------------------------------------------------------


def cmd_gf(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ValueError("--n must be at least 0")
    coefficients = enumerate(islice(waiting_time_gf(args.d).expand(), args.n + 1))
    if args.format == "json":
        # The bytes json.dumps({"d": d, "coefficients": {n: c}}, indent=2) gives.
        pieces = chain(
            [f'{{\n  "d": {args.d},\n  "coefficients": {{'],
            (f'{"," if n else ""}\n    "{n}": {json.dumps(_fraction_text(c))}' for n, c in coefficients),
            ["\n  }\n}\n"],
        )
    else:
        pieces = _csv("n,coefficient", (f"{n},{_fraction_text(c)}" for n, c in coefficients))
    _emit(pieces, args.out)
    return EXIT_OK


# --- simulate -------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    summary = simulate_tau(args.d, args.k, args.trials, args.seed)
    if args.format == "json":
        pieces = _json(
            {
                "d": summary.d,
                "k": summary.k,
                "trials": summary.trials,
                "seed": summary.seed,
                "mean": summary.sample_mean,
                "variance": summary.sample_variance,
                "histogram": {str(n): c for n, c in summary.histogram.items()},
            }
        )
    elif args.format == "csv":
        pieces = _csv("n,count", (f"{n},{c}" for n, c in summary.histogram.items()))
    else:
        lines = [
            f"d={summary.d} k={summary.k} trials={summary.trials} seed={summary.seed}",
            f"sample mean     = {summary.sample_mean}",
            f"sample variance = {summary.sample_variance}",
            "histogram:",
        ]
        lines += [f"  {n}: {c}" for n, c in summary.histogram.items()]
        pieces = ["\n".join(lines) + "\n"]
    _emit(pieces, args.out)
    return EXIT_OK


# --- verify ---------------------------------------------------------------------


def _structure_checks(n_max: int, budget: Optional[int]) -> list[tuple[str, bool]]:
    checks = []
    for n in range(7, n_max + 1):
        ok = all(has_flanking_pairs(w) for w in iter_strict_superpatterns(3, 3, n, budget))
        checks.append((f"flanking-pairs-on-strict n={n}", ok))
    for n in range(8, n_max + 1):
        ok = all(ends_with_minimum_superpattern(w) for w in iter_strict_minimal_upto_iso(n, budget))
        checks.append((f"terminal-minimum-on-strict-minimal n={n}", ok))
    return checks


def _oeis_checks() -> list[tuple[str, bool]]:
    return [
        (f"{c.label} n={c.n} ({c.computed} vs {c.reference})", c.ok)
        for c in oeis.check_reference_sequences()
    ]


def _counterexample_checks() -> list[tuple[str, bool]]:
    w = QUATERNARY_EXAMPLE
    return [
        ("quaternary-example contains 1234", contains_pattern(w, Pattern.parse("1234"))),
        ("quaternary-example prefix not a superpattern", not is_superpattern(w.prefix(14), 4)),
        ("quaternary strict superpattern without embedded minimum", verify_quaternary_counterexample()),
    ]


def cmd_verify(args: argparse.Namespace) -> int:
    checks: list[tuple[str, bool]] = []
    if args.suite in ("structure", "all"):
        if args.n < 7:
            raise ValueError("the structure suite needs --n of at least 7")
        checks += _structure_checks(args.n, args.budget)
    if args.suite in ("oeis", "all"):
        checks += _oeis_checks()
    if args.suite in ("counterexample", "all"):
        checks += _counterexample_checks()
    if args.format == "json":
        pieces = _json([{"check": name, "ok": ok} for name, ok in checks])
    elif args.format == "csv":
        pieces = _csv("check,ok", (f"{name},{ok}" for name, ok in checks))
    else:
        pieces = [f"{'ok  ' if ok else 'FAIL'} {name}\n" for name, ok in checks]
    _emit(pieces, args.out)
    return EXIT_OK if all(ok for _, ok in checks) else EXIT_VERIFY_FAILED


# --- coupons --------------------------------------------------------------------


def cmd_coupons(args: argparse.Namespace) -> int:
    d = args.d
    limit = sys.get_int_max_str_digits()
    too_long = ValueError(
        f"coupons --d {d}: the exact expectations pass the {limit}-digit limit"
        f" on converting integers to text"
    )
    # The denominator of single, the sum of d/j for j = 1..d, is a multiple
    # of each prime p in (d/2, d): p divides the term j = p and no other.
    # For d >= 41, Rosser and Schoenfeld's bounds on the sum of log p over
    # primes put the log of their product above nats.
    if limit and d >= 41:
        nats = d * (1 - 1 / math.log(d)) - d / 2 * (1 + 1 / (2 * math.log(d / 2))) - math.log(d)
        if nats > (limit + 1) * math.log(10):
            raise too_long
    single, all_words = coupon_expectations(d, args.k)
    if limit and max(*single.as_integer_ratio(), *all_words.as_integer_ratio()) >= 10**limit:
        raise too_long
    context = Context(prec=args.digits)
    single_decimal, all_decimal = (format_decimal(v.as_integer_ratio(), context) for v in (single, all_words))
    if args.format == "json":
        pieces = _json(
            {
                "d": args.d,
                "k": args.k,
                "single_collection": str(single),
                "all_words": str(all_words),
            }
        )
    elif args.format == "csv":
        pieces = _csv(
            "quantity,exact,decimal",
            [
                f"single_collection,{single},{single_decimal}",
                f"all_words,{all_words},{all_decimal}",
            ],
        )
    else:
        pieces = [
            f"single coupon collection: {single} = {single_decimal}\n",
            f"all length-{args.k} words:  {all_words} = {all_decimal}\n",
        ]
    _emit(pieces, args.out)
    return EXIT_OK


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superpatterns",
        description="Superpattern classification, enumeration, and waiting-time distributions.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="classify a word and list its missing patterns")
    p.add_argument("word", help="word in digit-string form (comma-separated beyond 9 letters)")
    p.add_argument("--k", type=int, default=3, help="pattern length (default 3)")
    p.add_argument("--d", type=int, help="alphabet size (default: largest letter)")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("enumerate", help="list superpatterns of one length")
    p.add_argument("--n", type=int, required=True, help="word length")
    p.add_argument("--filter", choices=("all", "minimal", "strict-minimal"), default="strict-minimal")
    p.add_argument("--scope", choices=("upto-iso", "full"), default="upto-iso", help=(
        "upto-iso: one word per letter-isomorphism class, in first-occurrence canonical form (with --filter"
        " all only for k = 1, k > d or d = k <= 4, where relabelling keeps superpatterns); full: every word"))
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_enumerate)

    p = subs.add_parser("counts", help="closed-form superpattern counts per length")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_counts)

    p = subs.add_parser("pmf", help="waiting-time probability mass function")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, required=True, help="truncate the table at this length")
    p.add_argument("--mode", choices=("exact", "brute", "both"), default="exact")
    p.add_argument("--digits", type=_positive_int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_pmf)

    p = subs.add_parser("moments", help="exact mean and variance of the waiting time")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--digits", type=_positive_int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = subs.add_parser("gf", help="series coefficients of the waiting-time generating function")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n", type=int, required=True, help="highest coefficient order")
    _add_common(p)
    p.set_defaults(func=cmd_gf)

    p = subs.add_parser("simulate", help="seeded Monte Carlo estimate of the waiting time")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--suite", choices=("structure", "oeis", "counterexample", "all"), default="all")
    p.add_argument("--n", type=int, default=10, help="length ceiling for the structure suite")
    _add_common(p, budget=True)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("coupons", help="coupon-collector expectation baselines")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--digits", type=_positive_int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_coupons)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
