"""Command line interface: compute pages, print homotopy groups, run checks.

All configuration is via flags (no environment variables) and identical
flags produce byte-identical output.
"""
from __future__ import annotations

import argparse
import os
import sys

from .charts import chart_svg
from .engine import PageWindow, WindowError, build_page1, run
from .fields import parse_field
from .pitable import compute_pi_group, f_bound
from .rules import RuleFileError, parse_rule_file
from .serialize import (document_json, page_document, page_markdown,
                        pi_document, pi_markdown)


def _parse_range(flag: str, text: str):
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} expects an integer range a..b, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"{flag} range {text!r} is reversed: a..b needs a <= b")
    return lo, hi


def _join_negative_ranges(argv):
    """Rewrite `--s -3..25` as `--s=-3..25`: argparse reads -3..25 as a flag."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--s", "--f", "--w") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def _field_from_args(args):
    return parse_field(args.field, q=args.q,
                       support=None if args.support is None
                       else tuple(int(p) for p in args.support.split(",")))


def _add_field_flags(sub):
    sub.add_argument("--field", required=True, choices=["c", "fq", "qq", "q2", "r", "q"])
    sub.add_argument("--q", type=int, default=None)
    sub.add_argument("--support", default=None, help="comma-separated primes for Q")
    sub.add_argument("--spectrum", required=True, choices=["kq", "L"])


def _fail(exc) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _emit(text: str, out: str | None) -> int:
    """Write text to the --output path, or stdout; exit code 2 if either fails."""
    try:
        if not out:
            sys.stdout.write(text)
            return 0
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(exc)
    return 0


def cmd_compute(args) -> int:
    try:
        field = _field_from_args(args)
        s_lo, s_hi = _parse_range("--s", args.s)
        f_lo, f_hi = _parse_range("--f", args.f)
        w_lo, w_hi = _parse_range("--w", args.w)
    except ValueError as exc:
        return _fail(exc)
    window = PageWindow(s_lo, s_hi, f_lo, f_hi, w_lo, w_hi)
    want_page = args.page
    try:
        rules = None if args.rules is None else parse_rule_file(field, args.rules)
        if want_page == "1":
            page = build_page1(field, args.spectrum, window)
            result = None
        else:
            result = run(field, args.spectrum, window, rules, want_einf=(want_page == "inf"))
            page = result.einf if want_page == "inf" else result.pages[1]
    except (WindowError, RuleFileError, OSError) as exc:
        # OSError: a rule file that cannot be read
        return _fail(exc)
    if args.format == "json":
        text = document_json(page_document(page, result, window))
    elif args.format == "md":
        text = page_markdown(page, result, window)
    else:
        text = chart_svg(page, (s_lo, s_hi), (f_lo, f_hi))
    return _emit(text, args.output)


def cmd_pi(args) -> int:
    try:
        field = _field_from_args(args)
    except ValueError as exc:
        return _fail(exc)
    try:
        f_bound(field, args.stem)  # refuses R and Q before their rule file is read
        rules = None if args.rules is None else parse_rule_file(field, args.rules)
        table = compute_pi_group(field, args.spectrum, args.stem, args.weight, rules)
    except (WindowError, RuleFileError, OSError) as exc:  # OSError: an unreadable rule file
        return _fail(exc)
    if args.format == "md":
        text = pi_markdown(table)
    elif args.format == "json":
        text = document_json(pi_document(table))
    else:
        text = table.group_text(args.stem, args.weight) + "\n"
    return _emit(text, args.output)


def cmd_check(args) -> int:
    if args.kmax < 1:
        return _fail(f"--kmax must be at least 1, got {args.kmax}")
    from . import verify  # the checks pull in base change, which no other command needs

    suites = {
        "oracles": verify.oracles_suite,
        "ddzero": verify.ddzero_suite,
        "hasse": verify.hasse_suite,
        "bernoulli": lambda ls: verify.bernoulli_suite(ls, kmax=args.kmax),
        "goldens": verify.goldens_suite,
    }
    lines = []
    ok = suites[args.suite](lines)
    lines.append(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return _emit("".join(line + "\n" for line in lines), None) or (0 if ok else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="esss",
        description="exact effective slice spectral sequence engine for kq and L")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute a page and serialize it")
    _add_field_flags(p_compute)
    p_compute.add_argument("--page", required=True, choices=["1", "2", "inf"])
    p_compute.add_argument("--s", required=True, help="stem range a..b")
    p_compute.add_argument("--f", required=True, help="filtration range a..b")
    p_compute.add_argument("--w", required=True, help="weight range a..b")
    p_compute.add_argument("--format", default="json", choices=["json", "svg", "md"])
    p_compute.add_argument("--rules", default=None, help="higher-differential rule file")
    p_compute.add_argument("--output", "-o", default=None)
    p_compute.set_defaults(func=cmd_compute)

    p_pi = sub.add_parser("pi", help="print one homotopy group")
    _add_field_flags(p_pi)
    p_pi.add_argument("--stem", type=int, required=True)
    p_pi.add_argument("--weight", type=int, required=True)
    p_pi.add_argument("--format", default="text", choices=["text", "md", "json"])
    p_pi.add_argument("--rules", default=None)
    p_pi.add_argument("--output", "-o", default=None)
    p_pi.set_defaults(func=cmd_pi)

    p_check = sub.add_parser("check", help="run a verification suite")
    p_check.add_argument("--suite", required=True,
                         choices=["oracles", "ddzero", "hasse", "bernoulli", "goldens"])
    p_check.add_argument("--kmax", type=int, default=16)
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(_join_negative_ranges(sys.argv[1:] if argv is None else argv))
    return args.func(args)


def console_main():
    """The `esss` command: main(), then os._exit, so that the OS takes back the
    heap whole instead of the interpreter freeing it object by object.  An
    exception or SystemExit out of main() takes the normal exit."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a failed write that _emit reported is not reported again
        code = code or _fail(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
