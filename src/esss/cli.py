"""Command line interface: compute pages, print homotopy groups, run checks.

All configuration is via flags (no environment variables) and identical
flags produce byte-identical output.
"""
from __future__ import annotations

import argparse
import sys

from .basechange import compare_e1, compare_e2
from .charts import chart_svg
from .engine import PageWindow, WindowError, run
from .fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq, parse_field
from .groups import TriDegree
from .numthy import NU_INFINITY, bernoulli_denom_two_part, nu2
from .pitable import assemble_pi, compute_pi_group, bernoulli_witness_order
from .serialize import (document_json, page_document, page_markdown,
                        pi_document, pi_markdown)


def _parse_range(flag: str, text: str):
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{flag} expects an integer range a..b, got {text!r}") from None


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
                       support=tuple(int(p) for p in args.support.split(",")) if args.support else None)


def _add_field_flags(sub):
    sub.add_argument("--field", required=True, choices=["c", "fq", "qq", "q2", "r", "q"])
    sub.add_argument("--q", type=int, default=None)
    sub.add_argument("--support", default=None, help="comma-separated primes for Q")
    sub.add_argument("--spectrum", required=True, choices=["kq", "L"])


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    try:
        field = _field_from_args(args)
        s_lo, s_hi = _parse_range("--s", args.s)
        f_lo, f_hi = _parse_range("--f", args.f)
        w_lo, w_hi = _parse_range("--w", args.w)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    window = PageWindow(s_lo, s_hi, f_lo, f_hi, w_lo, w_hi)
    want_page = args.page
    try:
        if want_page == "1":
            from .engine import build_page1
            page = build_page1(field, args.spectrum, window)
            result = None
        else:
            result = run(field, args.spectrum, window, rule_file=args.rules,
                         want_einf=(want_page == "inf"))
            if want_page == "inf":
                page = result.einf
            else:
                page = result.pages[1]
    except WindowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        _emit(document_json(page_document(page, result, window)), args.output)
    elif args.format == "md":
        _emit(page_markdown(page, result, window), args.output)
    else:
        _emit(chart_svg(page, (s_lo, s_hi), (f_lo, f_hi)), args.output)
    return 0


def cmd_pi(args) -> int:
    try:
        field = _field_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        table = compute_pi_group(field, args.spectrum, args.stem, args.weight,
                                 rule_file=args.rules)
    except (WindowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "md":
        _emit(pi_markdown(table), args.output)
    elif args.format == "json":
        _emit(document_json(pi_document(table)), args.output)
    else:
        _emit(table.group_text(args.stem, args.weight) + "\n", args.output)
    return 0


def _report(lines, ok: bool, label: str, citation: str):
    mark = "PASS" if ok else "FAIL"
    lines.append(f"[{mark}] {label}  ({citation})")
    return ok


def check_oracles(lines) -> bool:
    from .coefficients import coeff_classes
    from .oracles import les_oracle, mass_hz2n_oracle

    fields = [ALG_CLOSED, Fq(3), Fq(5), Fq(7), Fq(13), Qq(3), Qq(5), Q2, REALS,
              Q((2, 3, 5, 7))]
    ok = True
    for field in fields:
        good = True
        for n in (1, 2, 3, 4, NU_INFINITY):
            for s in range(-4, 1):
                for w in range(-12, 1):
                    a = sorted(cs.order for cs in mass_hz2n_oracle(field, n, s, w))
                    b = sorted(cs.order for cs in coeff_classes(field, n, s, w))
                    good = good and a == b
        ok &= _report(lines, good, f"tower oracle = closed form over {field.text()}",
                      "mod-2 tower spectral sequence")
    for field in (ALG_CLOSED, REALS):
        good = True
        for n in (1, 2, 3, 4, NU_INFINITY):
            for s in range(-4, 1):
                for w in range(-12, 1):
                    a = sorted(cs.order for cs in les_oracle(field, n, s, w))
                    b = sorted(cs.order for cs in coeff_classes(field, n, s, w))
                    good = good and a == b
        ok &= _report(lines, good, f"long exact sequence = closed form over {field.text()}",
                      "multiplication by 2^n")
    return ok


def check_ddzero(lines) -> bool:
    from .engine import build_page1, _kq_degree, _L_degree
    from .groups import d_shift
    from .homalg import mat_mul

    fields = [ALG_CLOSED, Fq(3), Fq(5), Fq(7), Fq(13), Qq(3), Qq(5), Q2, REALS,
              Q((2, 3, 5, 7))]
    window = PageWindow(-4, 16, 0, 18, -10, 9)
    ok = True
    for field in fields:
        for spectrum in ("kq", "L"):
            good = True
            page = build_page1(field, spectrum, window)
            for deg, dd in page.data.items():
                tgt = page.data.get(deg + d_shift(1))
                if tgt is None or dd.diff is None or tgt.diff is None:
                    continue
                prod = mat_mul(tgt.diff, dd.diff)
                deg2 = deg + d_shift(1) + d_shift(1)
                basis = (_kq_degree(field, deg2) if spectrum == "kq"
                         else _L_degree(field, deg2)[0])
                for i, row in enumerate(prod):
                    o = basis[i].order
                    for v in row:
                        if (o and v % o) or (not o and v):
                            good = False
            ok &= _report(lines, good, f"d after d vanishes: {spectrum} over {field.text()}",
                          "required complex property")
    return ok


def check_hasse(lines) -> bool:
    src = Q((2, 3, 5, 7))
    dsts = [REALS, Q2, Qq(3), Qq(5), Qq(7)]
    degs = [TriDegree(s, f, w) for s in range(-3, 10) for f in range(0, 10)
            if (s + f) % 2 == 0 and s + f >= 0
            for w in range(-3, (s + f) // 2 + 1)]
    ok = True
    for spectrum in ("kq", "L"):
        rep = compare_e1(src, dsts, spectrum, degs)
        ok &= _report(lines, rep.all_injective,
                      f"first-page product map injective for {spectrum}",
                      "motivic local-global comparison")
        ok &= _report(lines, rep.all_commute,
                      f"designated blocks intertwine d1 for {spectrum}",
                      "comparison with the completions")
        win = PageWindow(-3, 10, 0, 10, -3, 5)
        spage = run(src, spectrum, win, want_einf=False).pages[1]
        dpages = [run(d, spectrum, win, want_einf=False).pages[1] for d in dsts]
        rep2 = compare_e2(src, dsts, spectrum, spage, dpages, list(spage.data))
        ok &= _report(lines, rep2.all_injective,
                      f"second-page product map injective for {spectrum}",
                      "differentials are lifted from the completions")
    return ok


def check_bernoulli(lines, kmax=16) -> bool:
    ok = True
    for field in (ALG_CLOSED, Fq(3), Fq(5), Q2):
        good = True
        for k in range(1, kmax + 1):
            bound = bernoulli_denom_two_part(k)
            if bound != 2 ** (nu2(k) + 3):
                good = False
            if bernoulli_witness_order(field, k) < bound:
                good = False
        ok &= _report(lines, good,
                      f"image-of-J torsion embeds over {field.text()} (k <= {kmax})",
                      "2-part of denom(B_2k/4k)")
    return ok


def check_goldens(lines) -> bool:
    import importlib.resources as res

    ok = True
    win = PageWindow(0, 12, 0, 14, -8, 7)
    result = run(ALG_CLOSED, "kq", win)
    doc = document_json(page_document(result.einf, result))
    want = res.files("esss").joinpath("goldens/kq_closed_einf.json").read_text()
    ok &= _report(lines, doc == want, "collapsed page of kq over the closure, stems 0..12",
                  "hand-checked golden file")
    table = assemble_pi(run(Fq(5), "L", PageWindow(-2, 8, 0, 13, -4, 5)).einf,
                        (-2, 6), (-3, 4))
    md = pi_markdown(table)
    want = res.files("esss").joinpath("goldens/L_f5_pi.md").read_text()
    ok &= _report(lines, md == want, "homotopy table of L over F5, stems -2..6",
                  "hand-checked golden file")
    return ok


def cmd_check(args) -> int:
    lines = []
    suites = {
        "oracles": check_oracles,
        "ddzero": check_ddzero,
        "hasse": check_hasse,
        "bernoulli": lambda ls: check_bernoulli(ls, kmax=args.kmax),
        "goldens": check_goldens,
    }
    fn = suites[args.suite]
    ok = fn(lines)
    for line in lines:
        print(line)
    print("suite", args.suite + ":", "PASS" if ok else "FAIL")
    return 0 if ok else 1


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


if __name__ == "__main__":
    sys.exit(main())
