"""Verification checks shared by `esss check` and the acceptance suite.

The checks return what they found (mismatching inputs, failing degrees,
comparison reports); each `*_suite` function runs one `esss check` suite
on its own window, appends one report line per check and returns whether
all passed.  The acceptance tests call the same checks on their windows.
"""
from __future__ import annotations

import importlib.resources as res

from .basechange import compare_e1, compare_e2
from .coefficients import coeff_classes
from .engine import PageWindow, page1_basis, page1_d1, run
from .fields import ALG_CLOSED, Q2, REALS, Fq, Q, Qq
from .groups import d_shift
from .homalg import composite_failure
from .numthy import NU_INFINITY, bernoulli_denom_two_part, nu2
from .oracles import les_oracle, mass_hz2n_oracle
from .pitable import assemble_pi, bernoulli_witness_order
from .serialize import document_json, page_document, pi_markdown

TEN_FIELDS = [ALG_CLOSED, Fq(3), Fq(5), Fq(7), Fq(13), Qq(3), Qq(5), Q2, REALS,
              Q((2, 3, 5, 7))]
HASSE_SRC = Q((2, 3, 5, 7))
HASSE_DSTS = [REALS, Q2, Qq(3), Qq(5), Qq(7)]


def _report(lines, ok: bool, label: str, citation: str):
    mark = "PASS" if ok else "FAIL"
    lines.append(f"[{mark}] {label}  ({citation})")
    return ok


def oracle_mismatches(oracle, field):
    """(n, s, w) where an oracle's orders differ from the closed form, for
    n = 1..4 and infinity, stems -4..0 and weights -12..0."""
    out = []
    for n in (1, 2, 3, 4, NU_INFINITY):
        for s in range(-4, 1):
            for w in range(-12, 1):
                got = sorted(cs.order for cs in oracle(field, n, s, w))
                want = sorted(cs.order for cs in coeff_classes(field, n, s, w))
                if got != want:
                    out.append((n, s, w))
    return out


def dd_failures(field, spectrum: str, degrees):
    """d1 after d1 from each of `degrees`, modulo the orders it lands in.

    Returns the number of composites checked (sources with a nonzero d1)
    and the source degrees whose composite is nonzero.  Each d1 is read
    once per call as rows of dicts.
    """
    sparse = {}

    def rows(deg):
        hit = sparse.get(deg)
        if hit is None:
            hit = sparse[deg] = [{j: v for j, v in enumerate(row) if v}
                                 for row in page1_d1(field, spectrum, deg)]
        return hit

    step = d_shift(1)
    checked, failures = 0, []
    for deg in degrees:
        if not page1_basis(field, spectrum, deg):
            continue
        first = rows(deg)
        if not any(first):
            continue
        mid = deg + step
        end = page1_basis(field, spectrum, mid + step)
        if composite_failure(first, rows(mid), [cs.order for cs in end]):
            failures.append(deg)
        checked += 1
    return checked, failures


def hasse_reports(spectrum: str, degrees, window: PageWindow):
    """First- and second-page comparison reports of Q(2,3,5,7) into R, Q2,
    Q3, Q5 and Q7: compare_e1 on `degrees`, compare_e2 on every degree of
    the source's second page over `window`."""
    rep1 = compare_e1(HASSE_SRC, HASSE_DSTS, spectrum, degrees)
    spage = run(HASSE_SRC, spectrum, window, want_einf=False).pages[1]
    dpages = [run(d, spectrum, window, want_einf=False).pages[1] for d in HASSE_DSTS]
    rep2 = compare_e2(HASSE_SRC, HASSE_DSTS, spectrum, spage, dpages, list(spage.data))
    return rep1, rep2


def oracles_suite(lines) -> bool:
    ok = True
    for field in TEN_FIELDS:
        ok &= _report(lines, not oracle_mismatches(mass_hz2n_oracle, field),
                      f"tower oracle = closed form over {field.text()}",
                      "mod-2 tower spectral sequence")
    for field in (ALG_CLOSED, REALS):
        ok &= _report(lines, not oracle_mismatches(les_oracle, field),
                      f"long exact sequence = closed form over {field.text()}",
                      "multiplication by 2^n")
    return ok


def ddzero_suite(lines) -> bool:
    # the first page's padded window, composites starting inside it
    padded = PageWindow(-4, 16, 0, 18, -10, 9).pad(1, 3)
    degrees = [deg for deg in padded.degrees() if deg + d_shift(1) in padded]
    ok = True
    for field in TEN_FIELDS:
        for spectrum in ("kq", "L"):
            ok &= _report(lines, not dd_failures(field, spectrum, degrees)[1],
                          f"d after d vanishes: {spectrum} over {field.text()}",
                          "required complex property")
    return ok


def hasse_suite(lines) -> bool:
    degrees = list(PageWindow(-3, 9, 0, 9, -3, 9).degrees())
    ok = True
    for spectrum in ("kq", "L"):
        rep1, rep2 = hasse_reports(spectrum, degrees, PageWindow(-3, 10, 0, 10, -3, 5))
        for good, label, citation in (
                (rep1.all_injective, "first-page product map injective",
                 "motivic local-global comparison"),
                (rep1.all_commute, "designated blocks intertwine d1",
                 "comparison with the completions"),
                (rep2.all_injective, "second-page product map injective",
                 "differentials are lifted from the completions")):
            ok &= _report(lines, good, f"{label} for {spectrum}", citation)
    return ok


def bernoulli_suite(lines, kmax=16) -> bool:
    ok = True
    for field in (ALG_CLOSED, Fq(3), Fq(5), Q2):
        # the 2-part of denom(B_2k/4k) is 2^(nu2(k)+3), and a witness reaches it
        good = all(bernoulli_denom_two_part(k) == 2 ** (nu2(k) + 3)
                   <= bernoulli_witness_order(field, k) for k in range(1, kmax + 1))
        ok &= _report(lines, good,
                      f"image-of-J torsion embeds over {field.text()} (k <= {kmax})",
                      "2-part of denom(B_2k/4k)")
    return ok


def goldens_suite(lines) -> bool:
    goldens = res.files("esss") / "goldens"
    result = run(ALG_CLOSED, "kq", PageWindow(0, 12, 0, 14, -8, 7))
    doc = document_json(page_document(result.einf, result))
    ok = _report(lines, doc == (goldens / "kq_closed_einf.json").read_text(),
                 "collapsed page of kq over the closure, stems 0..12", "hand-checked golden file")
    table = assemble_pi(run(Fq(5), "L", PageWindow(-2, 8, 0, 13, -4, 5)).einf,
                        (-2, 6), (-3, 4))
    ok &= _report(lines, pi_markdown(table) == (goldens / "L_f5_pi.md").read_text(),
                  "homotopy table of L over F5, stems -2..6", "hand-checked golden file")
    return ok
