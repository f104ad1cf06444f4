"""The shared verification checks: `esss check` output, and a check that fails."""
import pytest

from esss import engine
from esss.cli import main
from esss.engine import PageWindow, page1_basis, page1_d1
from esss.fields import Fq
from esss.groups import d_shift
from esss.verify import dd_failures

CHECK_OUTPUT = {
    "oracles": [
        "[PASS] tower oracle = closed form over Fbar  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over F3  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over F5  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over F7  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over F13  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over Q3  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over Q5  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over Q2  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over R  (mod-2 tower spectral sequence)",
        "[PASS] tower oracle = closed form over Q(2,3,5,7)  (mod-2 tower spectral sequence)",
        "[PASS] long exact sequence = closed form over Fbar  (multiplication by 2^n)",
        "[PASS] long exact sequence = closed form over R  (multiplication by 2^n)",
        "suite oracles: PASS",
    ],
    "bernoulli": [
        "[PASS] image-of-J torsion embeds over Fbar (k <= 16)  (2-part of denom(B_2k/4k))",
        "[PASS] image-of-J torsion embeds over F3 (k <= 16)  (2-part of denom(B_2k/4k))",
        "[PASS] image-of-J torsion embeds over F5 (k <= 16)  (2-part of denom(B_2k/4k))",
        "[PASS] image-of-J torsion embeds over Q2 (k <= 16)  (2-part of denom(B_2k/4k))",
        "suite bernoulli: PASS",
    ],
    "hasse": [
        "[PASS] first-page product map injective for kq  (motivic local-global comparison)",
        "[PASS] designated blocks intertwine d1 for kq  (comparison with the completions)",
        "[PASS] second-page product map injective for kq  "
        "(differentials are lifted from the completions)",
        "[PASS] first-page product map injective for L  (motivic local-global comparison)",
        "[PASS] designated blocks intertwine d1 for L  (comparison with the completions)",
        "[PASS] second-page product map injective for L  "
        "(differentials are lifted from the completions)",
        "suite hasse: PASS",
    ],
    "goldens": [
        "[PASS] collapsed page of kq over the closure, stems 0..12  (hand-checked golden file)",
        "[PASS] homotopy table of L over F5, stems -2..6  (hand-checked golden file)",
        "suite goldens: PASS",
    ],
}


@pytest.mark.parametrize("suite", sorted(CHECK_OUTPUT))
def test_check_output_is_pinned(suite, capsys):
    assert main(["check", "--suite", suite]) == 0
    assert capsys.readouterr().out == "\n".join(CHECK_OUTPUT[suite]) + "\n"


def test_dd_check_reports_a_corrupted_differential(monkeypatch):
    """Every run passes, so check that the d-after-d check can fail: with
    one odd entry added to a second differential it must name the source."""
    field, step = Fq(3), d_shift(1)
    degrees = list(PageWindow(-4, 16, 0, 18, -10, 9).degrees())
    checked, failures = dd_failures(field, "kq", degrees)
    assert checked > 0 and failures == []
    # a source with an odd d1 entry (i, j) whose composite lands in a nonzero group
    deg, i = next((deg, i) for deg in degrees
                  if page1_basis(field, "kq", deg + step + step)
                  for i, row in enumerate(page1_d1(field, "kq", deg))
                  if any(v % 2 for v in row))
    mid = deg + step
    clean = engine._d1_kq

    def corrupted(f, d):
        M = [list(row) for row in clean(f, d)]
        if d == mid:
            M[0][i] += 1
        return M

    monkeypatch.setattr(engine, "_d1_kq", corrupted)
    _, failures = dd_failures(field, "kq", degrees)
    assert deg in failures
