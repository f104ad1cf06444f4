import re

import pytest

from esss.fields import ALG_CLOSED, Q2, REALS, Fq, Q
from esss.groups import Monomial, d_shift
from esss.rules import d1_components, parse_rule_file, RuleFileError


def texts(monos):
    return sorted(m.text() for m in monos)


def test_seed_differential():
    assert texts(d1_components(ALG_CLOSED, Monomial(v1=2))) == ["h1^3 tau"]
    assert d1_components(ALG_CLOSED, Monomial(v1=4)) == []
    assert texts(d1_components(ALG_CLOSED, Monomial(v1=6, tau=2))) == ["v1^4 h1^3 tau^3"]


def test_degree_of_components():
    shift = d_shift(1)
    for field in (ALG_CLOSED, Fq(3), Q2, REALS, Q((2, 3, 5))):
        for mono in (Monomial(v1=2), Monomial(h1=2, tau=6), Monomial(h1=1, v1=2, tau=3),
                     Monomial(h1=2, tau=7, units=(("rho", 1),) if field.kind in ("r", "q") else ())):
            for tgt in d1_components(field, mono):
                assert tgt.degree() == mono.degree() + shift


def test_reals_tau_square_rule():
    # the second seed: tau^2 on the weight-0 slice maps to rho^2 tau h1
    assert texts(d1_components(REALS, Monomial(tau=2))) == ["rho^2 h1 tau"]
    assert d1_components(REALS, Monomial(tau=4)) == []
    assert texts(d1_components(REALS, Monomial(tau=6))) == ["rho^2 h1 tau^5"]


def test_q2_printed_rules():
    # tau^(4n+2) h1 and tau^(4n+3) h1 map to rho^2 h1^2 tau^(4n+1), tau^(4n+2)
    assert texts(d1_components(Q2, Monomial(h1=1, tau=2))) == ["rho^2 h1^2 tau"]
    assert texts(d1_components(Q2, Monomial(h1=1, tau=3))) == ["rho^2 h1^2 tau^2"]
    assert d1_components(Q2, Monomial(h1=1, tau=4)) == []
    assert d1_components(Q2, Monomial(h1=1, tau=5)) == []
    # tau^i h1^2 for i = 2, 3 mod 4 maps to rho^2 h1^3 tau^(i-1)
    assert texts(d1_components(Q2, Monomial(h1=2, tau=6))) == ["rho^2 h1^3 tau^5"]
    assert texts(d1_components(Q2, Monomial(h1=2, tau=7))) == ["rho^2 h1^3 tau^6"]
    # the integral rho^2 classes of the v1^2 cell map by the tau shift alone
    for n in range(5):
        got = d1_components(Q2, Monomial(v1=2, tau=n, units=(("rho", 2),)))
        assert texts(got) == [Monomial(h1=3, tau=n + 1, units=(("rho", 2),)).text()]


def test_q2_unit_relations_kill_components():
    # u, pi, rho multiples have no rho-square component over the 2-adics
    for sym in ("u", "pi", "rho"):
        got = d1_components(Q2, Monomial(h1=1, tau=2, units=((sym, 1),)))
        assert got == []


def test_q_lifted_rules():
    field = Q((2, 3, 5))
    # [q] and a_q tau-shift families fire exactly like the closed field
    got = d1_components(field, Monomial(v1=2, tau=1, units=(("[3]", 1),)))
    assert texts(got) == ["[3] v1^0 h1^3 tau^2".replace(" v1^0", "")]
    got = d1_components(field, Monomial(v1=2, tau=1, units=(("a_5", 1),)))
    assert texts(got) == ["a_5 h1^3 tau^2"]
    # the tau^2 rule lifts from the reals
    assert texts(d1_components(field, Monomial(tau=2))) == ["rho^2 h1 tau"]
    # no exotic component survives on the [q]/a_q blocks
    assert d1_components(field, Monomial(h1=1, tau=2, units=(("[3]", 1),))) == []
    assert d1_components(field, Monomial(h1=1, tau=2, units=(("a_3", 1),))) == []
    # the integral [q]-block reduces to a_q and carries only the tau shift
    got = d1_components(field, Monomial(v1=2, tau=3, units=(("[3]", 1), ("rho", 1))))
    assert texts(got) == ["a_3 h1^3 tau^4"]


def test_reals_rho_fourth_component():
    # j = 3 mod 4 classes also map into the next slice's integral torsion
    got = d1_components(REALS, Monomial(h1=1, tau=3))
    assert texts(got) == sorted(["rho^2 h1^2 tau^2", "rho^4 v1^2"])
    got = d1_components(REALS, Monomial(h1=2, tau=3))
    assert texts(got) == sorted(["rho^2 h1^3 tau^2", "rho^4 v1^2 h1"])


def test_rule_file_parsing(tmp_path):
    path = tmp_path / "higher.rules"
    path.write_text(
        "# external data\n"
        "d2: iota v1^2 tau^3 -> 1 rho^2 h1^4 tau^3  # worked out elsewhere\n"
        "d3: h1 tau^4 -> 2 rho^4 h1^4 tau^3  # with a coefficient\n"
    )
    rules = parse_rule_file(REALS, str(path))
    assert len(rules) == 2
    assert rules[0].page == 2 and rules[0].source.iota == 1
    assert rules[1].coefficient == 2
    assert rules[1].provenance == "with a coefficient"
    bad = tmp_path / "bad.rules"
    bad.write_text("# header\n\n"
                   "d3: h1 tau^4 if tau = 0 mod 4 -> 2 rho^2 h1^4  # with a condition\n")
    with pytest.raises(RuleFileError, match="line 3: conditions"):
        parse_rule_file(REALS, str(bad))
    bad.write_text("d2: x -> y\n")
    with pytest.raises(RuleFileError, match="provenance"):
        parse_rule_file(REALS, str(bad))
    bad.write_text("d1: h1 -> h1 # too early\n")
    with pytest.raises(RuleFileError, match="external rules start"):
        parse_rule_file(REALS, str(bad))


def test_rule_file_bad_exponent_names_the_line(tmp_path):
    bad = tmp_path / "bad.rules"
    bad.write_text("# header\nd2: iota v1^x tau -> 1 rho h1^2  # a typo\n")
    with pytest.raises(RuleFileError, match=r"line 2: bad exponent in 'v1\^x'"):
        parse_rule_file(REALS, str(bad))
    bad.write_text("d2: 3 iota v1^2 tau -> 1 rho h1^2  # not a 2-power\n")
    with pytest.raises(RuleFileError, match="line 1: coefficient 3"):
        parse_rule_file(REALS, str(bad))
    bad.write_text("d2: 0 h1 tau^2 -> 1 h1^3 tau  # zero is not a 2-power\n")
    with pytest.raises(RuleFileError, match="line 1: coefficient 0"):
        parse_rule_file(REALS, str(bad))
    # each of these loaded over R and named no class
    for line, token in (("d2: tau^-1 -> 1 h1^2 tau^-2 rho^3", "tau^-1"),
                        ("d2: h1^-2 tau^2 -> 1 rho^3 tau", "h1^-2"),
                        ("d2: v1^-2 tau^2 -> 1 rho^5 tau^-1", "v1^-2"),
                        ("d3: h1 tau^1_0 -> 2 rho^4 h1^4 tau^9", "tau^1_0")):
        bad.write_text(f"# header\n{line}  # exponents\n")
        with pytest.raises(RuleFileError, match=rf"line 2: bad exponent in '{re.escape(token)}'"):
            parse_rule_file(REALS, str(bad))
    # a second coefficient, h1, v1, tau or iota overwrote the first
    for source, name in (("2 2 h1 tau^4", "coefficient"), ("h1 tau^2 tau^4", "tau"),
                         ("h1 h1 tau^4", "h1"), ("iota iota h1 tau^4", "iota")):
        bad.write_text(f"d3: {source} -> 2 rho^4 h1^4 tau^3  # repeated\n")
        with pytest.raises(RuleFileError,
                           match=rf"line 1: more than one {name} in '{re.escape(source)}'"):
            parse_rule_file(REALS, str(bad))
    bad.write_text("d3: h1 tau^4 -> 0 rho^4 h1^4 tau^3  # a zero differential\n")
    with pytest.raises(RuleFileError, match="line 1: target coefficient 0"):
        parse_rule_file(REALS, str(bad))
    bad.write_text("d2: v1^3 -> 1 h1  # v1 comes in even powers\n")
    with pytest.raises(RuleFileError, match="line 1: odd power of v1 in 'v1\\^3'"):
        parse_rule_file(REALS, str(bad))


def test_rule_file_refuses_an_empty_source_or_target(tmp_path):
    """An empty side is refused naming its line (an empty source loaded as
    the class 1); the class 1 is written as a literal 1."""
    path = tmp_path / "empty.rules"
    path.write_text("d2: 1 -> 1 iota rho^2 h1^2 # x\n")
    (rule,) = parse_rule_file(Q2, str(path))
    assert rule.source == Monomial() and rule.target.text() == "iota rho^2 h1^2"
    for line, side in (("d2:  -> 1 iota rho^2 h1^2", "source"),
                       ("d2:\t-> iota rho^2 h1^2", "source"),
                       ("d2: iota rho^2 h1^2 -> ", "target")):
        path.write_text(f"# header\n{line} # x\n")
        with pytest.raises(RuleFileError, match=f"line 2: empty {side}$"):
            parse_rule_file(Q2, str(path))


def test_rule_file_coefficients_are_signed_ascii_integers(tmp_path):
    """A target coefficient may carry a minus sign; a coefficient in either
    position is ASCII digits (an Arabic-Indic 3 is decimal to str.isdecimal
    and int, and loaded as 3)."""
    path = tmp_path / "signed.rules"
    for coeff in ("-1", "-2", "3"):
        path.write_text(f"d3: h1 tau^4 -> {coeff} rho^4 h1^4 tau^3  # sign\n")
        (rule,) = parse_rule_file(REALS, str(path))
        assert rule.coefficient == int(coeff) and rule.target.text() == "rho^4 h1^4 tau^3"
    for line, why in (("d3: h1 tau^4 -> -0 rho^4 h1^4 tau^3", "target coefficient 0"),
                      ("d3: h1 tau^4 -> \u0663 rho^4 h1^4 tau^3",
                       "coefficient '\u0663' is not ASCII digits"),
                      ("d3: h1 tau^4 -> -\u0663 rho^4 h1^4 tau^3",
                       "coefficient '-\u0663' is not ASCII digits"),
                      ("d3: \u0662 h1 tau^4 -> 1 rho^4 h1^4 tau^3",
                       "coefficient '\u0662' is not ASCII digits"),
                      ("d3: h1 tau^4 -> 1 \u0662 rho^4 h1^4 tau^3",
                       "coefficient '\u0662' is not ASCII digits"),
                      ("d3: h1 tau^4 -> --1 rho^4 h1^4 tau^3", "unknown symbol '--1'"),
                      ("d3: -2 h1 tau^4 -> 1 rho^4 h1^4 tau^3", "unknown symbol '-2'")):
        path.write_text(f"# header\n{line}  # coefficients\n", encoding="utf-8")
        with pytest.raises(RuleFileError, match=f"line 2: {re.escape(why)}"):
            parse_rule_file(REALS, str(path))


def test_rule_file_page_marker_is_ascii_digits(tmp_path):
    """An Arabic-Indic 3 passes str.isdecimal and int, so this line loaded
    as a d3 rule; the marker is refused with its line named."""
    path = tmp_path / "marker.rules"
    path.write_text("# header\nd\u0663: h1 tau^4 -> 1 rho^4 h1^4 tau^3  # x\n", encoding="utf-8")
    with pytest.raises(RuleFileError, match="line 2: bad page marker 'd\u0663'"):
        parse_rule_file(REALS, str(path))
    path.write_text("d3: h1 tau^4 -> 1 rho^4 h1^4 tau^3  # x\n")
    assert [rule.page for rule in parse_rule_file(REALS, str(path))] == [3]


def test_rule_file_rejects_rules_that_can_never_fire(tmp_path):
    """Symbols outside the field's alphabet, words that are no basis word
    and targets off source + d_shift(r) would load and match nothing; each
    names its line."""
    bad = tmp_path / "bad.rules"
    bad.write_text("# header\nd2: foo h1 -> 1 bar h1^3  # unknown symbols\n")
    with pytest.raises(RuleFileError, match="line 2: unknown symbol 'foo'"):
        parse_rule_file(REALS, str(bad))
    bad.write_text("d2: h1 tau^2 -> 1 h1^9 tau^7  # misplaced target\n")
    with pytest.raises(RuleFileError, match=r"line 1: the target is not at source \+ d_shift\(2\)"):
        parse_rule_file(REALS, str(bad))
    # the alphabet is the field's: [3] is a symbol over Q(2,3), not over R
    bad.write_text("d2: [3] h1 tau -> 1 a_3 rho^2 h1^3  # from the 3-adic block\n")
    with pytest.raises(RuleFileError, match="line 1: unknown symbol '\\[3\\]'"):
        parse_rule_file(REALS, str(bad))
    # over Q(2,3) both symbols exist, but a_3 rho = 0: the target is no basis word
    with pytest.raises(RuleFileError, match="line 1: a_3 rho\\^2 is no basis word of Q\\(2,3\\)"):
        parse_rule_file(Q((2, 3)), str(bad))
    bad.write_text("d2: [3] h1 tau -> 1 rho^4 h1^3  # from the real block\n")
    assert len(parse_rule_file(Q((2, 3)), str(bad))) == 1


WORD_CASES = [
    ("pi h1 tau", r"pi is no basis word of Q\(2,3\) in a mod-2 cell"),
    ("[3] rho h1 tau", r"\[3\] rho is no basis word of Q\(2,3\) in a mod-2 cell"),
    ("[2] tau", r"\[2\] is no basis word of Q\(2,3\) in an integral cell"),
    ("a_3 v1^2 tau", r"a_3 is no basis word of Q\(2,3\) in an integral cell"),
    # the integral words that reduce to [2] and a_3 pass the word check and
    # meet the degree check, as do iota (cokernel) words
    ("pi tau", "the target is not at"),
    ("iota [3] rho v1^2", "the target is not at"),
    ("iota [2] h1", "the target is not at"),
]


@pytest.mark.parametrize("source, error", WORD_CASES, ids=[case[0] for case in WORD_CASES])
def test_rule_file_checks_words_per_cell(tmp_path, source, error):
    """A mod-2 cell (h1 > 0) takes the basis words of pi_**(HZ/2); an
    integral cell takes the words of the integral classes, which the
    reduction table renames over Q ([2] and a_3 are mod-2 names only)."""
    bad = tmp_path / "bad.rules"
    bad.write_text(f"d2: {source} -> 1 h1^9  # a word check\n")
    with pytest.raises(RuleFileError, match="line 1: " + error):
        parse_rule_file(Q((2, 3)), str(bad))
