"""Serialization round-trips, chart output, CLI behavior, determinism."""
import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from esss.charts import chart_svg
from esss.engine import PageWindow, run
from esss.fields import ALG_CLOSED, Q2, REALS, Fq
from esss.pitable import assemble_pi
from esss.serialize import (SCHEMA, document_json, page_document, page_markdown,
                            parse_document, pi_markdown)


def _run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "esss.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_json_round_trip():
    res = run(Fq(5), "kq", PageWindow(0, 6, 0, 8, -3, 3))
    doc = page_document(res.einf, res)
    text = document_json(doc)
    back = parse_document(text)
    assert back == doc
    assert document_json(back) == text
    assert back["schema"] == SCHEMA
    assert back["certificate"]["kind"] == "degree-vanishing"


def test_json_is_deterministic():
    res1 = run(Fq(5), "kq", PageWindow(0, 6, 0, 8, -3, 3))
    res2 = run(Fq(5), "kq", PageWindow(0, 6, 0, 8, -3, 3))
    assert document_json(page_document(res1.einf, res1)) == \
        document_json(page_document(res2.einf, res2))


def test_markdown_outputs():
    res = run(ALG_CLOSED, "L", PageWindow(-2, 6, 0, 10, -3, 4))
    md = page_markdown(res.einf, res)
    assert "| s | f | w | group |" in md
    assert "certificate: degree-vanishing" in md
    table = assemble_pi(res.einf, (-1, 4), (-2, 3))
    pmd = pi_markdown(table)
    assert "| generator | degree | constraints | degree of h-torsion |" in pmd
    assert "| iota v1^2 | (3,2) |  | 3 |" in pmd


def test_chart_svg_determinism_and_legend():
    res = run(ALG_CLOSED, "kq", PageWindow(0, 8, 0, 10, -4, 4))
    svg1 = chart_svg(res.einf, (0, 8), (0, 10))
    svg2 = chart_svg(res.einf, (0, 8), (0, 10))
    assert svg1 == svg2
    assert svg1.startswith("<svg ")
    assert "order-2 tau classes" in svg1  # legend entry present
    assert "free class" in svg1
    # every occupied spot in the window produced at least one glyph
    n_spots = len({(d.s, d.f) for d in res.einf.data if (0 <= d.s <= 8 and 0 <= d.f <= 10)})
    assert svg1.count("<circle") + svg1.count("<rect") + svg1.count("<polygon") >= n_spots


def test_chart_families_over_q2():
    res = run(Q2, "L", PageWindow(0, 5, 0, 8, -6, 3))
    svg = chart_svg(res.einf, (0, 5), (0, 8))
    assert "kernel family" in svg or "cokernel family" in svg


def test_cli_pi_text():
    proc = _run_cli("pi", "--field", "c", "--spectrum", "L", "--stem", "3",
                    "--weight", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "Z/8{iota v1^2}"
    proc = _run_cli("pi", "--field", "c", "--spectrum", "L", "--stem", "0",
                    "--weight", "0")
    assert proc.stdout.strip() == "Z{1} + Z/2{iota h1 tau}"
    proc = _run_cli("pi", "--field", "c", "--spectrum", "L", "--stem", "1",
                    "--weight", "1")
    assert proc.stdout.strip() == "Z/2{h1} + Z/2{iota h1^2 tau}"


def test_cli_pi_unresolved_marker_surfaces():
    proc = _run_cli("pi", "--field", "q2", "--spectrum", "L", "--stem", "2",
                    "--weight", "0")
    assert proc.returncode == 0
    # single-layer entries are fine, multi-layer ones must carry the marker
    assert "Z" in proc.stdout


def test_cli_compute_byte_identical():
    args = ("compute", "--field", "fq", "--q", "5", "--spectrum", "L",
            "--page", "inf", "--s", "0..5", "--f", "0..8", "--w=-3..3",
            "--format", "json")
    out1 = _run_cli(*args)
    out2 = _run_cli(*args)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout
    doc = json.loads(out1.stdout)
    assert doc["field"] == "F5"


def test_cli_pi_rejects_unbounded_field():
    proc = _run_cli("pi", "--field", "r", "--spectrum", "kq", "--stem", "1",
                    "--weight", "1")
    assert proc.returncode == 2
    assert "unbounded" in proc.stderr


def test_cli_errors_on_bad_flags():
    proc = _run_cli("compute", "--field", "fq", "--spectrum", "kq", "--page",
                    "2", "--s", "0..4", "--f", "0..4", "--w", "0..2")
    assert proc.returncode != 0  # missing --q


def test_cli_malformed_range_is_one_line_error():
    for bad in ("5", "a..b", "3..", "5..2"):
        proc = _run_cli("compute", "--field", "c", "--spectrum", "kq", "--page", "1",
                        "--s", bad, "--f", "0..2", "--w", "0..1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "--s" in lines[0], proc.stderr


def test_cli_import_leaves_out_what_few_commands_need():
    """A cold command pays for every module `import esss.cli` loads: json and
    fractions load where they are used, and no record needs dataclasses
    (which brings inspect) or decimal."""
    code = ("import sys; before = set(sys.modules); import esss.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    added = set(proc.stdout.split())
    assert proc.returncode == 0 and "esss.cli" in added, proc.stderr
    assert not added & {"dataclasses", "inspect", "fractions", "decimal", "json"}, sorted(added)


def test_cli_negative_range_with_space():
    common = ("compute", "--field", "c", "--spectrum", "kq", "--page", "2",
              "--f", "0..4", "--format", "json")
    spaced = _run_cli(*common, "--s", "-3..25", "--w", "-1..1")
    joined = _run_cli(*common, "--s=-3..25", "--w=-1..1")
    assert spaced.returncode == 0, spaced.stderr
    assert joined.returncode == 0
    assert spaced.stdout == joined.stdout
    assert json.loads(spaced.stdout)["window"]["s"] == [-3, 25]


def _one_line_error(capsys, argv):
    from esss.cli import main
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


def test_cli_bad_rule_file_is_one_line_error(capsys, tmp_path):
    def compute(page, rules=None):
        argv = ["compute", "--field", "r", "--spectrum", "L", "--page", page,
                "--s=0..4", "--f=0..6", "--w=-2..1"]
        return argv + ["--rules", str(rules)] * (rules is not None)

    bad = tmp_path / "bad.rules"
    for page in ("1", "2"):
        assert "/nonexistent" in _one_line_error(capsys, compute(page, "/nonexistent"))
        bad.write_text("# header\nd2: h1 tau -> 1 rho^3 h1^3  # worked out elsewhere\n"
                       "d2 h1 -> h1\n")
        assert "line 3" in _one_line_error(capsys, compute(page, bad))
        # rules that could never fire: unknown symbols, a target off d_shift(2)
        bad.write_text("d2: foo h1 -> 1 bar h1^3  # unknown symbols\n")
        assert "line 1: unknown symbol 'foo'" in _one_line_error(capsys, compute(page, bad))
        bad.write_text("# header\nd2: h1 tau^2 -> 1 h1^9 tau^7  # misplaced target\n")
        assert "line 2: the target" in _one_line_error(capsys, compute(page, bad))
    # a superscript digit passes str.isdigit but not int(): a bad page marker
    # or a coefficient that is no number; an odd power of v1 names no
    # monomial.  Each is one error line, never a traceback
    for text, why in (("d²: tau^4 -> 1 iota rho^2 h1^2 tau^4 # x\n", "bad page marker 'd²'"),
                      ("d2: tau^4 -> ² iota rho^2 h1^2 tau^4 # x\n", "unknown symbol '²'"),
                      ("d2: v1^3 -> 1 h1 # x\n", "odd power of v1 in 'v1^3'")):
        bad.write_text(text, encoding="utf-8")
        for page in ("1", "2", "inf"):
            assert f"line 1: {why}" in _one_line_error(capsys, compute(page, bad))
    # a file that loads leaves the first page as it is
    from esss.cli import main
    bad.write_text("# header\nd2: h1 tau -> 1 rho^3 h1^3  # worked out elsewhere\n")
    outputs = []
    for rules in (None, bad):
        assert main(compute("1", rules)) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].out.startswith("{")
    pi = ["pi", "--field", "c", "--spectrum", "L", "--stem", "3", "--weight", "2"]
    assert "/nonexistent" in _one_line_error(capsys, pi + ["--rules", "/nonexistent"])
    # text that is not UTF-8: UTF-16 with its byte order mark ff fe, a stray byte on line 2
    for data, where in (("# header\n".encode("utf-16"), "line 1"), (b"# header\n\xff\n", "line 2")):
        bad.write_bytes(data)
        for argv in (*(compute(page, bad) for page in ("1", "2", "inf")), pi + ["--rules", str(bad)]):
            assert f"{where}: not UTF-8 text" in _one_line_error(capsys, argv)


def test_window_degrees_certify_only_cited_pairs(capsys):
    """Degree vanishing sees only the window, so it grants E-infinity only
    to pairs whose collapse is cited.  Over R these windows pass it, yet
    Z/2{rho^2 tau^4} at (-2, 2, -6) of L has its d2 target (-3, 7, -6)
    above f = 4: the runs stop at page 2 as the wider --f 0..8 does."""
    for spectrum, (s, f, w) in (("L", ((-2, 4), (0, 4), (-6, 2))),
                                ("kq", ((0, 4), (0, 4), (0, 2)))):
        argv = ["compute", "--field", "r", "--spectrum", spectrum, "--page", "inf",
                *(f"--{k}={a}..{b}" for k, (a, b) in zip("sfw", (s, f, w))), "--format", "md"]
        assert "external data; supply a rule file" in _one_line_error(capsys, argv)
        res = run(REALS, spectrum, PageWindow(*s, *f, *w), want_einf=False)
        assert res.status == "E2 only" and res.certificate is None


def test_cli_field_flags_that_do_not_fit_are_one_line_errors(capsys):
    """A support entry that is no prime, and a --q or --support on a field
    that takes none, are refused, not computed with or dropped."""
    page1 = ["--spectrum", "kq", "--page", "1", "--s=0..2", "--f=0..2", "--w=0..1"]
    for field in (["q", "--support", "2,9"], ["q", "--support", "2,-3"],
                  ["q", "--support", ""], ["r", "--q", "5"], ["fq", "--q", "3", "--support", "2,5"]):
        _one_line_error(capsys, ["compute", "--field", *field, *page1])
    assert "meaningless for r" in _one_line_error(
        capsys, ["pi", "--field", "r", "--q", "5", "--spectrum", "L", "--stem", "3", "--weight", "2"])


def test_cli_check_rejects_an_empty_bernoulli_range(capsys):
    for kmax in ("0", "-3"):
        assert "--kmax" in _one_line_error(capsys, ["check", "--suite", "bernoulli", "--kmax", kmax])


def test_cli_bad_output_path_is_one_line_error(capsys, tmp_path):
    missing = str(tmp_path / "no" / "such" / "dir" / "out.json")
    _one_line_error(capsys, ["compute", "--field", "c", "--spectrum", "kq", "--page", "1",
                             "--s=0..2", "--f=0..2", "--w=0..1", "--output", missing])
    _one_line_error(capsys, ["pi", "--field", "c", "--spectrum", "L", "--stem", "3",
                             "--weight", "2", "--output", missing])


def test_cli_program_errors_keep_their_traceback(monkeypatch):
    import esss.cli
    import esss.pitable

    def broken(*args, **kwargs):
        raise ValueError("not a complex: composite nonzero at target 0, source generator 0")

    monkeypatch.setattr(esss.cli, "run", broken)
    with pytest.raises(ValueError, match="not a complex"):
        esss.cli.main(["compute", "--field", "c", "--spectrum", "kq", "--page", "2",
                       "--s=0..2", "--f=0..2", "--w=0..1"])
    # pi reaches run through pitable
    monkeypatch.setattr(esss.pitable, "run", broken)
    with pytest.raises(ValueError, match="not a complex"):
        esss.cli.main(["pi", "--field", "c", "--spectrum", "L", "--stem", "3", "--weight", "2"])


PI_3_2 = ["pi", "--field", "c", "--spectrum", "L", "--stem", "3", "--weight", "2"]
PI_R = ["pi", "--field", "r", "--spectrum", "kq", "--stem", "1", "--weight", "1"]
COMPUTE_F5 = ["compute", "--field", "fq", "--q", "5", "--spectrum", "kq", "--page", "inf",
              "--s=0..6", "--f=0..8", "--w=-3..3", "--format", "json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
def test_cli_failed_stdout_write_is_one_line_error():
    """stdout on a full device: the write or flush fails, and every command
    prints one error line and exits 2, as a bad --output path does."""
    for argv in (PI_3_2, COMPUTE_F5, ["check", "--suite", "bernoulli", "--kmax", "2"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "esss.cli", *argv], stdout=full,
                                  stderr=subprocess.PIPE, text=True)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2 and len(lines) == 1, (argv, proc.stderr)
        assert lines[0].startswith("error: "), proc.stderr


def test_cli_page_2_ignores_rules_past_the_window(capsys, tmp_path):
    """With a d3 rule, a window that holds page 3 but not page 4 prints page
    2 as it does without the rule file: the run stops at E3, and only its
    status says so.  E-infinity still needs page 4."""
    from esss.cli import main
    rules = tmp_path / "d3.rules"
    rules.write_text("d3: h1 tau^4 -> 1 rho^4 h1^4 tau^3  # a later page\n")
    argv = ["compute", "--field", "r", "--spectrum", "L", "--page", "2",
            "--s=0..4", "--f=0..6", "--w=-2..1"]
    outputs = []
    for extra in ([], ["--rules", str(rules)]):
        assert main(argv + extra) == 0
        outputs.append(capsys.readouterr())
    docs = [json.loads(out) for out, err in outputs]
    assert [doc.pop("status") for doc in docs] == ["E2 only", "E3 only"]
    assert docs[0] == docs[1] and outputs[1].err == ""
    res = run(REALS, "L", PageWindow(0, 4, 0, 6, -2, 1), rule_file=str(rules), want_einf=False)
    assert res.status == "E3 only" and len(res.pages) == 3 and res.einf is None
    argv[argv.index("2")] = "inf"
    assert "window exhausted turning page 3" in _one_line_error(
        capsys, argv + ["--rules", str(rules)])


def test_cli_pi_window_holds_the_rule_file_pages(capsys, tmp_path):
    """A d2 rule turns page 3, which shrinks the window by one stem on each
    side and five rows; `pi` widens its window for that, so it prints the
    group a wide window gives (it raised `window filtration top ... cannot
    certify` at these degrees)."""
    from esss.cli import main
    rules = tmp_path / "d2.rules"
    rules.write_text("d2: 1 -> 1 iota rho^2 h1^2 # test\n")
    for s, w in ((0, 0), (1, 3), (4, 2)):
        assert main(["pi", "--field", "q2", "--spectrum", "L", "--stem", str(s),
                     "--weight", str(w), "--rules", str(rules)]) == 0
        res = run(Q2, "L", PageWindow(s - 4, s + 4, 0, s + 20, w, w), rule_file=str(rules))
        assert res.einf.r == 3
        want = assemble_pi(res.einf, (s, s), (w, w)).group_text(s, w)
        assert capsys.readouterr() == (want + "\n", ""), (s, w)


def test_console_script_is_the_fast_exit_entry(monkeypatch, capsys):
    """pyproject.toml's `esss` script names the entry that flushes and ends
    the process with os._exit and main()'s exit code."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    entry = re.search(r'^esss\s*=\s*"([\w.]+):(\w+)"\s*$', scripts.group(1), re.M)
    assert entry is not None, scripts.group(1)
    assert entry.groups() == ("esss.cli", "console_main")
    console_main = getattr(importlib.import_module(entry[1]), entry[2])

    class Exit(Exception):
        pass

    def _exit(code):
        raise Exit(code)

    monkeypatch.setattr(os, "_exit", _exit)
    for argv, code, out in ((PI_3_2, 0, "Z/8{iota v1^2}\n"), (PI_R, 2, "")):
        monkeypatch.setattr(sys, "argv", ["esss", *argv])
        with pytest.raises(Exit) as exc:
            console_main()
        assert exc.value.args == (code,)
        assert capsys.readouterr().out == out
    # a buffered stdout that fails at the last flush: one error line, exit 2
    class Full(io.StringIO):
        def flush(self):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    monkeypatch.setattr(sys, "argv", ["esss", *PI_3_2])
    with pytest.raises(Exit) as exc:
        console_main()
    assert exc.value.args == (2,)
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    # argparse's own exit (a bad flag, --help) stays a SystemExit
    monkeypatch.setattr(sys, "argv", ["esss", *PI_3_2, "--bogus"])
    with pytest.raises(SystemExit):
        console_main()


def test_module_command_matches_main(capsys):
    """`python -m esss.cli` prints what an in-process main(argv) prints, with
    its exit code."""
    from esss.cli import main
    for argv, code in ((PI_3_2, 0), (COMPUTE_F5, 0),
                       (PI_R, 2),
                       ([arg.replace("0..6", "6..0") for arg in COMPUTE_F5], 2)):
        proc = _run_cli(*argv)
        assert main(argv) == code == proc.returncode, proc.stderr
        out, err = capsys.readouterr()
        assert (proc.stdout, proc.stderr) == (out, err)
