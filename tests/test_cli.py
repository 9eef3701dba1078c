import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import unittest.mock
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies

from seqideal import cli, rueppel
from seqideal.cli import (
    VERIFY_CHECKS,
    AnalysisReport,
    CliParseError,
    _json_text,
    _verify_one,
    build_report,
    fit_loglog_slope,
    main,
    parse_sequence_text,
)
from seqideal import GF, GF2, QQ, EngineError, FieldError
from seqideal.oracles import BMResult, _dai_cascade, _packed
from seqideal.bivariate import UniPoly
from seqideal.field import PRIME_BOUND, field_from_tag, pack_bits
from seqideal.rueppel import ralg, rueppel_sequence
from seqideal.vop_engine import THETA_ENUMERATE_CAP, VOP, VOPState, packed_form
from tests.conftest import FIELD_VALUES, FITZ, value_runs

FITZ_TEXT = "1 0 0 0 -1\n1 0 0 1 -2\n"

# six 9,900-bit integers: each parses, but the report's values pass the
# 4,300 digits that str() writes of an int
PAST_DIGIT_LIMIT = [Fraction(v) for v in map(random.Random(1).getrandbits, [9900] * 6)]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- input parsing -------------------------------------------------------------


def test_parse_tokens_and_commas():
    assert parse_sequence_text("1, 0, 1", GF2) == [1, 0, 1]
    assert parse_sequence_text("3 -1\n2", GF(7)) == [3, 6, 2]
    seq = parse_sequence_text(FITZ_TEXT, QQ)
    assert [int(v) for v in seq] == FITZ


def test_parse_gf2_bitstring_and_hex():
    assert parse_sequence_text("1101", GF2) == [1, 1, 0, 1]
    # most significant bit is s_0
    assert parse_sequence_text("0xB4", GF2) == [1, 0, 1, 1, 0, 1, 0, 0]
    assert parse_sequence_text("0x0B", GF2) == [0, 0, 0, 0, 1, 0, 1, 1]
    assert parse_sequence_text("11 0x8", GF2) == [1, 1, 1, 0, 0, 0]
    assert parse_sequence_text("0XB4", GF2) == [1, 0, 1, 1, 0, 1, 0, 0]
    assert parse_sequence_text("0x000", GF2) == [0] * 12


def test_parse_errors_carry_position():
    with pytest.raises(CliParseError) as e:
        parse_sequence_text("1 0\n0 2 1", GF2)
    assert e.value.line == 2 and e.value.col == 3
    with pytest.raises(CliParseError):
        parse_sequence_text("", GF2)
    for bad in ("0xZZ", "0x1_0", "0x", "0x+1"):
        with pytest.raises(CliParseError):
            parse_sequence_text(bad, GF2)
    with pytest.raises(CliParseError) as e:
        parse_sequence_text("1/2 1/0", QQ)
    assert e.value.col == 5


# -- analyze -------------------------------------------------------------------


def test_analyze_rational_example(tmp_path, capsys):
    p = tmp_path / "fitz.txt"
    p.write_text(FITZ_TEXT)
    code, out, _ = run_cli(capsys, "analyze", "--field", "q", "--input", str(p), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 5
    assert doc["min_poly"] == {
        "degree": 5,
        "coeffs": ["-1", "1", "0", "0", "0", "1"],
    }
    assert doc["theta"] == "unique"
    assert doc["profile"] is None
    # the same report round-trips through its dict form
    rep = AnalysisReport.from_dict(doc)
    assert rep.to_dict() == doc


def test_analyze_text_output(tmp_path, capsys):
    p = tmp_path / "ten.txt"
    p.write_text("1101000100\n")
    code, out, _ = run_cli(capsys, "analyze", "--field", "gf2", "--input", str(p))
    assert code == 0
    assert "lambda: 5" in out
    assert "f: x^5+x^4z+x^2z^3+xz^4+z^5" in out
    assert "plcp: true" in out


def test_analyze_profile_json_round_trip(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("1 0 1 1 0 1\n")
    code, out, _ = run_cli(
        capsys, "analyze", "--field", "gfp:5", "--input", str(p), "--json", "--profile"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "gfp:5"
    assert len(doc["profile"]) == 6
    assert doc["profile"][-1]["delta"] is None
    rep = AnalysisReport.from_dict(doc)
    assert rep.to_dict() == doc


def test_analyze_enumerated_theta_round_trip(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text("110100010\n")  # nine bits: two minimal leading forms
    code, out, _ = run_cli(
        capsys,
        "analyze", "--field", "gf2", "--input", str(p), "--json", "--enumerate-theta",
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc["theta"], list) and len(doc["theta"]) == 2
    rep = AnalysisReport.from_dict(doc)
    assert rep.to_dict() == doc


@pytest.mark.parametrize("tag", sorted(FIELD_VALUES))
def test_report_dict_round_trip_property(tag):
    field, elements = FIELD_VALUES[tag]

    @settings(max_examples=30, deadline=None)
    @given(
        seq=value_runs(elements),
        with_profile=strategies.booleans(),
        enumerate_theta=strategies.booleans(),
    )
    # nine Rueppel bits: two minimal leading forms over GF(2)
    @example(seq=[1, 1, 0, 1, 0, 0, 0, 1, 0], with_profile=True, enumerate_theta=True)
    @example(seq=[0] * 5, with_profile=False, enumerate_theta=True)
    def check(seq, with_profile, enumerate_theta):
        seq = [field.coerce(v) for v in seq]
        try:
            report = build_report(field, seq, with_profile, enumerate_theta)
        except (FieldError, EngineError):
            # an infinite or capped family has no enumerated theta
            report = build_report(field, seq, with_profile)
        doc = json.loads(json.dumps(report.to_dict()))
        back = AnalysisReport.from_dict(doc)
        assert back == report
        assert back.to_dict() == doc

    check()


# -- the indented JSON writer --------------------------------------------------

_JSON_TEXT = strategies.text(
    strategies.characters() | strategies.sampled_from('{}"\\\x00\ud800\udfffé€'), max_size=6
)
_JSON_SCALARS = strategies.none() | strategies.booleans() | strategies.integers() | _JSON_TEXT


@strategies.composite
def _same_key_rows(draw):
    # the profile's shape: flat dicts over one key tuple, mixed columns;
    # a nested value now and then takes the writer off its column path
    keys = draw(strategies.lists(_JSON_TEXT, max_size=4, unique=True))
    cell = _JSON_SCALARS | strategies.lists(_JSON_SCALARS, max_size=2)
    rows = draw(strategies.integers(1, 5))
    return [{k: draw(cell) for k in keys} for _ in range(rows)]


_JSON_VALUES = strategies.recursive(
    _JSON_SCALARS
    | strategies.lists(strategies.booleans() | strategies.integers(0, 2))
    | strategies.lists(_JSON_TEXT)
    | _same_key_rows(),
    lambda inner: strategies.lists(inner, max_size=4)
    | strategies.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=16,
)


@settings(max_examples=200, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"": [], "{0}": {}, '"}{"': [[], {}]})
@example(value=[{"k": 0, "delta": None, "d": True}, {"k": 1, "delta": "1", "d": -2}])
@example(value=[{"{0}": 1, '"}': None}, {"{0}": "{1}", '"}': False}])
@example(value=[1, True, 0, False, "\ud800é"])
def test_json_text_is_indented_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, (1,), {1: 2}, {"a": [1.5]}, [{"a": 1}, {"a": b"x"}], {None}]
)
def test_json_text_refuses_other_types(value):
    with pytest.raises(TypeError):
        _json_text(value)


@pytest.mark.parametrize("profile", [False, True], ids=["plain", "profile"])
@pytest.mark.parametrize("tag", ["gf2", "gfp:7", "q"])
def test_analyze_json_is_indented_json_dumps(tmp_path, capsys, tag, profile):
    field = field_from_tag(tag)
    rng = random.Random(5)
    fitz = [v % 2 for v in FITZ] if field == GF2 else FITZ
    flags = ("--json", "--profile") if profile else ("--json",)
    seqs = [
        [field.coerce(v) for v in fitz],
        [field.random(rng) for _ in range(300)],
        [field.one],  # n = 1: the delta column holds only the closing None
        [field.zero] * 7,
    ]
    for seq in seqs + ([PAST_DIGIT_LIMIT] if field == QQ else []):
        p = tmp_path / "in.txt"
        p.write_text(" ".join(map(field.format, seq)) + "\n")
        got = run_cli(capsys, "analyze", "--field", tag, "--input", str(p), *flags)
        want = json.dumps(build_report(field, seq, profile).to_dict(), indent=2)
        assert got == (0, want + "\n", "")


def test_analyze_text_report_past_the_int_digit_limit(tmp_path, capsys):
    p = tmp_path / "in.txt"
    p.write_text(" ".join(map(QQ.format, PAST_DIGIT_LIMIT)) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--field", "q", "--input", str(p), "--profile")
    report = build_report(QQ, PAST_DIGIT_LIMIT, True)
    assert (code, out, err) == (0, report.render_text() + "\n", "")
    assert max(len(QQ.format(c)) for c in report.f.coeffs) > 4300


def test_report_past_the_int_digit_limit_reads_back(tmp_path, capsys):
    # the values the writer takes past the limit, from_dict takes back;
    # a token that long is still refused on input
    report = build_report(QQ, PAST_DIGIT_LIMIT, True)
    assert AnalysisReport.from_dict(report.to_dict()) == report
    p = tmp_path / "in.txt"
    p.write_text(" ".join(map(QQ.format, PAST_DIGIT_LIMIT)) + "\n")
    argv = ("analyze", "--field", "q", "--input", str(p), "--json", "--profile")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and AnalysisReport.from_dict(json.loads(out)) == report
    p.write_text(QQ.format(report.f.coeffs[0] ** 2) + "\n")
    code, _, err = run_cli(capsys, "analyze", "--field", "q", "--input", str(p))
    assert code == 1 and "at most 4300 digits" in err


def test_rueppel_json_is_indented_json_dumps(capsys):
    got = run_cli(capsys, "rueppel", "--n", "64", "--verify", "all", "--json")
    want = {
        "n": 64,
        "lambda": 32,
        "f": {"degree": 32, "coeffs": [str(c) for c in ralg(64).f.coeffs]},
        "checks": dict.fromkeys(VERIFY_CHECKS, True),
    }
    assert got == (0, json.dumps(want, indent=2) + "\n", "")


def test_analyze_degenerate_input(capsys, monkeypatch, tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("0 0 0 0\n")
    code, out, _ = run_cli(capsys, "analyze", "--field", "gf2", "--input", str(p))
    assert code == 0
    assert "lambda: 0" in out and "degenerate: true" in out


def test_analyze_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("1 1 1\n"))
    code, out, _ = run_cli(capsys, "analyze", "--field", "gf2", "--input", "-")
    assert code == 0 and "lambda: 1" in out


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2 1\n")
    code, _, err = run_cli(capsys, "analyze", "--field", "gf2", "--input", str(p))
    assert code == 1
    assert ":1:3:" in err


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "--field", "gf2", "--input", "/nonexistent")
    assert code == 1


def test_analyze_non_utf8_input(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xff0 1\n")
    code, out, err = run_cli(capsys, "analyze", "--field", "gf2", "--input", str(p))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {p}: ") and "Traceback" not in err


@pytest.mark.parametrize("token, col", [("1e1000000", 3), ("1E3", 3), ("1_000", 3)])
def test_analyze_q_rejects_fraction_extras(tmp_path, capsys, token, col):
    p = tmp_path / "in.txt"
    p.write_text(f"1 {token} 2\n")
    code, out, err = run_cli(capsys, "analyze", "--field", "q", "--input", str(p))
    assert code == 1 and out == ""
    assert err == f"{p}:1:{col}: rationals are written a or a/b, got {token!r}\n"


@pytest.mark.parametrize(
    "token", ["1_000", "\u0661", "\u0667\u0667"], ids=["separator", "arabic-1", "arabic-77"]
)
def test_analyze_gfp_rejects_int_extras(tmp_path, capsys, token):
    # int() alone takes digit separators and non-ASCII digits
    p = tmp_path / "in.txt"
    p.write_text(f"1 {token} 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "analyze", "--field", "gfp:7", "--input", str(p))
    assert code == 1 and out == ""
    assert err == f"{p}:1:3: not an integer for GF(7): {token!r}\n"


def test_analyze_reduces_a_gfp_token_of_any_length(tmp_path, capsys):
    # 5,000 digits is past int()'s default limit of 4,300
    token = "9" * 5000
    p = tmp_path / "in.txt"
    outs = []
    residue = sum(9 * pow(10, i, 7) for i in range(5000)) % 7
    for text in (f"1 {token} 2\n", f"1 {residue} 2\n"):
        p.write_text(text)
        code, out, err = run_cli(capsys, "analyze", "--field", "gfp:7", "--input", str(p))
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]


def test_analyze_names_the_digit_limit_of_a_rational(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no integer digit limit in this interpreter")
    p = tmp_path / "in.txt"
    p.write_text("1/2\n3 " + "1" * (limit + 1) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--field", "q", "--input", str(p))
    assert code == 1 and out == ""
    assert err == f"{p}:2:3: rationals take at most {limit} digits in a and in b, got {limit + 1}\n"


def test_analyze_gfp_2_is_gf2(capsys, monkeypatch):
    # GF(2) is a singleton, so gfp:2 parses and reports as gf2
    monkeypatch.setattr(sys, "stdin", io.StringIO("1 0 1\n"))
    code, out, _ = run_cli(capsys, "analyze", "--field", "gfp:2", "--input", "-")
    assert code == 0 and out.startswith("field: gf2\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO("3\n"))
    code, out, err = run_cli(capsys, "analyze", "--field", "gfp:2", "--input", "-")
    assert code == 1 and out == ""
    assert err == "<stdin>:1:1: GF(2) token must be bits or 0x hex, got '3'\n"


def test_analyze_checks_pass(tmp_path, capsys):
    p = tmp_path / "fitz.txt"
    p.write_text(FITZ_TEXT)
    code, _, err = run_cli(
        capsys,
        "analyze", "--field", "q", "--input", str(p), "--check-bm", "--check-oracle",
    )
    assert code == 0
    assert "bm-check: ok" in err and "oracle-check: ok" in err


def test_analyze_check_bm_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    import seqideal.cli as cli_mod

    p = tmp_path / "in.txt"
    p.write_text("1 1 0 1\n")
    monkeypatch.setattr(
        cli_mod, "berlekamp_massey", lambda seq, field: BMResult(99, UniPoly.one(field))
    )
    code, _, err = run_cli(
        capsys, "analyze", "--field", "gf2", "--input", str(p), "--check-bm"
    )
    assert code == 2 and "MISMATCH" in err


@pytest.mark.parametrize(
    "tag, text",
    [("gfp:2147483647", "0 1"), ("gfp:7", "0 " * 9 + "1"), ("gf2", "0 " * 15 + "1")],
)
def test_analyze_check_oracle_does_not_enumerate(tmp_path, capsys, monkeypatch, tag, text):
    # lambda = n here, so the witnesses are every monic polynomial of
    # degree n: p^n of them, which the oracle must not list
    import seqideal.oracles as oracles_mod

    def no_span(*args):
        raise RuntimeError("witnesses enumerated")

    monkeypatch.setattr(oracles_mod, "_span", no_span)
    p = tmp_path / "in.txt"
    p.write_text(text + "\n")
    code, _, err = run_cli(
        capsys, "analyze", "--field", tag, "--input", str(p), "--check-oracle"
    )
    assert code == 0 and err == "oracle-check: ok\n"


def test_analyze_check_oracle_mismatch_exits_2(tmp_path, capsys, monkeypatch):
    import seqideal.cli as cli_mod

    p = tmp_path / "in.txt"
    p.write_text("1 1 0 1\n")
    run = ("analyze", "--field", "gf2", "--input", str(p), "--check-oracle")
    # a wrong linear complexity from the oracle's degree search
    monkeypatch.setattr(cli_mod, "_least_degree", lambda seq, field: (99, None))
    code, _, err = run_cli(capsys, *run)
    assert code == 2 and "oracle-check: MISMATCH" in err
    # the right one, but a minimal polynomial that breaks the recurrence
    monkeypatch.undo()
    monkeypatch.setattr(cli_mod, "satisfies_recurrence", lambda c, seq: False)
    code, _, err = run_cli(capsys, *run)
    assert code == 2 and "oracle-check: MISMATCH" in err


def _corrupt_engine(monkeypatch, engine_name, corrupt):
    import seqideal.vop_engine as engine_mod

    fast = getattr(engine_mod, engine_name)

    def corrupted(F):
        vop, profile = fast(F)
        return vop, corrupt(profile)

    monkeypatch.setattr(engine_mod, engine_name, corrupted)


def _check_fast_engine(monkeypatch, field, seq, engine_name, corrupt):
    import seqideal.vop_engine as engine_mod

    want = build_report(field, seq, True, True).to_dict()
    generic = engine_mod.synthesize

    def generic_unavailable(F):
        raise RuntimeError("generic engine called")

    monkeypatch.setattr(engine_mod, "synthesize", generic_unavailable)
    assert build_report(field, seq, True, True).to_dict() == want

    # with debug asserts on, the generic engine cross-checks every report
    monkeypatch.setattr(engine_mod, "synthesize", generic)
    monkeypatch.setenv("SEQIDEAL_DEBUG_ASSERTS", "1")
    assert build_report(field, seq, True, True).to_dict() == want
    _corrupt_engine(monkeypatch, engine_name, corrupt)
    with pytest.raises(AssertionError, match="disagrees"):
        build_report(field, seq, True)


def test_gf2_reports_use_the_packed_engine(monkeypatch):
    _check_fast_engine(
        monkeypatch, GF2, [1, 1, 0, 1, 0, 0, 0, 1, 0], "synthesize_packed",
        lambda profile: profile[:-1],
    )


def test_q_reports_use_the_rational_engine(monkeypatch):
    def wrong_delta(profile):
        e = profile[3]
        return profile[:3] + [e._replace(delta=e.delta + 1)] + profile[4:]

    _check_fast_engine(monkeypatch, QQ, FITZ, "synthesize_rational", wrong_delta)


def test_q_analyze_passes_the_debug_cross_check(tmp_path, capsys, monkeypatch):
    import seqideal.vop_engine as engine_mod

    # 32 terms a/b with |a| <= 9 and 1 <= b <= 9, the shape of the
    # q-analyze benchmark input
    rng = random.Random(32)
    p = tmp_path / "in.txt"
    p.write_text(" ".join(f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(32)) + "\n")
    argv = ("analyze", "--field", "q", "--input", str(p), "--json", "--profile")
    want = run_cli(capsys, *argv)
    assert want[0] == 0
    calls = []

    def spy(name):
        engine = getattr(engine_mod, name)

        def counted(F):
            calls.append(name)
            return engine(F)

        monkeypatch.setattr(engine_mod, name, counted)

    spy("synthesize")
    spy("synthesize_rational")
    # with debug asserts on, the rational engine's report is checked
    # against synthesize, and the output stays the same
    monkeypatch.setenv("SEQIDEAL_DEBUG_ASSERTS", "1")
    assert run_cli(capsys, *argv) == want
    assert calls == ["synthesize_rational", "synthesize"]


def test_gf2_check_bm_runs_the_packed_bm(tmp_path, capsys, monkeypatch):
    import random

    import seqideal.oracles as oracles_mod

    rng = random.Random(4)
    inputs = ["0", "1", "0 0 0 0", "0 0 1 1 0 1", "1101000100010000"]
    inputs += ["".join(rng.choice("01") for _ in range(n)) for n in (17, 100, 600)]
    flag_sets = ([], ["--json"], ["--profile"], ["--json", "--profile"])
    runs = []
    for i, text in enumerate(inputs):
        p = tmp_path / f"in{i}.txt"
        p.write_text(text + "\n")
        for flags in flag_sets:
            runs.append(["analyze", "--field", "gf2", "--input", str(p), "--check-bm", *flags])
    want = [run_cli(capsys, *argv) for argv in runs]
    assert all(code == 0 and "bm-check: ok" in err for code, _, err in want)

    def lists_unavailable(s, field):
        raise RuntimeError("list BM called")

    monkeypatch.setattr(oracles_mod, "_berlekamp_massey_lists", lists_unavailable)
    assert [run_cli(capsys, *argv) for argv in runs] == want
    # the patch is live: any other field still runs the list BM
    with pytest.raises(RuntimeError, match="list BM"):
        main(["analyze", "--field", "gfp:7", "--input", runs[0][4], "--check-bm"])


def test_analyze_reports_a_broken_plcp_invariant(tmp_path, capsys, monkeypatch):
    # the first length change of a Rueppel prefix, with d moved off 1:
    # lambda still says perfect, the shift pattern says not
    def shifted_d(profile):
        i = next(i for i, e in enumerate(profile) if e.delta and e.d == 1)
        return profile[:i] + [profile[i]._replace(d=2)] + profile[i + 1:]

    _corrupt_engine(monkeypatch, "synthesize_packed", shifted_d)
    seq = [1, 1, 0, 1, 0, 0, 0, 1, 0, 0]
    with pytest.raises(AssertionError, match="criteria disagree"):
        build_report(GF2, seq, False)
    p = tmp_path / "in.txt"
    p.write_text("".join(map(str, seq)) + "\n")
    code, out, err = run_cli(capsys, "analyze", "--field", "gf2", "--input", str(p))
    assert (code, out) == (2, "")
    assert err == "error: profile and shift criteria disagree; engine invariant broken\n"


def test_analyze_reports_a_debug_cross_check_mismatch(tmp_path, capsys, monkeypatch):
    _corrupt_engine(monkeypatch, "synthesize_packed", lambda profile: profile[:-1])
    monkeypatch.setenv("SEQIDEAL_DEBUG_ASSERTS", "1")
    p = tmp_path / "in.txt"
    p.write_text("1 1 0 1 0 0 0 1 0\n")
    code, out, err = run_cli(capsys, "analyze", "--field", "gf2", "--input", str(p))
    assert (code, out) == (2, "")
    assert err == "error: the GF(2) engine disagrees with synthesize\n"


_FUZZ_ALPHABET = "01 ,\t\n\r-+/xXaFg.e_9\u0660\u2028"


@settings(max_examples=150, deadline=None)
@given(
    tag=strategies.sampled_from(["gf2", "gfp:7", "q"]),
    text=strategies.one_of(
        strategies.text(alphabet=_FUZZ_ALPHABET, max_size=60), strategies.text(max_size=60)
    ),
)
@example(tag="q", text="1/0")
@example(tag="gf2", text="0x")
@example(tag="gfp:7", text="")
def test_analyze_fuzzed_input_exits_0_or_1(tag, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["analyze", "--field", tag, "--input", path])
    assert code in (0, 1)


_MAIN_TOKENS = strategies.sampled_from(
    ["0", "1", "-1", "+2", "7", "1/2", "-3/4", "1/0", "0x1F", "0x", "101", "x", "1e3", "1_0"]
    + ["9" * 4400]  # past int()'s digit limit
)
_ANALYZE_FLAGS = ["--profile", "--json", "--check-bm", "--check-oracle", "--enumerate-theta"]


@settings(max_examples=150, deadline=None)
@given(
    tokens=strategies.lists(_MAIN_TOKENS | strategies.text(max_size=3), max_size=6),
    field=strategies.sampled_from(["gf2", "gfp:2", "gfp:3", "gfp:5", "gfp:7", "q", "gfp:4", "z"]),
    flags=strategies.lists(strategies.sampled_from(_ANALYZE_FLAGS), max_size=5),
    n=strategies.integers(-1, 64),
    verify=strategies.sampled_from([(), ("--verify", "all"), ("--verify", "nope")])
    | strategies.sampled_from(VERIFY_CHECKS).map(lambda c: ("--verify", c)),
    rueppel_flags=strategies.lists(strategies.sampled_from(["--json", "--jobs", "1"]), max_size=3),
)
@example(tokens=["9" * 4400], field="q", flags=["--json"], n=0, verify=(), rueppel_flags=[])
@example(tokens=["1"], field="gf2", flags=[], n=64, verify=("--verify", "all"), rueppel_flags=[])
def test_main_returns_an_exit_code_and_never_raises(tokens, field, flags, n, verify, rueppel_flags):
    # random token streams, fields and flag sets; --jobs stays at 1, so
    # no process starts
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        with unittest.mock.patch.object(sys, "stdin", io.StringIO(" ".join(tokens))):
            codes = [
                main(["analyze", "--field", field, "--input", "-", *flags]),
                main(["rueppel", "--n", str(n), *verify, *rueppel_flags]),
            ]
    assert set(codes) <= {0, 1, 2}


def test_analyze_oracle_guard(tmp_path, capsys):
    p = tmp_path / "long.txt"
    p.write_text(" ".join("1" * 17) + "\n")
    code, _, err = run_cli(
        capsys, "analyze", "--field", "gf2", "--input", str(p), "--check-oracle"
    )
    assert code == 1 and "limited to length" in err


def test_analyze_refuses_huge_theta_enumeration(tmp_path, capsys):
    # f = x^12 and g = z leave 7^12 minimal leading forms
    p = tmp_path / "in.txt"
    p.write_text("0 " * 11 + "1\n")
    code, out, err = run_cli(
        capsys, "analyze", "--field", "gfp:7", "--input", str(p), "--enumerate-theta"
    )
    assert code == 1 and out == ""
    assert f"refusing to enumerate {7**12}" in err and str(THETA_ENUMERATE_CAP) in err
    # over QQ the family is infinite, which keeps its own message
    code, _, err = run_cli(
        capsys, "analyze", "--field", "q", "--input", str(p), "--enumerate-theta"
    )
    assert code == 1 and "cannot enumerate" in err


def test_analyze_rejects_a_modulus_past_the_primality_bound(capsys):
    for spec in (f"gfp:{2**89 - 1}", "gfp:" + "1" * 5000):
        code, out, err = run_cli(capsys, "analyze", "--field", spec, "--input", "-")
        assert code == 1 and out == "" and str(PRIME_BOUND) in err
        assert "set_int_max_str_digits" not in err and len(err) < 200


def test_analyze_usage_errors(capsys):
    code, _, _ = run_cli(capsys, "analyze", "--field", "gf2")
    assert code == 1
    code, _, err = run_cli(capsys, "analyze", "--field", "gf9:4", "--input", "-")
    assert code == 1
    # a modulus that is not ASCII decimal digits is named, with the accepted forms
    for spec in ("gfp:x", "gfp:", "gfp:7.0", "gfp:\u0667", "gfp:1_000_003", "gfp: 7"):
        code, out, err = run_cli(capsys, "analyze", "--field", spec, "--input", "-")
        assert code == 1 and out == ""
        assert f"'{spec}'" in err and "gf2, gfp:<p> or q" in err, spec
        assert "int()" not in err
    code, _, err = run_cli(capsys, "analyze", "--field", "gfp:9", "--input", "-")
    assert code == 1 and "GF(p) needs a prime modulus, got 9" in err


# -- rueppel -------------------------------------------------------------------


def test_gf2_values_are_checked_once_where_they_enter(capsys, monkeypatch):
    # every GF2.coerce_all call of one op, by the length it checked; the
    # forms and polynomials the package builds from its own results are
    # not checked again
    sizes = []
    check = type(GF2).coerce_all

    def counting(self, values):
        out = check(self, values)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(type(GF2), "coerce_all", counting)
    bits = format(random.Random(1).getrandbits(4096), "04096b")
    monkeypatch.setattr(sys, "stdin", io.StringIO(bits + "\n"))
    code, _, _ = run_cli(
        capsys, "analyze", "--field", "gf2", "--input", "-", "--json", "--profile", "--check-bm"
    )
    # the InverseForm of the parsed terms, then berlekamp_massey's entry
    assert code == 0 and sizes == [4096, 4096]
    sizes.clear()
    code, _, _ = run_cli(capsys, "rueppel", "--n", "4096", "--verify", "all", "--json")
    # rueppel_basis's two forms; delta reads the packed Rueppel bits, unchecked
    assert code == 0 and sizes == [2, 2]


def test_rueppel_report(capsys):
    code, out, _ = run_cli(capsys, "rueppel", "--n", "10")
    assert code == 0
    assert "lambda: 5" in out
    assert "f: x^5+x^4z+x^2z^3+xz^4+z^5" in out


def test_rueppel_verify_all(capsys):
    code, out, _ = run_cli(capsys, "rueppel", "--n", "40", "--verify", "all")
    assert code == 0
    for name in ("closed-form", "delta", "matrix", "quadext", "dai"):
        assert f"verify {name}: pass" in out


def test_rueppel_verify_single_json(capsys):
    code, out, _ = run_cli(
        capsys, "rueppel", "--n", "16", "--verify", "delta", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 8 and doc["checks"] == {"delta": True}


def test_rueppel_verify_jobs(monkeypatch, capsys):
    # two workers print what one process does, byte for byte; every run
    # shares one pool, so two processes start in all
    import concurrent.futures

    used = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:

        class SharedPool:
            def __init__(self, max_workers):
                used.append(max_workers)

            def __enter__(self):
                return pool

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SharedPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for n in ("24", "4097"):
            for flags in ((), ("--json",)):
                argv = ("rueppel", "--n", n, "--verify", "all", *flags)
                one = run_cli(capsys, *argv)
                assert run_cli(capsys, *argv, "--jobs", "2") == one and one[0] == 0
    assert used == [2] * 4


@pytest.mark.parametrize(
    "verify", [(), ("--verify", "all")] + [("--verify", c) for c in VERIFY_CHECKS]
)
def test_rueppel_sweeps_once_per_op(monkeypatch, capsys, verify):
    # the sweeps of the op, whether cli or rueppel's own loops start them
    calls = []
    real = cli._ralg_pairs

    def ralg_pairs(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(cli, "_ralg_pairs", ralg_pairs)
    monkeypatch.setattr(rueppel, "_ralg_pairs", ralg_pairs)
    code, _, _ = run_cli(capsys, "rueppel", "--n", "4096", *verify, "--json")
    assert code == 0 and calls == [4096]


def test_delta_check_builds_no_forms_or_profile(monkeypatch, capsys):
    # delta reads the driver's plain rows: no ProfileEntry list, no f and g forms
    calls = []
    for name in ("finish_profile", "vop"):
        real = getattr(VOPState, name)
        monkeypatch.setattr(
            VOPState, name, lambda self, real=real, name=name: calls.append(name) or real(self)
        )
    code, out, _ = run_cli(capsys, "rueppel", "--n", "4096", "--verify", "delta")
    assert code == 0 and "verify delta: pass" in out and calls == []


def test_verify_returns_the_last_pair_of_the_sweep():
    # the lockstep loop takes the even prefixes, and an odd n's last bit after it
    for names in [(), VERIFY_CHECKS] + [(c,) for c in VERIFY_CHECKS]:
        for n in range(1, 71):
            *_, last = cli._ralg_pairs(n)
            assert cli._verify(names, n)[0] == last, (names, n)


def test_rueppel_verify_memory_is_linear_in_n(capsys):
    # the sweep is read in lockstep: no mask is kept per prefix, which
    # would grow the peak as n^2
    import tracemalloc

    peaks = []
    for n in (16384, 32768):
        tracemalloc.start()
        try:
            code, _, _ = run_cli(capsys, "rueppel", "--n", str(n), "--verify", "all", "--json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    assert peaks[1] <= 2.5 * peaks[0], peaks


def _flip_sweep_at(m):
    """Flip bit 0 of f's mask after the first m bits of the one sweep."""

    def corrupt(real):
        def ralg_pairs(n):
            for j, (f_mask, *rest) in enumerate(real(n), 1):
                yield (f_mask ^ (j == m), *rest)

        return ralg_pairs

    corrupt.__name__ = f"_flip_sweep_at_{m}"
    return corrupt


def test_each_check_alone_matches_its_entry_under_all(monkeypatch):
    real = cli._ralg_pairs
    for m in (None, 2, 64, 150):
        if m:
            monkeypatch.setattr(cli, "_ralg_pairs", _flip_sweep_at(m)(real))
        for n in range(1, 301):
            _, under_all = cli._verify(VERIFY_CHECKS, n)
            assert under_all == {c: _verify_one(c, n) for c in VERIFY_CHECKS}, (m, n)
            # a flipped f fails the checks that read its prefix, and no other
            assert all(under_all.values()) == (m is None or m > n), (m, n)


def _flip_dai_step(k, field):
    """Flip bit 0 of one field (0 quotient, 1 convergent, 2 remainder
    degree) at step k of the one cascade of an n=40 run, which has 20."""

    def corrupt(real):
        def steps(N, r):
            for j, step in enumerate(real(N, r), 1):
                if j == k:
                    step = step[:field] + (step[field] ^ 1,) + step[field + 1 :]
                yield step

        return steps

    corrupt.__name__ = f"_flip_dai_{('quotient', 'c', 'degree')[field]}_at_{k}"
    return corrupt


def _flip_constant_term(form):
    return packed_form(pack_bits(form.coeffs) ^ 1, form.degree)


def _flip_closed_form(real):
    def closed_form(l):  # the largest l with 2l <= 40
        return _flip_constant_term(real(l)) if l == 16 else real(l)

    return closed_form


def _flip_matrix(real):
    def matrix_recurrence(n):
        vop = real(n)
        return VOP(_flip_constant_term(vop.f), vop.g)

    return matrix_recurrence


def _flip_eta(real):
    def eta_ladder():  # eta(20) gains an x term, the last k of quad_ext_sweep(20)
        for k, (a, b) in enumerate(real(), 1):
            yield a ^ (0b10 if k == 20 else 0), b

    return eta_ladder


def _flip_delta(real):
    def driven_bits(*args, **kwargs):  # the last discrepancy
        state = real(*args, **kwargs)
        k, lam, delta, d = state._rows[-1]
        state._rows[-1] = (k, lam, delta ^ 1, d)
        return state

    return driven_bits


def _flip_driver_row(real):
    def _drive(self, stop):  # the driver's row for k = 21, an odd k: delta 1 becomes 0
        real(self, stop)
        k, lam, delta, d = self._rows[21]
        self._rows[21] = (k, lam, delta ^ 1, d)

    return _drive


@pytest.mark.parametrize(
    "check, module, name, corrupt",
    [
        ("dai", cli, "_dai_steps", _flip_dai_step(20, 0)),  # the last k
        ("dai", cli, "_dai_steps", _flip_dai_step(20, 1)),
        ("dai", cli, "_dai_steps", _flip_dai_step(1, 0)),  # x + 1 becomes x
        ("dai", cli, "_dai_steps", _flip_dai_step(7, 1)),
        ("dai", cli, "_dai_steps", _flip_dai_step(13, 2)),
        ("closed-form", cli, "closed_form", _flip_closed_form),
        ("matrix", cli, "matrix_recurrence", _flip_matrix),
        ("quadext", cli, "_eta_ladder", _flip_eta),
        ("delta", rueppel, "_driven_bits", _flip_delta),
        ("delta", VOPState, "_drive", _flip_driver_row),
        # the sweep itself, read by every check but delta: at 2l = 32
        # closed-form reads f, and the last pair (n = 40) is matrix's
        pytest.param(
            ("closed-form", "quadext", "dai"), cli, "_ralg_pairs", _flip_sweep_at(32),
            id="sweep-at-32",
        ),
        pytest.param(
            ("matrix", "quadext", "dai"), cli, "_ralg_pairs", _flip_sweep_at(40), id="sweep-at-40"
        ),
    ],
)
def test_rueppel_verify_fails_on_one_flipped_bit(
    capsys, monkeypatch, check, module, name, corrupt
):
    # one bit off fails the checks that read it and no other
    failing = (check,) if isinstance(check, str) else check
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code, out, _ = run_cli(capsys, "rueppel", "--n", "40", "--verify", "all")
    assert code == 2
    for other in VERIFY_CHECKS:
        assert f"verify {other}: {'FAIL' if other in failing else 'pass'}" in out
    for check in failing:
        code, out, _ = run_cli(capsys, "rueppel", "--n", "40", "--verify", check, "--json")
        assert code == 2 and json.loads(out)["checks"] == {check: False}


def test_closed_form_check_reads_the_sizes_ralg_does(monkeypatch):
    # the one-sweep check against the per-size ralg(2l) loop it replaced,
    # with the true closed form and with one broken at a single l
    def per_size(n):
        l, ok = 1, True
        while 2 * l <= n:
            ok = ok and ralg(2 * l).f == cli.closed_form(l)
            l <<= 1
        return ok

    real = cli.closed_form
    for bad in (None, 1, 8, 256):
        monkeypatch.setattr(
            cli, "closed_form", lambda l: _flip_constant_term(real(l)) if l == bad else real(l)
        )
        for n in range(1, 601):
            want = bad is None or 2 * bad > n
            assert _verify_one("closed-form", n) == per_size(n) == want, (bad, n)


@pytest.mark.parametrize(
    "length", [lambda steps: steps[:-1], lambda steps: steps + steps[-1:]], ids=["short", "over"]
)
def test_dai_check_needs_exactly_n_half_steps(monkeypatch, length):
    # one step short or one step over fails, though each step it compares matches
    real = cli._dai_steps
    monkeypatch.setattr(cli, "_dai_steps", lambda N, r: iter(length(list(real(N, r)))))
    assert not _verify_one("dai", 40)


def test_dai_check_reads_every_k_the_per_k_cascades_do(monkeypatch):
    # the one-cascade check against a per-k reference, one cascade on each
    # 2k-term prefix (the same for every n, so each runs once), with f's
    # true masks and with f broken after the 2k bits of a single k
    cascades = {k: _dai_cascade(k, _packed(rueppel_sequence(2 * k))) for k in range(1, 301)}

    def per_k(n):
        N = n // 2
        even_prefixes = islice(cli._ralg_pairs(2 * N), 1, None, 2)
        return all(
            cascades[k][:2] == (f_mask, (0b11,) + (0b10,) * (k - 1))
            for k, (f_mask, _, _, _) in enumerate(even_prefixes, 1)
        )

    real = cli._ralg_pairs
    for bad in (None, 1, 7, 150, 300):
        def pairs(n, flip_at=2 * bad if bad else 0):
            for m, (f_mask, *rest) in enumerate(real(n), 1):
                yield (f_mask ^ (m == flip_at), *rest)

        monkeypatch.setattr(cli, "_ralg_pairs", pairs)
        for n in range(1, 601):
            want = bad is None or 2 * bad > n
            assert _verify_one("dai", n) == per_k(n) == want, (bad, n)


def test_rueppel_bad_n(capsys):
    code, _, _ = run_cli(capsys, "rueppel", "--n", "0")
    assert code == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_rueppel_rejects_jobs_below_one(capsys, jobs):
    code, out, err = run_cli(capsys, "rueppel", "--n", "8", "--verify", "all", "--jobs", jobs)
    assert code == 1 and out == "" and "at least 1" in err


@pytest.mark.parametrize(
    "jobs, verify, cpus, want",
    [("1000", "all", 4, 4), ("1000", "all", 8, 5), ("3", "all", 8, 3), ("1000", "delta", 8, None)],
)
def test_rueppel_jobs_are_clamped(monkeypatch, capsys, jobs, verify, cpus, want):
    import concurrent.futures
    import os

    pools = []

    class InProcessPool:
        # records the worker count and runs the checks here: no process starts
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(capsys, "rueppel", "--n", "8", "--verify", verify, "--jobs", jobs)
    assert code == 0 and "FAIL" not in out
    assert pools == ([] if want is None else [want])


# -- bench ---------------------------------------------------------------------


def test_bench_csv(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--max-n", "128", "--step", "64", "--impl", "all", "--seed", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "impl,n,nanos,lambda"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 8  # four impls, two sizes
    by_n = {}
    for impl, n, nanos, lam in rows:
        assert int(nanos) > 0
        by_n.setdefault(n, {})[impl] = int(lam)
    for n, impls in by_n.items():
        assert set(impls) == {"vop", "packed", "ralg", "bm"}
        # same input, same complexity
        assert impls["packed"] == impls["vop"] == impls["bm"]


def test_bench_rows_rejects_an_unknown_impl():
    with pytest.raises(ValueError, match="unknown impl 'nope'"):
        cli.bench_rows([8], ("vop", "nope"), seed=0)


@pytest.mark.parametrize("flag", ["--step", "--max-n"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_bench_rejects_sizes_below_one(capsys, flag, value):
    sizes = {"--step": "64", "--max-n": "128", flag: value}
    code, out, err = run_cli(capsys, "bench", *[a for kv in sizes.items() for a in kv])
    assert code == 1 and out == "" and "at least 1" in err


def test_fit_loglog_slope_on_synthetic_quadratic():
    pts = [(n, 3.5 * n * n) for n in (256, 512, 1024, 2048)]
    assert abs(fit_loglog_slope(pts) - 2.0) < 1e-9


# -- profile -------------------------------------------------------------------


def test_profile_random_plcp(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "profile", "--random-plcp", "--n", "33", "--seed", "9")
    assert code == 0
    bits = out.strip()
    assert len(bits) == 33 and set(bits) <= {"0", "1"}
    # feed it back through analyze: must report a perfect profile
    p = tmp_path / "plcp.txt"
    p.write_text(bits + "\n")
    code, out, _ = run_cli(
        capsys, "analyze", "--field", "gf2", "--input", str(p), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["plcp"] is True and doc["lambda"] == 17


def test_profile_json(capsys):
    code, out, _ = run_cli(capsys, "profile", "--random-plcp", "--n", "8", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["plcp"] is True and len(doc["sequence"]) == 8


def test_profile_requires_flag(capsys):
    code, _, _ = run_cli(capsys, "profile", "--n", "8")
    assert code == 1


# -- wiring --------------------------------------------------------------------


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "seqideal.cli", "rueppel", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and "lambda: 3" in proc.stdout


def test_closed_stdout_exits_1_without_traceback(tmp_path):
    # 3,000 terms with --profile print about 136 KB, more than a pipe buffer
    p = tmp_path / "in.txt"
    rng = random.Random(3)
    p.write_text(" ".join(str(rng.randrange(7)) for _ in range(3000)) + "\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "seqideal.cli", "analyze", "--field", "gfp:7",
         "--input", str(p), "--profile"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"field: gfp:7\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_unknown_command_exits_1(capsys):
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys)[0] == 1
