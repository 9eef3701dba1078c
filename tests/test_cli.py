import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies

from seqideal.cli import (
    AnalysisReport,
    CliParseError,
    build_report,
    fit_loglog_slope,
    main,
    parse_sequence_text,
)
from seqideal import GF, GF2, QQ, EngineError, FieldError
from seqideal.oracles import BMResult, BruteForceResult
from seqideal.bivariate import UniPoly
from seqideal.field import PRIME_BOUND
from seqideal.vop_engine import THETA_ENUMERATE_CAP
from tests.conftest import FIELD_VALUES, FITZ, value_runs

FITZ_TEXT = "1 0 0 0 -1\n1 0 0 1 -2\n"


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


def test_parse_errors_carry_position():
    with pytest.raises(CliParseError) as e:
        parse_sequence_text("1 0\n0 2 1", GF2)
    assert e.value.line == 2 and e.value.col == 3
    with pytest.raises(CliParseError):
        parse_sequence_text("", GF2)
    with pytest.raises(CliParseError):
        parse_sequence_text("0xZZ", GF2)
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


@pytest.mark.parametrize("tag, text", [("gfp:2147483647", "0 1"), ("gfp:7", "0 " * 9 + "1")])
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
    # a wrong linear complexity from the oracle
    monkeypatch.setattr(
        cli_mod, "brute_force_min_poly", lambda seq, field: BruteForceResult(99, None)
    )
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
    code, out, err = run_cli(
        capsys, "analyze", "--field", f"gfp:{2**89 - 1}", "--input", "-"
    )
    assert code == 1 and out == "" and str(PRIME_BOUND) in err


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


def test_rueppel_verify_jobs(capsys):
    code, out, _ = run_cli(
        capsys, "rueppel", "--n", "24", "--verify", "all", "--jobs", "2"
    )
    assert code == 0 and out.count(": pass") == 5


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
