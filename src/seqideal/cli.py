"""Command line front end.

Subcommands: ``analyze`` (sequence file in, report out), ``rueppel``
(Rueppel-sequence checks), ``bench`` (CSV timings) and ``profile``
(perfect-profile sequence generator).  Exit codes: 0 success, 1 usage or
parse error, 2 cross-check or verification mismatch.

Input files hold one field element per whitespace- or comma-separated
token.  Over GF(2) a token may also be a contiguous bitstring or a hex
literal with 0x prefix; in both cases the most significant bit is s_0.
JSON output serializes polynomials as {"degree": d, "coeffs": [c_0..c_d]}
with coefficients as decimal strings (``a/b`` for rationals), which keeps
arbitrary precision values lossless.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

from .bivariate import Form, InverseForm, UniPoly, dehomogenize
from .field import _DIGIT_BITS, GF2, Field, FieldError, field_from_tag
from .oracles import (
    ORACLE_LENGTH_BOUND,
    _dai_steps,
    _least_degree,
    berlekamp_massey,
    connection_equals,
    satisfies_recurrence,
)
from .rueppel import (  # quad_ext_sweep is not called here; perfbench spans it on cli
    _eta_certifies,
    _eta_ladder,
    _ralg_pairs,
    closed_form,
    delta_parity_check,
    matrix_recurrence,
    quad_ext_sweep,
    ralg,
)
from .vop_engine import (
    VOP,
    EngineError,
    ProfileEntry,
    _synthesize_fast,
    is_plcp,
    minimal_leading_forms,
    packed_form,
    random_plcp_sequence,
    synthesize,
    synthesize_packed,
)


class CliParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# -- input -----------------------------------------------------------------

_TOKEN = re.compile(r"[^,\s]+")


def _tokens(text: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            yield m.group(0), lineno, m.start() + 1


def _expand_gf2(token: str, line: int, col: int) -> list[int]:
    if token.startswith(("0x", "0X")):
        digits = token[2:]
        # checked first: int(digits, 16) would also take "1_0" and a sign
        if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise CliParseError(line, col, f"bad hex literal {token!r}")
        token = format(int(digits, 16), f"0{4 * len(digits)}b")
    elif not all(c in "01" for c in token):
        raise CliParseError(line, col, f"GF(2) token must be bits or 0x hex, got {token!r}")
    return list(token.encode().translate(_DIGIT_BITS))


def parse_sequence_text(text: str, field: Field) -> list:
    """Tokenize and parse an input file into raw field values."""
    out = []
    if field == GF2:
        for token, line, col in _tokens(text):
            out.extend(_expand_gf2(token, line, col))
    else:
        for token, line, col in _tokens(text):
            try:
                out.append(field.parse(token))
            except FieldError as e:
                raise CliParseError(line, col, str(e)) from None
    if not out:
        raise CliParseError(1, 1, "empty input")
    return out


# -- report ----------------------------------------------------------------


def _poly_dict(field: Field, coeffs) -> dict:
    return {
        "degree": len(coeffs) - 1,
        "coeffs": [field.format(c) for c in coeffs],
    }


def _poly_from_dict(field: Field, d: dict) -> tuple:
    return tuple(map(field.read, d["coeffs"]))


@dataclass
class AnalysisReport:
    field: Field
    n: int
    lam: int
    degenerate: bool
    f: Form
    g: Form
    min_poly: UniPoly
    profile: Optional[list[ProfileEntry]]
    plcp: bool
    theta: Union[str, list[Form]]

    def to_dict(self) -> dict:
        prof = None
        if self.profile is not None:
            fmt = self.field.format
            prof = [
                {"k": k, "lambda": lam, "delta": None if delta is None else fmt(delta), "d": d}
                for k, lam, delta, d in self.profile
            ]
        return self._doc(prof)

    def _doc(self, profile) -> dict:
        """The report's keys in order, profile as given (rows or JSON text)."""
        if isinstance(self.theta, str):
            theta = self.theta
        else:
            theta = [_poly_dict(self.field, t.coeffs) for t in self.theta]
        return {
            "field": self.field.tag,
            "n": self.n,
            "lambda": self.lam,
            "degenerate": self.degenerate,
            "f": _poly_dict(self.field, self.f.coeffs),
            "g": _poly_dict(self.field, self.g.coeffs),
            "min_poly": _poly_dict(self.field, self.min_poly.coeffs),
            "profile": profile,
            "plcp": self.plcp,
            "theta": theta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisReport":
        field = field_from_tag(d["field"])
        prof = None
        if d["profile"] is not None:
            prof = [
                ProfileEntry(
                    e["k"],
                    e["lambda"],
                    None if e["delta"] is None else field.read(e["delta"]),
                    e["d"],
                )
                for e in d["profile"]
            ]
        theta = d["theta"]
        if not isinstance(theta, str):
            theta = [Form(field, _poly_from_dict(field, t)) for t in theta]
        return cls(
            field=field,
            n=d["n"],
            lam=d["lambda"],
            degenerate=d["degenerate"],
            f=Form(field, _poly_from_dict(field, d["f"])),
            g=Form(field, _poly_from_dict(field, d["g"])),
            min_poly=UniPoly(field, _poly_from_dict(field, d["min_poly"])),
            profile=prof,
            plcp=d["plcp"],
            theta=theta,
        )

    def render_text(self) -> str:
        lines = [
            f"field: {self.field.tag}",
            f"n: {self.n}",
            f"lambda: {self.lam}",
            f"degenerate: {str(self.degenerate).lower()}",
            f"f: {self.f}",
            f"g: {self.g}",
            f"min_poly: {self.min_poly}",
            f"plcp: {str(self.plcp).lower()}",
        ]
        if isinstance(self.theta, str):
            lines.append(f"theta: {self.theta}")
        else:
            lines.append("theta: " + ", ".join(str(t) for t in self.theta))
        if self.profile is not None:
            lines.append("profile:")
            ks, lams, deltas, ds = zip(*self.profile)  # only the closing entry has no delta
            deltas = [*map(self.field.format, deltas[:-1]), "-"]
            lines += map("  k=%d lambda=%d delta=%s d=%d".__mod__, zip(ks, lams, deltas, ds))
        return "\n".join(lines)


def build_report(
    field: Field,
    seq: list,
    with_profile: bool,
    enumerate_theta: bool = False,
) -> AnalysisReport:
    vop, profile = _synthesize_fast(InverseForm(field, seq))
    theta_desc = minimal_leading_forms(vop)
    theta: Union[str, list[Form]]
    if enumerate_theta:
        theta = sorted(theta_desc.enumerate(), key=str)
    else:
        theta = theta_desc.describe()
    return AnalysisReport(
        field=field,
        n=len(seq),
        lam=0 if vop.degenerate else vop.f.degree,
        degenerate=vop.degenerate,
        f=vop.f,
        g=vop.g,
        min_poly=dehomogenize(vop.f),
        profile=profile if with_profile else None,
        plcp=is_plcp(profile),
        theta=theta,
    )


class _Verbatim(str):
    """JSON text written beforehand, which _json_text writes as it is."""


# json.dumps(obj, indent=2) runs CPython's pure-Python encoder, since the C
# one only serves indent=None; this writer gives the same text for the
# values the CLI emits, with C-level joins over whole lists
_SCALARS = {
    _Verbatim: str.__str__,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _scalars_text(values: list):
    """The text of each of values when all are scalars of one type, else None."""
    kinds = set(map(type, values))
    if len(kinds) != 1 or not kinds <= _SCALARS.keys():
        return None
    return map(_SCALARS[kinds.pop()], values)


def _json_text(obj, nl: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2) for dicts with str keys,
    lists, str, int, bool and None, and of _Verbatim text as it is; any
    other type raises TypeError."""
    kind = type(obj)
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    inner = nl + "  "
    if kind is dict:
        if not set(map(type, obj)) <= {str}:
            raise TypeError("keys must be str")
        if not obj:
            return "{}"
        items = (
            f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()
        )
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not obj:
        return "[]"
    texts = _scalars_text(obj)
    if texts is None:
        texts = (_json_text(v, inner) for v in obj)
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


# a profile row as json.dumps(indent=2) writes it one level inside the report
_PROFILE_ROW = '{\n      "k": %d,\n      "lambda": %d,\n      "delta": %s,\n      "d": %d\n    }'


def _report_json(report: AnalysisReport) -> str:
    """The text of json.dumps(report.to_dict(), indent=2), with the
    profile written column by column and no dict built per row."""
    profile = None
    if report.profile is not None:
        ks, lams, deltas, ds = zip(*report.profile)  # only the closing entry has no delta
        deltas = [*map(encode_basestring_ascii, map(report.field.format, deltas[:-1])), "null"]
        rows = map(_PROFILE_ROW.__mod__, zip(ks, lams, deltas, ds))
        profile = _Verbatim("[\n    " + ",\n    ".join(rows) + "\n  ]")
    return _json_text(report._doc(profile))


# -- subcommands -------------------------------------------------------------


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_analyze(args) -> int:
    try:
        field = field_from_tag(args.field.lower())
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    name = args.input if args.input != "-" else "<stdin>"
    try:
        text = _read_input(args.input)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as e:
        print(f"error: {name}: {e}", file=sys.stderr)
        return 1
    try:
        seq = parse_sequence_text(text, field)
    except CliParseError as e:
        print(f"{name}:{e}", file=sys.stderr)
        return 1
    try:
        report = build_report(field, seq, args.profile, args.enumerate_theta)
    except (FieldError, EngineError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        # an engine invariant or the SEQIDEAL_DEBUG_ASSERTS cross-check failed
        print(f"error: {e}", file=sys.stderr)
        return 2

    status = 0
    if args.check_bm:
        bm = berlekamp_massey(seq, field)
        ok = bm.L == report.lam
        if ok and not report.degenerate and report.g.degree > report.f.degree:
            ok = connection_equals(bm, report.min_poly)
        print(f"bm-check: {'ok' if ok else 'MISMATCH'}", file=sys.stderr)
        if not ok:
            status = 2
    if args.check_oracle:
        if len(seq) > ORACLE_LENGTH_BOUND:
            print(
                f"error: --check-oracle is limited to length {ORACLE_LENGTH_BOUND}",
                file=sys.stderr,
            )
            return 1
        # a witness is monic of degree lambda and satisfies the recurrence,
        # so only the least feasible degree is needed, not the witness set
        lam, _ = _least_degree(seq, field)
        mp = report.min_poly
        ok = lam == report.lam == mp.degree and mp.is_monic
        ok = ok and satisfies_recurrence(mp, seq)
        print(f"oracle-check: {'ok' if ok else 'MISMATCH'}", file=sys.stderr)
        if not ok:
            status = 2

    if args.json:
        print(_report_json(report))
    else:
        print(report.render_text())
    return status


VERIFY_CHECKS = ("closed-form", "delta", "matrix", "quadext", "dai")


def _verify(names, n: int):
    """The last pair of one sweep for n Rueppel bits, and {name: passed} for
    the named checks, which read it in lockstep and keep nothing per prefix:
    closed-form, quadext and dai read f after each even prefix 2k."""
    ok = {name: True for name in names if name in VERIFY_CHECKS}  # no entry for a typo
    N = n // 2
    ladder = _eta_ladder() if "quadext" in names else None
    r = sum(1 << (2 * N - (1 << j)) for j in range((2 * N).bit_length()))  # 2N bits, r_0 on top
    steps = _dai_steps(N, r) if "dai" in names else None  # one cascade, exactly N steps
    pairs = _ralg_pairs(n)
    for k, _ in zip(range(1, N + 1), pairs):  # the pair after 2k - 1 bits is skipped
        pair = next(pairs)
        f_mask = pair[0]
        if not k & (k - 1) and "closed-form" in names and packed_form(*pair[:2]) != closed_form(k):
            ok["closed-form"] = False
        if ladder and not _eta_certifies(k, next(ladder), f_mask):
            ok["quadext"] = False
        # step k of the cascade on 2N terms ends the one on 2k terms: quotient
        # x + 1 (k = 1) or x, c = f(x, 1), f's mask after 2k bits, and a
        # remainder degree 2N - 1 - k, which is k - 1 on 2k terms
        if steps and next(steps, None) != (0b11 if k == 1 else 0b10, f_mask, 2 * N - 1 - k):
            ok["dai"] = False
    for pair in pairs:  # the last pair: after bit n when n is odd (or n = 1)
        pass
    if steps and next(steps, None) is not None:
        ok["dai"] = False
    if "matrix" in names:  # pair is (f_mask, f_deg, g_mask, g_deg) after n bits
        ok["matrix"] = matrix_recurrence(n) == VOP(packed_form(*pair[:2]), packed_form(*pair[2:]))
    if "delta" in names:
        ok["delta"] = n < 2 or delta_parity_check(n)
    return pair, ok


def cmd_rueppel(args) -> int:
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 1
    names = VERIFY_CHECKS if args.verify == "all" else (args.verify,) if args.verify else ()
    (f_mask, lam, _, _), checks = _verify(names, args.n)

    if args.json:
        f = {"degree": lam, "coeffs": list(format(f_mask, f"0{lam + 1}b")[::-1])}  # c_0 first
        print(_json_text({"n": args.n, "lambda": lam, "f": f, "checks": checks}))
    else:
        print(f"n: {args.n}\nlambda: {lam}\nf: {packed_form(f_mask, lam)}")
        for name, ok in checks.items():
            print(f"verify {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(checks.values()) else 2


def bench_rows(ns, impls, seed: int):
    """Timing rows (impl, n, nanos, lambda) over seeded random GF(2)
    input; the ralg implementation times its own Rueppel input."""
    import random as _random

    # impl name -> the linear complexity it finds for (seq, its InverseForm)
    runs = {
        "vop": lambda seq, F: synthesize(F)[0].f.degree,
        "packed": lambda seq, F: synthesize_packed(F)[0].f.degree,
        "ralg": lambda seq, F: ralg(len(seq)).f.degree,
        "bm": lambda seq, F: berlekamp_massey(seq, GF2).L,
    }
    rng = _random.Random(seed)
    rows = []
    for n in ns:
        seq = [rng.randrange(2) for _ in range(n)]
        F = InverseForm(GF2, seq)
        for impl in impls:
            if impl not in runs:
                raise ValueError(f"unknown impl {impl!r}")
            t0 = time.perf_counter_ns()
            lam = runs[impl](seq, F)
            nanos = time.perf_counter_ns() - t0
            rows.append((impl, n, nanos, lam))
    return rows


def fit_loglog_slope(points) -> float:
    """Least squares slope of log(t) against log(n)."""
    import math

    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


BENCH_IMPLS = ("vop", "packed", "ralg", "bm")


def cmd_bench(args) -> int:
    if args.step < 1 or args.max_n < 1:
        print("error: --step and --max-n must be at least 1", file=sys.stderr)
        return 1
    impls = BENCH_IMPLS if args.impl == "all" else (args.impl,)
    ns = list(range(args.step, args.max_n + 1, args.step))
    if not ns:
        print("error: empty size range", file=sys.stderr)
        return 1
    print("impl,n,nanos,lambda")
    for impl, n, nanos, lam in bench_rows(ns, impls, args.seed):
        print(f"{impl},{n},{nanos},{lam}")
    return 0


def cmd_profile(args) -> int:
    if not args.random_plcp:
        print("error: profile requires --random-plcp", file=sys.stderr)
        return 1
    if args.n < 1:
        print("error: --n must be at least 1", file=sys.stderr)
        return 1
    seq = random_plcp_sequence(args.n, args.seed)
    if args.json:
        print(
            json.dumps(
                {
                    "n": args.n,
                    "seed": args.seed,
                    "sequence": "".join(map(str, seq)),
                    "plcp": True,
                }
            )
        )
    else:
        print("".join(map(str, seq)))
    return 0


# -- wiring ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="seqideal", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", parents=[], help="analyze a sequence file")
    a.add_argument("--field", required=True, help="gf2, gfp:<p> or q")
    a.add_argument("--input", required=True, help="path, or - for stdin")
    a.add_argument("--profile", action="store_true", help="include the profile")
    a.add_argument("--json", action="store_true")
    a.add_argument("--check-bm", action="store_true")
    a.add_argument("--check-oracle", action="store_true")
    a.add_argument("--enumerate-theta", action="store_true")
    a.set_defaults(func=cmd_analyze)

    r = sub.add_parser("rueppel", help="Rueppel sequence analysis and checks")
    r.add_argument("--n", type=int, required=True)
    r.add_argument(
        "--verify", choices=VERIFY_CHECKS + ("all",), help="run consistency checks"
    )
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_rueppel)

    b = sub.add_parser("bench", help="CSV timings")
    b.add_argument("--max-n", type=int, required=True)
    b.add_argument("--step", type=int, required=True)
    b.add_argument("--impl", choices=BENCH_IMPLS + ("all",), default="vop")
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)

    pr = sub.add_parser("profile", help="sequence generators around profiles")
    pr.add_argument("--random-plcp", action="store_true")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_profile)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    return args.func(args)


def console_main():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``); pointing stdout at devnull
        # keeps the interpreter's final flush from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    console_main()
