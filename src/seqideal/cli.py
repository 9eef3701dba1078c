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
from itertools import islice
from typing import Optional, Union

from .bivariate import Form, InverseForm, UniPoly, dehomogenize
from .field import GF2, Field, FieldError, field_from_tag, pack_bits
from .oracles import (
    berlekamp_massey,
    brute_force_min_poly,
    connection_equals,
    satisfies_recurrence,
)
from .rueppel import (
    _ralg_pairs,
    closed_form,
    delta_parity_check,
    matrix_recurrence,
    quad_ext_sweep,
    ralg,
    rueppel_sequence,
)
from .vop_engine import (
    EngineError,
    ProfileEntry,
    _synthesize_fast,
    is_plcp,
    minimal_leading_forms,
    random_plcp_sequence,
    synthesize,
    synthesize_packed,
)

ORACLE_LENGTH_BOUND = 16
DAI_VERIFY_CAP = 256  # one division cascade per k; the cap keeps the dai check's cost fixed


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
        if not digits or any(c not in "0123456789abcdefABCDEF" for c in digits):
            raise CliParseError(line, col, f"bad hex literal {token!r}")
        bits = []
        for ch in digits:
            v = int(ch, 16)
            bits.extend(((v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1))
        return bits
    if all(c in "01" for c in token):
        return [int(c) for c in token]
    raise CliParseError(line, col, f"GF(2) token must be bits or 0x hex, got {token!r}")


def parse_sequence_text(text: str, field: Field) -> list:
    """Tokenize and parse an input file into raw field values."""
    out = []
    for token, line, col in _tokens(text):
        if field == GF2:
            out.extend(_expand_gf2(token, line, col))
        else:
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
    return tuple(field.parse(s) for s in d["coeffs"])


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
            prof = [
                {
                    "k": e.k,
                    "lambda": e.lam,
                    "delta": None if e.delta is None else self.field.format(e.delta),
                    "d": e.d,
                }
                for e in self.profile
            ]
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
            "profile": prof,
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
                    None if e["delta"] is None else field.parse(e["delta"]),
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
            for e in self.profile:
                delta = "-" if e.delta is None else self.field.format(e.delta)
                lines.append(f"  k={e.k} lambda={e.lam} delta={delta} d={e.d}")
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
        profile=list(profile) if with_profile else None,
        plcp=is_plcp(profile),
        theta=theta,
    )


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
        bf = brute_force_min_poly(seq, field)
        # a witness is monic of degree lambda and satisfies the recurrence
        mp = report.min_poly
        ok = bf.lam == report.lam == mp.degree and mp.is_monic
        ok = ok and satisfies_recurrence(mp, seq)
        print(f"oracle-check: {'ok' if ok else 'MISMATCH'}", file=sys.stderr)
        if not ok:
            status = 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render_text())
    return status


def _verify_one(check: str, n: int) -> bool:
    if check == "closed-form":
        l = 1
        ok = True
        while 2 * l <= n:
            ok = ok and ralg(2 * l).f == closed_form(l)
            l <<= 1
        return ok
    if check == "delta":
        return True if n < 2 else delta_parity_check(n)
    if check == "matrix":
        return matrix_recurrence(n) == ralg(n)
    if check == "quadext":
        return True if n < 2 else quad_ext_sweep(n // 2)
    if check == "dai":
        from .oracles import dai_ea

        x_plus_1 = UniPoly(GF2, [1, 1])
        x_only = UniPoly(GF2, [0, 1])
        max_k = min(n // 2, DAI_VERIFY_CAP)
        seq = rueppel_sequence(2 * max_k) if max_k else []
        # the pair after 2k bits; f(x, 1) has the coefficients of f's mask
        even_prefixes = islice(_ralg_pairs(2 * max_k), 1, None, 2)
        for k, (f_mask, _, _, _) in zip(range(1, max_k + 1), even_prefixes):
            ea = dai_ea(k, seq[: 2 * k], GF2)
            want_q = [x_plus_1] + [x_only] * (k - 1)
            if list(ea.quotients) != want_q:
                return False
            if pack_bits(ea.c.coeffs) != f_mask:
                return False
        return True
    raise ValueError(f"unknown check {check!r}")


VERIFY_CHECKS = ("closed-form", "delta", "matrix", "quadext", "dai")


def cmd_rueppel(args) -> int:
    if args.n < 1 or args.jobs < 1:
        print("error: --n and --jobs must be at least 1", file=sys.stderr)
        return 1
    vop = ralg(args.n)
    lam = vop.f.degree
    checks = []
    if args.verify:
        names = VERIFY_CHECKS if args.verify == "all" else (args.verify,)
        workers = min(args.jobs, len(names), os.cpu_count() or 1)
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_verify_one, names, [args.n] * len(names)))
            checks = list(zip(names, results))
        else:
            checks = [(name, _verify_one(name, args.n)) for name in names]

    if args.json:
        out = {
            "n": args.n,
            "lambda": lam,
            "f": _poly_dict(GF2, vop.f.coeffs),
            "checks": {name: ok for name, ok in checks},
        }
        print(json.dumps(out, indent=2))
    else:
        print(f"n: {args.n}")
        print(f"lambda: {lam}")
        print(f"f: {vop.f}")
        for name, ok in checks:
            print(f"verify {name}: {'pass' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 2


def bench_rows(ns, impls, seed: int):
    """Timing rows (impl, n, nanos, lambda) over seeded random GF(2)
    input; the ralg implementation times its own Rueppel input."""
    import random as _random

    from .oracles import berlekamp_massey as _bm

    engines = {"vop": synthesize, "packed": synthesize_packed}

    rng = _random.Random(seed)
    rows = []
    for n in ns:
        seq = [rng.randrange(2) for _ in range(n)]
        F = InverseForm(GF2, seq)
        for impl in impls:
            if impl in engines:
                t0 = time.perf_counter_ns()
                vop, _ = engines[impl](F)
                nanos = time.perf_counter_ns() - t0
                lam = vop.f.degree
            elif impl == "bm":
                t0 = time.perf_counter_ns()
                res = _bm(seq, GF2)
                nanos = time.perf_counter_ns() - t0
                lam = res.L
            elif impl == "ralg":
                t0 = time.perf_counter_ns()
                v = ralg(n)
                nanos = time.perf_counter_ns() - t0
                lam = v.f.degree
            else:
                raise ValueError(f"unknown impl {impl!r}")
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
        "--verify",
        choices=VERIFY_CHECKS + ("all",),
        help="run consistency checks (dai is capped at k=256)",
    )
    r.add_argument("--json", action="store_true")
    r.add_argument(
        "--jobs", type=int, default=1,
        help="parallel verify shards (at most one per check and per CPU)",
    )
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
