"""The four benchmark workloads.

Each workload builds its inputs from a ``random.Random`` seeded by the
benchmark, runs *rounds* over them (one input per round, one or more
timed ops per round), and checks every round's output against an
oracle already in the repository, outside the timed region.

Why these four (each stresses different layers; see README.md):

* ``gf2-analyze-bm``  generic engine with the GF(2) field kernels plus the
  Berlekamp-Massey oracle inside the op; where a packed GF(2) engine shows.
* ``q-analyze``       QQ field kernels (Fraction gcds dominate); bypasses
  every GF(2) path; where multi-modular rational synthesis shows.
* ``gfp-stream-fork`` the same engine driven incrementally through
  ``VOPState`` with forks, exposing per-term latency and ``copy()``.
* ``rueppel-verify``  the only caller of the bit-packed Rueppel loops,
  ``QuadExt``/``clmul`` and the division cascade over ``UniPoly.divmod``.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import NamedTuple

clock = time.perf_counter


class OpTimer:
    """Collects op wall times; ``rec`` (a spans.Recorder, or None) gets
    the running op id so spans and counts are keyed by op."""

    def __init__(self):
        self.times: list[float] = []
        self.traced: list[bool] = []
        self.rec = None
        self.next_op = 0

    def start(self) -> float:
        if self.rec is not None:
            self.rec.op = self.next_op
        return clock()

    def stop(self, t0: float):
        self.times.append(clock() - t0)
        self.traced.append(self.rec is not None)
        self.next_op += 1


def run_cli(cli, argv, stdin_text):
    """seqideal.cli.main in-process on text fed through stdin; returns
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


class Round(NamedTuple):
    """What one round hands to its check: the output, how many ops it
    attempted, how many of those raised, and terms consumed."""

    output: object
    attempted: int
    raised: int
    terms: int


def cli_op(mods, argv, stdin_text, timer: OpTimer, terms: int) -> Round:
    """One timed op through seqideal.cli.main; the output is
    (exit code, stdout, stderr), or None when main raised."""
    t0 = timer.start()
    try:
        result = run_cli(mods.cli, argv, stdin_text)
    except Exception:
        timer.stop(t0)
        return Round(None, 1, 1, terms)
    timer.stop(t0)
    if timer.rec is not None:
        timer.rec.add("cli.report.bytes", len(result[1]))
    return Round(result, 1, 0, terms)


class Workload:
    name = ""
    field_tag = ""
    n = 0          # sequence length of one input
    warm_n = 0     # sequence length of the warm-up input
    pool = 1       # distinct inputs per run, reused round-robin

    def make_input(self, rng, field, n):
        raise NotImplementedError

    def run(self, mods, field, inp, timer: OpTimer) -> Round:
        raise NotImplementedError

    def check(self, mods, field, inp, output, oracle_cache: dict, key) -> bool:
        raise NotImplementedError


def _bm(mods, field, seq, oracle_cache, key):
    """Berlekamp-Massey of an input, computed once per input and run."""
    if key not in oracle_cache:
        oracle_cache[key] = mods.oracles.berlekamp_massey(seq, field)
    return oracle_cache[key]


def _agrees(mods, bm, lam, unique, min_poly) -> bool:
    """The engine's answer against Berlekamp-Massey: the same linear
    complexity, and the same polynomial when it is the unique one."""
    if bm.L != lam:
        return False
    return not unique or mods.oracles.connection_equals(bm, min_poly)


class _Analyze(Workload):
    argv: tuple = ()

    def run(self, mods, field, inp, timer):
        text, seq = inp
        return cli_op(mods, list(self.argv), text, timer, len(seq))

    def check(self, mods, field, inp, output, oracle_cache, key):
        rc, out, _ = output
        if rc != 0:
            return False
        try:
            rep = json.loads(out)
            f_deg, g_deg = rep["f"]["degree"], rep["g"]["degree"]
            min_poly = mods.bivariate.UniPoly(
                field, [field.parse(c) for c in rep["min_poly"]["coeffs"]]
            )
        except (ValueError, KeyError, TypeError):
            return False
        _, seq = inp
        if rep["n"] != len(seq):
            return False
        bm = _bm(mods, field, seq, oracle_cache, key)
        unique = not rep["degenerate"] and g_deg > f_deg
        return _agrees(mods, bm, rep["lambda"], unique, min_poly)


class GF2AnalyzeBM(_Analyze):
    name = "gf2-analyze-bm"
    field_tag = "gf2"
    n = 4096
    warm_n = 256
    pool = 4
    argv = ("analyze", "--field", "gf2", "--input", "-", "--json", "--profile", "--check-bm")

    def make_input(self, rng, field, n):
        # n random bits as 0x hex tokens of 32 bits, 8 tokens a line;
        # the most significant bit of the first token is s_0
        value = rng.getrandbits(n)
        digits = format(value, f"0{n // 4}x")
        tokens = ["0x" + digits[i : i + 8] for i in range(0, len(digits), 8)]
        lines = [" ".join(tokens[i : i + 8]) for i in range(0, len(tokens), 8)]
        return "\n".join(lines) + "\n", [int(b) for b in format(value, f"0{n}b")]


class QAnalyze(_Analyze):
    name = "q-analyze"
    field_tag = "q"
    n = 192
    warm_n = 24
    pool = 4
    argv = ("analyze", "--field", "q", "--input", "-", "--json", "--profile")

    def make_input(self, rng, field, n):
        pairs = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        text = " ".join(f"{a}/{b}" for a, b in pairs) + "\n"
        return text, [Fraction(a, b) for a, b in pairs]


class GFpStreamFork(Workload):
    name = "gfp-stream-fork"
    field_tag = "gfp:2147483647"
    n = 4096
    warm_n = 512
    pool = 1
    fork_every = 256
    fork_depth = 8

    def make_input(self, rng, field, n):
        seq = [rng.randrange(field.p) for _ in range(n)]
        spec = [
            [rng.randrange(field.p) for _ in range(self.fork_depth)]
            for _ in range(n // self.fork_every)
        ]
        return seq, spec

    def run(self, mods, field, inp, timer):
        # one op is one push plus advance; the op that opens a fork also
        # pays for the copy() it forks from
        seq, spec = inp
        state = mods.vop_engine.VOPState(field)
        attempted = raised = 0
        for t, a in enumerate(seq):
            attempted += 1
            t0 = timer.start()
            try:
                state.push(a).advance()
            except Exception:
                timer.stop(t0)
                return Round(None, attempted, raised + 1, attempted)
            timer.stop(t0)
            if (t + 1) % self.fork_every:
                continue
            for j, b in enumerate(spec[(t + 1) // self.fork_every - 1]):
                attempted += 1
                t0 = timer.start()
                try:
                    if j == 0:
                        branch = state.copy()
                    branch.push(b).advance()
                except Exception:
                    timer.stop(t0)
                    raised += 1
                    break
                timer.stop(t0)
        return Round(state, attempted, raised, attempted)

    def check(self, mods, field, inp, state, oracle_cache, key):
        seq, _ = inp
        if state.consumed != len(seq):
            return False
        vop = state.vop()
        lam = 0 if vop.degenerate else vop.f.degree
        unique = not vop.degenerate and vop.g.degree > vop.f.degree
        bm = _bm(mods, field, seq, oracle_cache, key)
        min_poly = mods.bivariate.dehomogenize(vop.f) if unique else None
        return _agrees(mods, bm, lam, unique, min_poly)


class RueppelVerify(Workload):
    name = "rueppel-verify"
    field_tag = "gf2"
    n = 4096
    warm_n = 64
    pool = 1
    checks = ("closed-form", "delta", "matrix", "quadext", "dai")

    def make_input(self, rng, field, n):
        # the Rueppel sequence is fixed by n; the seed changes nothing
        return n

    def run(self, mods, field, n, timer):
        argv = ["rueppel", "--n", str(n), "--verify", "all", "--json"]
        return cli_op(mods, argv, "", timer, n)

    def check(self, mods, field, n, output, oracle_cache, key):
        rc, out, _ = output
        if rc != 0:
            return False
        try:
            rep = json.loads(out)
        except ValueError:
            return False
        checks = rep.get("checks", {})
        return (
            rep.get("n") == n
            and rep.get("lambda") == (n + 1) // 2
            and sorted(checks) == sorted(self.checks)
            and all(v is True for v in checks.values())
        )


WORKLOADS = {w.name: w for w in (GF2AnalyzeBM(), QAnalyze(), GFpStreamFork(), RueppelVerify())}
