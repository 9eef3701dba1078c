"""Tests for the benchmark's span recorder, counters and output checks."""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent))  # for tests.conftest

import run  # noqa: E402
from spans import Recorder, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    GF2AnalyzeBM,
    OpTimer,
    Round,
    Workload,
    run_cli,
)

from seqideal import GF, GF2, QQ, InverseForm  # noqa: E402
from seqideal.rueppel import rueppel_basis, rueppel_sequence  # noqa: E402
from tests.conftest import FITZ  # noqa: E402


def test_self_time_excludes_direct_children():
    ticks = iter([0.0, 2.0, 5.0, 6.0, 6.5, 6.8, 7.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap("leaf", lambda: None)

    def mid_body():
        leaf()

    mid = rec.wrap("mid", mid_body)
    first = rec.wrap("first", lambda: None)

    def outer_body():
        first()   # 2.0 .. 5.0
        mid()     # 6.0 .. 7.0, with leaf 6.5 .. 6.8

    rec.wrap("outer", outer_body)()  # 0.0 .. 10.0
    totals = rec.totals()
    assert totals["outer"] == pytest.approx((10.0, 6.0, 1))
    assert totals["first"] == pytest.approx((3.0, 3.0, 1))
    assert totals["mid"] == pytest.approx((1.0, 0.7, 1))
    assert totals["leaf"] == pytest.approx((0.3, 0.3, 1))
    assert rec.counts[0, "outer.calls"] == 1


def _engine_counts(field, seq, basis=None):
    mods = run.modules()
    rec = Recorder()
    tracer = Tracer(mods, field, rec)
    tracer.install()
    try:
        mods.vop_engine.synthesize(InverseForm(field, seq), basis=basis)
    finally:
        tracer.uninstall()
    return (
        rec.counts[0, "vop_engine.discrepancy_window.calls"],
        rec.counts[0, "vop_engine.submul_at.calls"],
        rec.counts[0, "vop_engine.length_changes"],
    )


def test_counts_match_hand_count_of_fitz_table():
    # FITZ_TABLE: nine steps, deltas 0 0 0 -1 1 1 1 1 1, and f grows at
    # k = 4 (x -> x^4 + z^4) and k = 8 (degree 4 -> 5)
    assert _engine_counts(QQ, FITZ) == (9, 6, 2)


def test_counts_match_hand_count_of_first8_table():
    # FIRST8_TABLE: nine steps, delta = k mod 2, every odd step grows f
    assert _engine_counts(GF2, rueppel_sequence(10), rueppel_basis()) == (9, 4, 4)


def test_uninstall_restores_every_attribute():
    mods = run.modules()
    before = (mods.vop_engine.VOPState.advance, mods.cli.main,
              mods.bivariate.UniPoly.__divmod__, mods.rueppel.clmul)
    tracer = Tracer(mods, GF2, Recorder())
    tracer.install()
    assert "submul_at" in vars(GF2)
    tracer.uninstall()
    assert "submul_at" not in vars(GF2) and "dot" not in vars(GF2)
    assert before == (mods.vop_engine.VOPState.advance, mods.cli.main,
                      mods.bivariate.UniPoly.__divmod__, mods.rueppel.clmul)


def _round(wl, field, inp):
    mods = run.modules()
    r = wl.run(mods, field, inp, OpTimer())
    assert r.raised == 0
    return mods, r.output


def test_analyze_check_fires_on_a_corrupted_report():
    wl = WORKLOADS["q-analyze"]
    text = " ".join(map(str, FITZ))
    inp = (text, [QQ.coerce(a) for a in FITZ])
    mods, (rc, out, err) = _round(wl, QQ, inp)
    assert wl.check(mods, QQ, inp, (rc, out, err), {}, 0)

    rep = json.loads(out)
    rep["lambda"] += 1
    assert not wl.check(mods, QQ, inp, (rc, json.dumps(rep), err), {}, 0)
    rep = json.loads(out)
    rep["min_poly"]["coeffs"][0] = "2"
    assert not wl.check(mods, QQ, inp, (rc, json.dumps(rep), err), {}, 0)
    assert not wl.check(mods, QQ, inp, (2, out, err), {}, 0)
    assert not wl.check(mods, QQ, inp, (rc, out[:-3], err), {}, 0)


def test_gf2_input_round_trips_through_the_parser():
    wl = GF2AnalyzeBM()
    text, bits = wl.make_input(random.Random(5), GF2, 256)
    mods = run.modules()
    assert mods.cli.parse_sequence_text(text, GF2) == bits
    rc, out, err = run_cli(mods.cli, list(wl.argv), text)
    assert rc == 0 and "bm-check: ok" in err
    assert wl.check(mods, GF2, (text, bits), (rc, out, err), {}, 0)


def test_stream_check_fires_on_a_wrong_final_pair():
    wl = WORKLOADS["gfp-stream-fork"]
    field = GF(101)
    rng = random.Random(3)
    seq = [rng.randrange(101) for _ in range(512)]
    spec = [[rng.randrange(101) for _ in range(wl.fork_depth)] for _ in range(2)]
    mods, state = _round(wl, field, (seq, spec))
    assert state.consumed == len(seq)
    assert wl.check(mods, field, (seq, spec), state, {}, 0)
    other = list(seq)
    other[-1] = (other[-1] + 1) % 101
    assert not wl.check(mods, field, (other, spec), state, {}, 0)


def test_rueppel_check_fires_on_a_failed_verify_or_wrong_lambda():
    wl = WORKLOADS["rueppel-verify"]
    mods, (rc, out, err) = _round(wl, GF2, 16)
    assert wl.check(mods, GF2, 16, (rc, out, err), {}, 0)
    rep = json.loads(out)
    rep["checks"]["dai"] = False
    assert not wl.check(mods, GF2, 16, (rc, json.dumps(rep), err), {}, 0)
    rep = json.loads(out)
    rep["lambda"] = 9
    assert not wl.check(mods, GF2, 16, (rc, json.dumps(rep), err), {}, 0)


class _Flaky(Workload):
    name = "flaky"
    pool = 2

    def run(self, mods, field, inp, timer):
        t0 = timer.start()
        timer.stop(t0)
        if inp == "boom":
            return Round(None, 1, 1, 1)
        return Round(inp, 1, 0, 1)

    def check(self, mods, field, inp, output, oracle_cache, key):
        return output == "ok"


def test_raised_and_wrong_ops_count_as_failed():
    timer, stats = run.measure(_Flaky(), None, None, ["ok", "boom"], 0.0)
    assert (stats["attempted"], stats["failed"]) == (2, 1)
    timer, stats = run.measure(_Flaky(), None, None, ["wrong", "ok"], 0.0)
    assert (stats["attempted"], stats["failed"]) == (2, 1)
    assert len(timer.times) == 2


def test_known_fork_defect_counts_as_a_failed_op():
    # VOPState.copy() drops the basis slot, so a fork taken while the
    # stream is still all zeros raises on its first advance()
    wl = WORKLOADS["gfp-stream-fork"]
    field = GF(101)
    seq = [0] * wl.fork_every + [1] * wl.fork_every
    spec = [[1] * wl.fork_depth for _ in range(2)]
    timer, stats = run.measure(wl, run.modules(), field, [(seq, spec)], 0.0)
    assert stats["failed"] == 1
    assert stats["attempted"] == len(seq) + 1 + wl.fork_depth
