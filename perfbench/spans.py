"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side of each layer boundary: the
benchmark replaces module attributes of ``seqideal`` (and the
``dot`` / ``submul_at`` kernels of the field singleton in use) with thin
wrappers, and ``uninstall`` puts the originals back.  Nothing in ``src/``
knows it is being traced.

Each call made while the wrappers are installed records one span (name,
start, end, parent, op) in memory; ``parent`` is the index of the
enclosing span.  Counters are kept per op next to the spans.  Self time
is derived after the run.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

# field kernels are attributed to the caller's layer for the counters
ENGINE, ORACLE = "vop_engine.", "oracles."


class Recorder:
    """Spans live in flat arrays (name id, start, end, parent index, op),
    which the cyclic garbage collector never walks, so a long traced run
    does not slow down the untraced ops interleaved with it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")  # -1 at the top of an op
        self.op_of = array("q")
        self.stack: list[int] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.maxima: dict[tuple[int, str], int] = {}
        self.op = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, count=None, before=None):
        """A stand-in for ``fn`` that records one span per call.

        ``before(args)`` runs before the span opens and its value is
        passed on; ``count(args, result, pre)`` runs after it closes, so
        neither is charged to the span itself.
        """
        rec = self
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        calls = name + ".calls"
        name_of, start, end, parent, op_of = (
            self.name_of, self.start, self.end, self.parent, self.op_of)

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            stack = rec.stack
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(rec.op)
            end.append(0.0)
            stack.append(idx)
            start.append(rec.clock())
            try:
                return_value = fn(*args, **kwargs)
            finally:
                end[idx] = rec.clock()
                stack.pop()
            rec.counts[rec.op, calls] += 1
            if count is not None:
                count(args, return_value, pre)
            return return_value

        traced.__wrapped__ = fn
        return traced

    def add(self, key: str, value=1):
        self.counts[self.op, key] += value

    def peak(self, key: str, value: int):
        k = (self.op, key)
        if value > self.maxima.get(k, -1):
            self.maxima[k] = value

    def caller(self) -> str:
        """Name of the innermost open span ('' at the top of an op)."""
        return self.names[self.name_of[self.stack[-1]]] if self.stack else ""

    # -- derived figures -----------------------------------------------------

    def totals(self, by_caller=False) -> dict[str, tuple[float, float, int]]:
        """Per span name over the whole run: (total_s, self_s, calls).

        Self time is a span's duration minus that of its direct children.
        With ``by_caller`` the field kernels are keyed by the layer that
        called them, e.g. ``field.gf2.submul_at[oracles]``.  No traced
        function recurses, so total time never double counts.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        agg: dict[str, list] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            p = self.parent[i]
            if by_caller and name.startswith("field.") and p >= 0:
                name = f"{name}[{self.names[self.name_of[p]].split('.')[0]}]"
            row = agg.setdefault(name, [0.0, 0.0, 0])
            row[0] += dur[i]
            row[1] += dur[i] - child[i]
            row[2] += 1
        return {k: (v[0], v[1], v[2]) for k, v in agg.items()}

    def write(self, path):
        """Dump every span as tab-separated name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n")


class Tracer:
    """Installs and removes the wrappers on one set of seqideal modules."""

    def __init__(self, mods, field, rec: Recorder):
        self.rec = rec
        self.mods = mods
        self.field = field
        self._saved: list[tuple[object, str, object, bool]] = []

    def _set(self, owner, attr, name, count=None, before=None):
        had_own = attr in vars(owner)
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self.rec.wrap(name, orig, count, before))

    def install(self):
        m, rec = self.mods, self.rec
        cli, ve, bv, orc, rp = m.cli, m.vop_engine, m.bivariate, m.oracles, m.rueppel

        def tokens(args, result, pre):
            rec.add("cli.parse_sequence_text.tokens", len(args[0].replace(",", " ").split()))

        def window(args, result, pre):
            # discrepancy_window(field, fcoeffs, seq, n) dots all of f
            # against the sequence tail, or returns zero when f is longer
            _, fcoeffs, _, n = args
            if len(fcoeffs) <= n:
                rec.add("vop_engine.discrepancy_window.coeffs", len(fcoeffs))

        def q_bits(args, result, pre):
            vop = result[0]
            if vop.f.field.kind == "q":
                rec.peak("field.q.max_coeff_bits", max(
                    max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in vop.f.coeffs
                ))

        def advance_pre(args):
            st = args[0]
            return st._active, len(st._f)

        def advance(args, result, pre):
            was_active, flen = pre
            if was_active and len(args[0]._f) > flen:
                rec.add("vop_engine.length_changes")

        def clmul(args, result, pre):
            rec.add("rueppel.clmul.bits", args[1].bit_length())

        self._set(cli, "main", "cli.main")
        self._set(cli, "parse_sequence_text", "cli.parse_sequence_text", tokens)
        self._set(cli, "InverseForm", "bivariate.InverseForm")
        self._set(cli, "synthesize", "vop_engine.synthesize", q_bits)
        self._set(cli, "berlekamp_massey", "oracles.berlekamp_massey")
        self._set(cli.AnalysisReport, "to_dict", "cli.AnalysisReport.to_dict")
        for fn in ("quad_ext_sweep", "delta_parity_check", "matrix_recurrence",
                   "closed_form", "ralg"):
            self._set(cli, fn, f"rueppel.{fn}")
        self._set(rp, "synthesize", "vop_engine.synthesize")
        self._set(rp, "clmul", "rueppel.clmul", clmul)
        self._set(orc, "dai_ea", "oracles.dai_ea")
        self._set(bv.UniPoly, "__divmod__", "bivariate.UniPoly.divmod")
        self._set(ve, "discrepancy_window", "vop_engine.discrepancy_window", window)
        self._set(ve.VOPState, "advance", "vop_engine.VOPState.advance", advance, advance_pre)
        self._set(ve.VOPState, "copy", "vop_engine.VOPState.copy")
        field = self.field

        def submul(args, result, pre):
            layer = rec.caller()
            for prefix in (ENGINE, ORACLE):
                if layer.startswith(prefix):
                    rec.add(prefix + "submul_at.calls")
                    rec.add(prefix + "submul_at.coeffs", len(args[2]))

        self._set(field, "dot", f"field.{field.kind}.dot")
        self._set(field, "submul_at", f"field.{field.kind}.submul_at", submul)

    def uninstall(self):
        while self._saved:
            owner, attr, orig, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
