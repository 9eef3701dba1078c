"""One sha256 over the CLI's exit codes and output bytes on a fixed corpus.

The corpus is seeded, short and run in process: ``analyze`` over four
fields with every report flag, and ``rueppel --verify all`` at a few
lengths.  A change that alters any byte of any report, error line or
exit code changes the digest; a change meant to keep the output the
same keeps it.  When an output change is intended, print
``cli_corpus_digest()`` and commit the new value with the change.
"""

import contextlib
import hashlib
import io
import random
import sys
from fractions import Fraction

from seqideal.cli import main

CLI_CORPUS_DIGEST = "216b383819352c7cbd7e8e56dc701c0b7891b26efdd0e0bb994188600616fbdf"

ANALYZE_FLAGS = [
    (),
    ("--json",),
    ("--profile",),
    ("--json", "--profile"),
    ("--enumerate-theta",),
    ("--json", "--enumerate-theta"),
    ("--check-bm",),
    ("--check-oracle",),
    ("--json", "--profile", "--check-bm", "--check-oracle"),
]


def _token(tag: str, rng: random.Random) -> str:
    if tag == "gf2":
        return rng.choice(["0", "1", "1", "0110", "0x" + format(rng.randrange(256), "02x")])
    if tag == "q":
        return str(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    # gfp: signed ints, some past the modulus, zeros as often as not
    return str(rng.choice([0, rng.randint(-20, 20), rng.randint(-(2**40), 2**40)]))


def _inputs(tag: str, rng: random.Random) -> list[str]:
    texts = ["0 0 0", "1", "1 x"]
    for n in (2, 5, 9, 14, 24):
        texts.append(" ".join(_token(tag, rng) for _ in range(n)))
    return texts


def _corpus():
    rng = random.Random(20231015)
    for tag in ("gf2", "gfp:7", "gfp:2147483647", "q"):
        for text in _inputs(tag, rng):
            for flags in ANALYZE_FLAGS:
                yield ("analyze", "--field", tag, "--input", "-") + flags, text
    for n in (1, 2, 17, 64, 300):
        for flags in ((), ("--json",)):
            yield ("rueppel", "--n", str(n), "--verify", "all") + flags, ""


def cli_corpus_digest() -> str:
    h = hashlib.sha256()
    real_stdin = sys.stdin
    try:
        for argv, text in _corpus():
            out, err = io.StringIO(), io.StringIO()
            sys.stdin = io.StringIO(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(argv))
            h.update(repr((argv, text, code, out.getvalue(), err.getvalue())).encode())
    finally:
        sys.stdin = real_stdin
    return h.hexdigest()


def test_cli_output_bytes_are_frozen():
    assert cli_corpus_digest() == CLI_CORPUS_DIGEST
