"""Golden step traces: the sha256 of the `run(..., on_step=...)` trace lines
of every run that tests/test_corpus.py pins, plus `spin` at fuel 100, as
the interpreter gave them before its control kinds became one step table.
Any change to the steps taken, their order, or the state and heap deltas
they record shows here.
"""

import hashlib

import pytest

from conftest import corpus
from seanode.interproc import run
from seanode.runtime import IntVal
from test_corpus import RUNS

# (file, fuel): (trace lines, sha256 of the lines joined by newlines, first 16 digits)
GOLDEN = {
    ("arith-chain", 1000): (1, "5e88e336cec20407"),
    ("call-chain", 1000): (7, "7007bc5d1f7cb4a0"),
    ("canon-chain", 1000): (1, "c82a192dee757753"),
    ("catch-exception", 1000): (6, "23fdaa7467d31dea"),
    ("conditional-same-branches", 1000): (1, "5e88e336cec20407"),
    ("conditional-select", 1000): (1, "5e88e336cec20407"),
    ("cross-frame", 1000): (7, "bdeeeeab1c1fcf75"),
    ("factorial", 1000): (29, "e3cd5653b58e24e0"),
    ("heap-pair", 1000): (7, "e2cda0b48130776b"),
    ("identity-chain", 1000): (1, "c82a192dee757753"),
    ("if-const-false", 1000): (3, "395af587af6a737e"),
    ("if-const-true", 1000): (3, "948ba3947f1890da"),
    ("if-equal-branches", 1000): (3, "d587225f57e9dd85"),
    ("independent-conditions", 1000): (5, "322ae69ff04dcd4b"),
    ("loop-sum", 1000): (26, "72fc0dc9b6ead63f"),
    ("max-merge", 1000): (5, "c6402bbe798be69b"),
    ("negate-chain", 1000): (1, "1bd6f081ad13c9b4"),
    ("nested-duplicate-test", 1000): (5, "573b0b25cc4b4bc4"),
    ("spin", 1000): (1000, "00541faf93911cfe"),
    ("static-counter", 1000): (3, "c8075ec410eaa478"),
    ("uncaught", 1000): (2, "8de66ede587c2349"),
    ("spin", 100): (100, "b90823d9170b4099"),
}


@pytest.mark.parametrize("name, fuel", sorted(GOLDEN), ids=lambda v: str(v))
def test_trace_matches_golden(name, fuel):
    method, args, _ = RUNS[name]
    program = corpus(name)
    lines = []
    run(program, program.resolve(method), [IntVal(a) for a in args], fuel=fuel,
        on_step=lambda record: lines.append(record.line()))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert (len(lines), digest) == GOLDEN[name, fuel]


def test_golden_covers_every_pinned_run():
    assert {name for name, fuel in GOLDEN if fuel == 1000} == set(RUNS)
    assert set(GOLDEN) - {(name, 1000) for name in RUNS} == {("spin", 100)}
