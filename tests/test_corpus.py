"""Every shipped program in corpus/ is well-formed and runs to the result
its source computes. Each expected result below is worked out by hand
from what the program does, not copied from a run."""

import pytest

from conftest import CORPUS_FILES
from seanode.fileformat import load
from seanode.interproc import run
from seanode.runtime import IntVal
from seanode.wellformed import check

# file: (entry method, arguments, str of the run's result)
RUNS = {
    # (a + b) * c = (2 + 3) * 4
    "arith-chain": ("polyEval", (2, 3, 4), "Returned IntVal 20"),
    # main(n) = add3(n) = helper(n) + 3 = n * 2 + 3 = 5 * 2 + 3
    "call-chain": ("main", (5,), "Returned IntVal 13"),
    # (2 + 3) * 1
    "canon-chain": ("foldChain", (), "Returned IntVal 5"),
    # boom() throws, so the invoke's exception edge returns 99
    "catch-exception": ("catchIt", (), "Returned IntVal 99"),
    # a < b ? b : b is b whichever way the test goes
    "conditional-same-branches": ("selectSame", (7, 4), "Returned IntVal 4"),
    # a < b ? b : a = max(9, 2), taking the false arm
    "conditional-select": ("maxData", (9, 2), "Returned IntVal 9"),
    # poke(box) stores box.x = 42 in the callee; the caller reads box.x
    "cross-frame": ("crossFrame", (), "Returned IntVal 42"),
    # 5 * 4 * 3 * 2
    "factorial": ("fact", (5,), "Returned IntVal 120"),
    # p.x = 9, q.y = 5, return p.x + q.y
    "heap-pair": ("pairSum", (), "Returned IntVal 14"),
    # (a * 0) + (a + 0) = a
    "identity-chain": ("identities", (7,), "Returned IntVal 7"),
    # constant-false test: the false branch returns a - 10
    "if-const-false": ("constFalse", (5,), "Returned IntVal -5"),
    # constant-true test: the true branch returns a + 10
    "if-const-true": ("constTrue", (5,), "Returned IntVal 15"),
    # both successors of the test are the same block, which returns a + b
    "if-equal-branches": ("sameTarget", (2, 3), "Returned IntVal 5"),
    # a < b and then b < c both hold: the innermost branch returns 1
    "independent-conditions": ("independent", (1, 2, 3), "Returned IntVal 1"),
    # 1 + 2 + 3 + 4
    "loop-sum": ("sumTo", (4,), "Returned IntVal 10"),
    # 3 < 5, so the true branch's phi input, b
    "max-merge": ("max", (3, 5), "Returned IntVal 5"),
    # -(-a) = a
    "negate-chain": ("doubleNegate", (-7,), "Returned IntVal -7"),
    # a < b holds, and so does the same test repeated inside: returns 1
    "nested-duplicate-test": ("nestedDup", (1, 2), "Returned IntVal 1"),
    # the back edge is guarded by the constant 1, so the loop never exits
    "spin": ("spin", (), "OutOfFuel after 1000 steps"),
    # stores the static field counter = 3 and reads it back
    "static-counter": ("statics", (), "Returned IntVal 3"),
    # the first allocation, ObjRef 0, is thrown with no handler
    "uncaught": ("explode", (), "UncaughtException ObjRef 0"),
}


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda path: path.stem)
def test_corpus_program_checks_and_runs(path):
    program = load(path)
    for sig, g in program.methods.items():
        assert check(g).ok, sig
    method, args, expected = RUNS[path.stem]
    result = run(program, program.resolve(method), [IntVal(a) for a in args], fuel=1000)
    assert str(result) == expected
