"""Golden rewrite logs: apply_pass on every method of every corpus file,
for each pass, pinned to the log lines, sweep count, fixpoint flag and a
hash of the saved result that the optimizer gave before its rules became
declarations. Any change to rewrite order, rule names or output shows here.
"""

import hashlib

import pytest

from seanode.fileformat import dumps, load
from seanode.ir import Program
from seanode.optimize import PASS_NAMES, apply_pass


def _outcome(path, sig, which):
    g2, report = apply_pass(load(path).graph(sig), which)
    digest = hashlib.sha256(dumps(Program({sig: g2})).encode()).hexdigest()[:16]
    return tuple(report.log_lines()), report.iterations, report.fixpoint, digest


GOLDEN = {
    ("arith-chain.json", "Arith.polyEval(int,int,int)", "canonicalize"):
        ((), 1, True, "6caa62701d6393f2"),
    ("arith-chain.json", "Arith.polyEval(int,int,int)", "condelim"):
        ((), 1, True, "6caa62701d6393f2"),
    ("arith-chain.json", "Arith.polyEval(int,int,int)", "all"):
        ((), 1, True, "6caa62701d6393f2"),
    ("call-chain.json", "Calls.main(int)", "canonicalize"):
        ((), 1, True, "558a2c29b9bc9d8e"),
    ("call-chain.json", "Calls.main(int)", "condelim"):
        ((), 1, True, "558a2c29b9bc9d8e"),
    ("call-chain.json", "Calls.main(int)", "all"):
        ((), 1, True, "558a2c29b9bc9d8e"),
    ("call-chain.json", "Calls.add3(int)", "canonicalize"):
        ((), 1, True, "e72eb24a1a4c2a75"),
    ("call-chain.json", "Calls.add3(int)", "condelim"):
        ((), 1, True, "e72eb24a1a4c2a75"),
    ("call-chain.json", "Calls.add3(int)", "all"):
        ((), 1, True, "e72eb24a1a4c2a75"),
    ("call-chain.json", "Calls.helper(int)", "canonicalize"):
        ((), 1, True, "1b16fc5a27d7a290"),
    ("call-chain.json", "Calls.helper(int)", "condelim"):
        ((), 1, True, "1b16fc5a27d7a290"),
    ("call-chain.json", "Calls.helper(int)", "all"):
        ((), 1, True, "1b16fc5a27d7a290"),
    ("canon-chain.json", "Arith.foldChain()", "canonicalize"):
        ((
            "fold-add @3: AddNode -> ConstantNode",
            "fold-mul @5: MulNode -> ConstantNode",
        ), 2, True, "fef6d2c05a092e16"),
    ("canon-chain.json", "Arith.foldChain()", "condelim"):
        ((), 1, True, "ddd9d9baae10848a"),
    ("canon-chain.json", "Arith.foldChain()", "all"):
        ((
            "fold-add @3: AddNode -> ConstantNode",
            "fold-mul @5: MulNode -> ConstantNode",
        ), 2, True, "fef6d2c05a092e16"),
    ("catch-exception.json", "Exceptions.catchIt()", "canonicalize"):
        ((), 1, True, "fffa95f95ea5c22f"),
    ("catch-exception.json", "Exceptions.catchIt()", "condelim"):
        ((), 1, True, "fffa95f95ea5c22f"),
    ("catch-exception.json", "Exceptions.catchIt()", "all"):
        ((), 1, True, "fffa95f95ea5c22f"),
    ("catch-exception.json", "Exceptions.boom()", "canonicalize"):
        ((), 1, True, "98c17786e477e079"),
    ("catch-exception.json", "Exceptions.boom()", "condelim"):
        ((), 1, True, "98c17786e477e079"),
    ("catch-exception.json", "Exceptions.boom()", "all"):
        ((), 1, True, "98c17786e477e079"),
    ("conditional-same-branches.json", "Arith.selectSame(int,int)", "canonicalize"):
        ((
            "conditional-equal-branches @4: ConditionalNode -> ParameterNode",
        ), 2, True, "0351a12f1c5479b4"),
    ("conditional-same-branches.json", "Arith.selectSame(int,int)", "condelim"):
        ((), 1, True, "451d25c4f0fb83a0"),
    ("conditional-same-branches.json", "Arith.selectSame(int,int)", "all"):
        ((
            "conditional-equal-branches @4: ConditionalNode -> ParameterNode",
        ), 2, True, "0351a12f1c5479b4"),
    ("conditional-select.json", "Branches.maxData(int,int)", "canonicalize"):
        ((), 1, True, "bca9da7449365433"),
    ("conditional-select.json", "Branches.maxData(int,int)", "condelim"):
        ((), 1, True, "bca9da7449365433"),
    ("conditional-select.json", "Branches.maxData(int,int)", "all"):
        ((), 1, True, "bca9da7449365433"),
    ("cross-frame.json", "Heap.crossFrame()", "canonicalize"):
        ((), 1, True, "e157e0a043f1f399"),
    ("cross-frame.json", "Heap.crossFrame()", "condelim"):
        ((), 1, True, "e157e0a043f1f399"),
    ("cross-frame.json", "Heap.crossFrame()", "all"):
        ((), 1, True, "e157e0a043f1f399"),
    ("cross-frame.json", "Heap.poke(ref)", "canonicalize"):
        ((), 1, True, "5200661448058022"),
    ("cross-frame.json", "Heap.poke(ref)", "condelim"):
        ((), 1, True, "5200661448058022"),
    ("cross-frame.json", "Heap.poke(ref)", "all"):
        ((), 1, True, "5200661448058022"),
    ("factorial.json", "Loops.fact(int)", "canonicalize"):
        ((), 1, True, "bb7b9f9419107c89"),
    ("factorial.json", "Loops.fact(int)", "condelim"):
        ((), 1, True, "bb7b9f9419107c89"),
    ("factorial.json", "Loops.fact(int)", "all"):
        ((), 1, True, "bb7b9f9419107c89"),
    ("heap-pair.json", "Heap.pairSum()", "canonicalize"):
        ((), 1, True, "c7c46c77556f2101"),
    ("heap-pair.json", "Heap.pairSum()", "condelim"):
        ((), 1, True, "c7c46c77556f2101"),
    ("heap-pair.json", "Heap.pairSum()", "all"):
        ((), 1, True, "c7c46c77556f2101"),
    ("identity-chain.json", "Arith.identities(int)", "canonicalize"):
        ((
            "mul-zero @3: MulNode -> ConstantNode",
            "add-zero @4: AddNode -> ParameterNode",
            "add-zero @5: AddNode -> ParameterNode",
        ), 2, True, "701a818a1274c53f"),
    ("identity-chain.json", "Arith.identities(int)", "condelim"):
        ((), 1, True, "d0e35936d03c3417"),
    ("identity-chain.json", "Arith.identities(int)", "all"):
        ((
            "mul-zero @3: MulNode -> ConstantNode",
            "add-zero @4: AddNode -> ParameterNode",
            "add-zero @5: AddNode -> ParameterNode",
        ), 2, True, "701a818a1274c53f"),
    ("if-const-false.json", "Branches.constFalse(int)", "canonicalize"):
        ((
            "if-constant-condition @3: IfNode -> RefNode",
        ), 2, True, "f82c2cc8263645dd"),
    ("if-const-false.json", "Branches.constFalse(int)", "condelim"):
        ((), 1, True, "f31bfb71acf81501"),
    ("if-const-false.json", "Branches.constFalse(int)", "all"):
        ((
            "if-constant-condition @3: IfNode -> RefNode",
        ), 2, True, "f82c2cc8263645dd"),
    ("if-const-true.json", "Branches.constTrue(int)", "canonicalize"):
        ((
            "if-constant-condition @3: IfNode -> RefNode",
        ), 2, True, "ac47efcf4c31578a"),
    ("if-const-true.json", "Branches.constTrue(int)", "condelim"):
        ((), 1, True, "ae83c87c91bf1a25"),
    ("if-const-true.json", "Branches.constTrue(int)", "all"):
        ((
            "if-constant-condition @3: IfNode -> RefNode",
        ), 2, True, "ac47efcf4c31578a"),
    ("if-equal-branches.json", "Branches.sameTarget(int,int)", "canonicalize"):
        ((
            "if-equal-branches @4: IfNode -> RefNode",
        ), 2, True, "986115297ac92d04"),
    ("if-equal-branches.json", "Branches.sameTarget(int,int)", "condelim"):
        ((), 1, True, "dadc95279ddd47d7"),
    ("if-equal-branches.json", "Branches.sameTarget(int,int)", "all"):
        ((
            "if-equal-branches @4: IfNode -> RefNode",
        ), 2, True, "986115297ac92d04"),
    ("independent-conditions.json", "Branches.independent(int,int,int)", "canonicalize"):
        ((), 1, True, "74ee59e813cc16a3"),
    ("independent-conditions.json", "Branches.independent(int,int,int)", "condelim"):
        ((), 1, True, "74ee59e813cc16a3"),
    ("independent-conditions.json", "Branches.independent(int,int,int)", "all"):
        ((), 1, True, "74ee59e813cc16a3"),
    ("loop-sum.json", "Loops.sumTo(int)", "canonicalize"):
        ((), 1, True, "fcabdb070e2ac9c3"),
    ("loop-sum.json", "Loops.sumTo(int)", "condelim"):
        ((), 1, True, "fcabdb070e2ac9c3"),
    ("loop-sum.json", "Loops.sumTo(int)", "all"):
        ((), 1, True, "fcabdb070e2ac9c3"),
    ("max-merge.json", "Branches.max(int,int)", "canonicalize"):
        ((), 1, True, "9f945aa6cb1b1d99"),
    ("max-merge.json", "Branches.max(int,int)", "condelim"):
        ((), 1, True, "9f945aa6cb1b1d99"),
    ("max-merge.json", "Branches.max(int,int)", "all"):
        ((), 1, True, "9f945aa6cb1b1d99"),
    ("negate-chain.json", "Arith.doubleNegate(int)", "canonicalize"):
        ((
            "negate-negate @3: NegateNode -> ParameterNode",
        ), 2, True, "8c1b55091072811e"),
    ("negate-chain.json", "Arith.doubleNegate(int)", "condelim"):
        ((), 1, True, "37a8a69046304021"),
    ("negate-chain.json", "Arith.doubleNegate(int)", "all"):
        ((
            "negate-negate @3: NegateNode -> ParameterNode",
        ), 2, True, "8c1b55091072811e"),
    ("nested-duplicate-test.json", "Branches.nestedDup(int,int)", "canonicalize"):
        ((), 1, True, "086c8ca000225f62"),
    ("nested-duplicate-test.json", "Branches.nestedDup(int,int)", "condelim"):
        ((
            "condelim-implied-branch @8: IfNode -> RefNode",
        ), 2, True, "2c867d91c7488916"),
    ("nested-duplicate-test.json", "Branches.nestedDup(int,int)", "all"):
        ((
            "condelim-implied-branch @8: IfNode -> RefNode",
        ), 2, True, "2c867d91c7488916"),
    ("spin.json", "Loops.spin()", "canonicalize"):
        ((
            "if-constant-condition @5: IfNode -> RefNode",
        ), 2, True, "3021b911ecd6c60e"),
    ("spin.json", "Loops.spin()", "condelim"):
        ((), 1, True, "acabb4aaa11d5abd"),
    ("spin.json", "Loops.spin()", "all"):
        ((
            "if-constant-condition @5: IfNode -> RefNode",
        ), 2, True, "3021b911ecd6c60e"),
    ("static-counter.json", "Heap.statics()", "canonicalize"):
        ((), 1, True, "57ed3f831e0d4d6d"),
    ("static-counter.json", "Heap.statics()", "condelim"):
        ((), 1, True, "57ed3f831e0d4d6d"),
    ("static-counter.json", "Heap.statics()", "all"):
        ((), 1, True, "57ed3f831e0d4d6d"),
    ("uncaught.json", "Exceptions.explode()", "canonicalize"):
        ((), 1, True, "6316cb5c5c2188d8"),
    ("uncaught.json", "Exceptions.explode()", "condelim"):
        ((), 1, True, "6316cb5c5c2188d8"),
    ("uncaught.json", "Exceptions.explode()", "all"):
        ((), 1, True, "6316cb5c5c2188d8"),
}


def test_golden_table_covers_every_corpus_method(corpus_dir):
    keys = {(path.name, str(sig), which)
            for path in corpus_dir.glob("*.json")
            for sig in load(path).methods
            for which in PASS_NAMES}
    assert keys == set(GOLDEN)


@pytest.mark.parametrize("name", sorted({k[0] for k in GOLDEN}))
def test_apply_pass_matches_the_golden_log(corpus_dir, name):
    path = corpus_dir / name
    for sig in load(path).methods:
        for which in PASS_NAMES:
            assert _outcome(path, sig, which) == GOLDEN[name, str(sig), which], (sig, which)
