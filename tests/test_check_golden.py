"""Golden well-formedness reports: the text of check(g), as the command
`seanode validate` prints it, for every method of corpus/ and
tests/fixtures/, for each damage of genutil.DAMAGES applied alone, and for
1,000 seeded graphs with one to three damages each. The reports were
recorded before check became one pass over the graph's edge table; any
change to a rule, its message, or the order of violations (by rule, then
by node id) shows here.
"""

import collections
import hashlib
import random
from pathlib import Path

import pytest

from genutil import DAMAGES, damage_bases, damaged_graph
from seanode.fileformat import load
from seanode.ir import Graph
from seanode.wellformed import check

TESTS = Path(__file__).parent
FILES = sorted((TESTS.parent / "corpus").glob("*.json")) + sorted((TESTS / "fixtures").glob("*.json"))

# (directory/file, method): report
METHODS = {
    ('corpus/arith-chain', 'Arith.polyEval(int,int,int)'): 'ok',
    ('corpus/call-chain', 'Calls.main(int)'): 'ok',
    ('corpus/call-chain', 'Calls.add3(int)'): 'ok',
    ('corpus/call-chain', 'Calls.helper(int)'): 'ok',
    ('corpus/canon-chain', 'Arith.foldChain()'): 'ok',
    ('corpus/catch-exception', 'Exceptions.catchIt()'): 'ok',
    ('corpus/catch-exception', 'Exceptions.boom()'): 'ok',
    ('corpus/conditional-same-branches', 'Arith.selectSame(int,int)'): 'ok',
    ('corpus/conditional-select', 'Branches.maxData(int,int)'): 'ok',
    ('corpus/cross-frame', 'Heap.crossFrame()'): 'ok',
    ('corpus/cross-frame', 'Heap.poke(ref)'): 'ok',
    ('corpus/factorial', 'Loops.fact(int)'): 'ok',
    ('corpus/heap-pair', 'Heap.pairSum()'): 'ok',
    ('corpus/identity-chain', 'Arith.identities(int)'): 'ok',
    ('corpus/if-const-false', 'Branches.constFalse(int)'): 'ok',
    ('corpus/if-const-true', 'Branches.constTrue(int)'): 'ok',
    ('corpus/if-equal-branches', 'Branches.sameTarget(int,int)'): 'ok',
    ('corpus/independent-conditions', 'Branches.independent(int,int,int)'): 'ok',
    ('corpus/loop-sum', 'Loops.sumTo(int)'): 'ok',
    ('corpus/max-merge', 'Branches.max(int,int)'): 'ok',
    ('corpus/negate-chain', 'Arith.doubleNegate(int)'): 'ok',
    ('corpus/nested-duplicate-test', 'Branches.nestedDup(int,int)'): 'ok',
    ('corpus/spin', 'Loops.spin()'): 'ok',
    ('corpus/static-counter', 'Heap.statics()'): 'ok',
    ('corpus/uncaught', 'Exceptions.explode()'): 'ok',
    ('fixtures/bad-selfid', 'Bad.badSelfId()'): 'wf_selfid @1: selfId field is 5',
    ('fixtures/broken-phi', 'Bad.brokenPhi(int,int)'): 'wf_phis @12: 1 value inputs for 2 merge ends',
    ('fixtures/condelim-relatch', 'Relatch.relatch()'): 'ok',
    ('fixtures/dangling-edge', 'Bad.dangling()'): 'wf_closed @0: edge to unmapped id 99',
    ('fixtures/data-cycle', 'Bad.dataCycle()'): 'wf_acyclic @1: cycle through data input edges',
    ('fixtures/orphan-end', 'Bad.orphanEnd()'): 'wf_ends @1: EndNode has no usage',
    ('fixtures/sub-fold', 'Arith.subFold()'): 'ok',
}

# (damage, index of its base in damage_bases()): the report after that damage
# alone, drawn by random.Random(position in DAMAGES + base index).
SINGLE = {
    ('dangle', 3): 'wf_closed @6: edge to unmapped id 20',
    ('dangle', 4): 'wf_closed @2: edge to unmapped id 10',
    ('dangle', 7): 'wf_closed @2: edge to unmapped id 6',
    ('wrong_shape', 3): 'wf_closed @8: edge to unmapped id (8,)',
    ('wrong_shape', 4): 'wf_closed @4: edge to unmapped id (4,)',
    ('wrong_shape', 7): 'wf_closed @2: edge to unmapped id (2,)',
    ('orphan_end', 3): 'wf_ends @18: EndNode has no usage',
    ('orphan_end', 4): 'wf_ends @9: EndNode has no usage',
    ('orphan_end', 7): 'wf_ends @1: EndNode has no usage\nwf_phis @3: 1 value inputs for 0 merge ends',
    ('break_phi', 3): 'wf_phis @4: 3 value inputs for 2 merge ends',
    ('break_phi', 4): 'ok',
    ('break_phi', 7): 'wf_phis @3: 2 value inputs for 1 merge ends',
    ('bad_self_id', 3): 'wf_selfid @9: selfId field is 11',
    ('bad_self_id', 4): 'ok',
    ('bad_self_id', 7): 'wf_selfid @3: selfId field is 7',
    ('arm_cycle', 3): 'wf_acyclic @18: cycle through data input edges',
    ('arm_cycle', 4): 'wf_acyclic @9: cycle through data input edges',
    ('arm_cycle', 7): 'wf_acyclic @6: cycle through data input edges',
    ('proxy_anchor', 3): 'ok',
    ('proxy_anchor', 4): 'ok',
    ('proxy_anchor', 7): 'ok',
    ('unmapped_value', 3): 'wf_closed @18: edge to unmapped id 24',
    ('unmapped_value', 4): 'wf_closed @9: edge to unmapped id 13',
    ('unmapped_value', 7): 'wf_closed @6: edge to unmapped id 12',
    ('value_cycle', 3): 'wf_acyclic @10: cycle through data input edges',
    ('value_cycle', 4): 'wf_acyclic @4: cycle through data input edges',
    ('value_cycle', 7): 'ok',
    ('drop_node', 3): 'wf_closed @17: edge to unmapped id 16',
    ('drop_node', 4): 'wf_closed @3: edge to unmapped id 4',
    ('drop_node', 7): 'wf_closed @3: edge to unmapped id 2\nwf_ends @1: EndNode has no usage\nwf_phis @3: merge edge 2 is NoNode, expected a merge',
}

# Graph s of the random set is damaged_graph(bases[s % len(bases)], random.Random(s)).
RANDOM_COUNT = 1000
RANDOM_NOT_OK = 913
RANDOM_VIOLATIONS = {'wf_acyclic': 306, 'wf_closed': 818, 'wf_ends': 217, 'wf_phis': 252, 'wf_selfid': 128, 'wf_start': 28}
RANDOM_SHA256 = "64f1071f6f582505e354b4325a757d46a4adb64a8ccd6e0b7ac1547f11a10033"


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.stem}")
def test_every_shipped_method_keeps_its_report(path):
    for sig, g in load(path).methods.items():
        assert str(check(g)) == METHODS[f"{path.parent.name}/{path.stem}", str(sig)]


def test_the_table_covers_every_shipped_method():
    assert len(METHODS) == sum(len(load(p).methods) for p in FILES)


@pytest.mark.parametrize("damage, base", sorted(SINGLE), ids=str)
def test_each_damage_alone_keeps_its_report(damage, base):
    (fn,) = [d for d in DAMAGES if d.__name__ == "_" + damage]
    nodes = dict(damage_bases()[base].items())
    fn(nodes, random.Random(DAMAGES.index(fn) + base))
    assert str(check(Graph(nodes))) == SINGLE[damage, base]


def test_seeded_damaged_graphs_keep_their_reports():
    bases = damage_bases()
    texts = [str(check(damaged_graph(bases[s % len(bases)], random.Random(s))))
             for s in range(RANDOM_COUNT)]
    rules = collections.Counter(line.split(" @")[0]
                                for t in texts if t != "ok" for line in t.split("\n"))
    assert sum(t != "ok" for t in texts) == RANDOM_NOT_OK
    assert dict(rules) == RANDOM_VIOLATIONS
    assert hashlib.sha256("\n\n".join(texts).encode()).hexdigest() == RANDOM_SHA256
