import operator
import random
from dataclasses import FrozenInstanceError, astuple, fields

import pytest
from hypothesis import given, strategies as st

from seanode import ir
from seanode.runtime import (
    INT_MAX, INT_MIN, STATIC_REF, UNDEF, DynamicHeap, IntVal, MethodState,
    ObjRef, box, int_add, int_less_than, int_mul, int_negate, int_sub, wrap32,
)


def test_fresh_state_reads_undef():
    assert MethodState()[42] == UNDEF


def test_state_update_read_back():
    m = MethodState().set(7, IntVal(1))
    assert m[7] == IntVal(1)


def test_fresh_states_equal():
    assert MethodState() == MethodState()


def test_state_set_is_persistent():
    m = MethodState()
    m2 = m.set(1, IntVal(5))
    assert m[1] == UNDEF and m2[1] == IntVal(5)


def test_state_undef_write_normalizes():
    m = MethodState().set(1, IntVal(5)).set(1, UNDEF)
    assert m == MethodState()


def test_intval_range_checked():
    IntVal(INT_MIN)
    IntVal(INT_MAX)
    with pytest.raises(ValueError):
        IntVal(INT_MAX + 1)
    with pytest.raises(ValueError):
        IntVal(INT_MIN - 1)


@pytest.mark.parametrize("v, other, text, shown", [
    (IntVal(5), IntVal(6), "IntVal(value=5)", "IntVal 5"),
    (ObjRef(3), IntVal(3), "ObjRef(ref=3)", "ObjRef 3"),
    (UNDEF, IntVal(0), "UndefVal()", "UndefVal"),
])
def test_value_kinds_compare_hash_print_and_stay_frozen(v, other, text, shown):
    twin = type(v)(*astuple(v))
    assert v == twin and hash(v) == hash(twin) and v != other
    assert (repr(v), str(v)) == (text, shown)
    for name in fields(v):
        with pytest.raises(FrozenInstanceError):
            setattr(v, name.name, 1)
    # A slotted frozen dataclass refuses any other name too, though
    # CPython raises TypeError there, not FrozenInstanceError.
    with pytest.raises((FrozenInstanceError, TypeError)):
        v.other = 1
    assert not hasattr(v, "__dict__")  # a box holds its fields only


def test_add_wraps_at_max():
    assert int_add(2147483647, 1) == -2147483648


def test_neg_wraps_min_int():
    assert int_negate(INT_MIN) == INT_MIN


@given(st.integers(), st.integers())
def test_wrap32_is_twos_complement(a, b):
    assert wrap32(a + b) == wrap32(wrap32(a) + wrap32(b))
    assert INT_MIN <= wrap32(a) <= INT_MAX
    assert (wrap32(a) - a) % (2 ** 32) == 0


@given(st.integers(INT_MIN, INT_MAX), st.integers(INT_MIN, INT_MAX))
def test_mul_matches_java_semantics(a, b):
    assert int_mul(a, b) == wrap32(a * b)


# Python's exact result of each arithmetic operation, before the wrap.
_EXACT = {int_add: operator.add, int_sub: operator.sub, int_mul: operator.mul,
          int_negate: operator.neg, int_less_than: operator.lt}
_INT32 = st.integers(INT_MIN, INT_MAX) | st.sampled_from([INT_MIN, INT_MAX, -1, 0, 1])


@given(_INT32, _INT32)
def test_differential_int_ops_match_wrap32_of_the_exact_result(a, b):
    kinds = [k for k in ir.NODE_KINDS.values() if k.OP]
    assert {k.OP for k in kinds} == set(_EXACT)
    for k in kinds:
        operands = (a, b)[:len(k.VALUE_EDGES)]
        got = k.OP(*operands)
        assert type(got) is int and got == wrap32(_EXACT[k.OP](*operands)), (k, operands)
    assert int_less_than(a, b) in (0, 1)


@given(_INT32, _INT32)
def test_differential_an_operations_unchecked_box_equals_its_checked_intval(a, b):
    # evaluate_roots boxes an arithmetic result with box, which skips the
    # range check IntVal makes: every operation must wrap into range.
    for k in (k for k in ir.NODE_KINDS.values() if k.OP):
        v = k.OP(*(a, b)[:len(k.VALUE_EDGES)])
        assert INT_MIN <= v <= INT_MAX, (k, a, b)
        boxed, checked = box(v), IntVal(v)
        assert type(boxed) is IntVal and boxed == checked and hash(boxed) == hash(checked)
        assert (str(boxed), repr(boxed)) == (str(checked), repr(checked))


def test_load_fresh_field_defaults_to_zero():
    ref, heap = DynamicHeap().new_instance()
    assert heap.load_field("x", ref) == IntVal(0)


def test_store_load_round_trip():
    ref, heap = DynamicHeap().new_instance()
    heap = heap.store_field("x", ref, IntVal(9))
    assert heap.load_field("x", ref) == IntVal(9)


def test_static_region_round_trip():
    heap = DynamicHeap().store_field("counter", None, IntVal(3))
    assert heap.load_field("counter", None) == IntVal(3)
    assert heap.fields[(STATIC_REF, "counter")] == IntVal(3)


def test_store_does_not_alias_other_fields():
    ref, heap = DynamicHeap().new_instance()
    heap = heap.store_field("x", ref, IntVal(9))
    assert heap.load_field("y", ref) == IntVal(0)


def test_overwrite_last_wins():
    ref, heap = DynamicHeap().new_instance()
    heap = heap.store_field("x", ref, IntVal(1)).store_field("x", ref, IntVal(2))
    assert heap.load_field("x", ref) == IntVal(2)


def test_store_is_persistent():
    ref, heap = DynamicHeap().new_instance()
    heap.store_field("x", ref, IntVal(9))
    assert heap.load_field("x", ref) == IntVal(0)


def test_a_load_reroots_only_off_the_newest_version(monkeypatch):
    import seanode.runtime as runtime_mod
    calls = []
    reroot = runtime_mod._reroot
    monkeypatch.setattr(runtime_mod, "_reroot", lambda v: calls.append(v) or reroot(v))
    ref, old = DynamicHeap().new_instance()
    old = old.store_field("x", ref, IntVal(1))
    new = old.store_field("x", ref, IntVal(2)).store_field("y", ref, IntVal(3))
    assert new.load_field("x", ref) == IntVal(2) and new.load_field("y", ref) == IntVal(3)
    assert calls == []
    # An older version still reads its own cells, by one reroot to it.
    assert old.load_field("x", ref) == IntVal(1) and old.load_field("y", ref) == IntVal(0)
    assert len(calls) == 1
    assert new.load_field("x", ref) == IntVal(2)


def test_items_view_yields_its_own_versions_cells_after_a_branching_store():
    ref, heap = DynamicHeap().new_instance()
    base = heap.store_field("x", ref, IntVal(1)).store_field("y", ref, IntVal(2))
    view = base.fields.items()
    left = base.store_field("y", ref, IntVal(7))
    right = base.store_field("z", None, IntVal(3))  # a branch from the same version
    cells = [((0, "x"), IntVal(1)), ((0, "y"), IntVal(2))]
    assert list(left.fields.items()) == [((0, "x"), IntVal(1)), ((0, "y"), IntVal(7))]
    assert list(view) == cells
    assert sorted(right.fields.items()) == [((STATIC_REF, "z"), IntVal(3))] + cells
    # Reading another version while iterating changes nothing it yields.
    seen = []
    for cell in view:
        left.load_field("y", ref)  # reroots the shared cells to left
        seen.append(cell)
    assert seen == cells
    assert base != left and left != right and base == DynamicHeap(dict(cells), 1)
    assert left == base.store_field("y", ref, IntVal(7))


def test_state_updates_leave_the_receiver_unchanged():
    m = MethodState().set(1, IntVal(1)).set(2, IntVal(2))
    m2 = m.set_many([(1, IntVal(5)), (3, IntVal(3)), (2, UNDEF), (1, IntVal(6))])
    m3 = m.set(1, UNDEF)
    assert m == MethodState().set(1, IntVal(1)).set(2, IntVal(2))
    assert m2 == MethodState().set(1, IntVal(6)).set(3, IntVal(3))
    assert m3 == MethodState().set(2, IntVal(2))


def test_allocation_leaves_the_receiver_unchanged():
    ref, heap = DynamicHeap().new_instance()
    heap = heap.store_field("x", ref, IntVal(7))
    r2, heap2 = heap.new_instance()
    heap3 = heap2.store_field("x", r2, IntVal(8))
    assert (heap.free, heap.fields) == (1, {(0, "x"): IntVal(7)})
    assert heap2.fields == {(0, "x"): IntVal(7)}
    assert heap3.load_field("x", r2) == IntVal(8)


def test_first_allocation_from_empty_heap():
    ref, heap = DynamicHeap().new_instance()
    assert ref == ObjRef(0) and heap.free == 1


def test_successive_allocations():
    heap = DynamicHeap()
    r0, heap = heap.new_instance()
    r1, heap = heap.new_instance()
    assert (r0, r1) == (ObjRef(0), ObjRef(1))
    assert heap.free == 2


def test_allocation_preserves_fields():
    ref, heap = DynamicHeap().new_instance()
    heap = heap.store_field("x", ref, IntVal(7))
    _, heap2 = heap.new_instance()
    assert heap2.load_field("x", ref) == IntVal(7)


def test_allocation_monotonicity():
    heap = DynamicHeap()
    seen = []
    for _ in range(20):
        ref, heap = heap.new_instance()
        assert ref.ref < heap.free
        seen.append(ref.ref)
    assert len(set(seen)) == len(seen)


def test_heap_frame_property_fuzz():
    # Random store sequences never perturb unrelated (ref, field) cells.
    rng = random.Random(7)
    refs = [STATIC_REF, 0, 1, 2, 3]
    fields = ["a", "b", "c"]
    heap = DynamicHeap()
    for _ in range(4):
        _, heap = heap.new_instance()
    for _ in range(200):
        before = dict(heap.fields)
        addr, fname = rng.choice(refs), rng.choice(fields)
        v = IntVal(rng.randint(-10, 10))
        obj = None if addr == STATIC_REF else ObjRef(addr)
        heap = heap.store_field(fname, obj, v)
        assert heap.fields[(addr, fname)] == v
        for key, old in before.items():
            if key != (addr, fname):
                assert heap.fields[key] == old


def test_state_constructor_drops_undef_entries():
    assert MethodState({1: UNDEF}) == MethodState()
    assert MethodState({1: UNDEF, 2: IntVal(2)}) == MethodState().set(2, IntVal(2))
    assert list(MethodState({1: UNDEF}).items()) == []


_ADDRS = (STATIC_REF, 0, 1, 2)
_NAMES = ("a", "b")
_heap_ops = st.lists(st.tuples(
    st.sampled_from(("store", "store", "new", "load", "fields")),
    st.integers(0, 10 ** 6),  # which version, counted back from the newest
    st.sampled_from(_ADDRS), st.sampled_from(_NAMES), st.integers(-3, 3),
), max_size=60)


@given(_heap_ops)
def test_heap_persistence_matches_a_dict_model(ops):
    # Every version stays readable after any later operation on any version,
    # stores that branch from an old version included.
    versions = [(DynamicHeap(), {}, 0)]
    for op, pick, addr, fname, v in ops:
        heap, model, free = versions[-1 - pick % len(versions)]
        obj = None if addr == STATIC_REF else ObjRef(addr)
        if op == "store":
            versions.append((heap.store_field(fname, obj, IntVal(v)),
                             {**model, (addr, fname): IntVal(v)}, free))
        elif op == "new":
            ref, heap2 = heap.new_instance()
            assert ref == ObjRef(free)
            versions.append((heap2, model, free + 1))
        elif op == "load":
            assert heap.load_field(fname, obj) == model.get((addr, fname), IntVal(0))
        else:
            cells = heap.fields
            assert len(cells) == len(model) and dict(cells.items()) == model
            assert cells.get((addr, fname)) == model.get((addr, fname))
    for heap, model, free in reversed(versions):
        assert heap.free == free and dict(heap.fields) == model
        assert heap == DynamicHeap(model, free)
        assert heap != DynamicHeap(model, free + 1)
