import random

import pytest
from hypothesis import given, strategies as st

from seanode.runtime import (
    INT_MAX, INT_MIN, STATIC_REF, UNDEF, DynamicHeap, IntVal, MethodState,
    ObjRef, int_add, int_mul, int_negate, wrap32,
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
