"""Run-time value domain: 32-bit wrapping integers, object references,
method state, and the dynamic heap."""

from dataclasses import dataclass, field

INT_WIDTH = 32
INT_MIN = -(2 ** 31)
INT_MAX = 2 ** 31 - 1

# Pseudo-reference addressing the static-field region of the heap.
# Allocated object references are always >= 0, so -1 can never collide.
STATIC_REF = -1


def wrap32(n: int) -> int:
    """Reduce an unbounded integer to signed 32-bit two's complement."""
    return ((n + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31


@dataclass(frozen=True)
class Value:
    """Base of the run-time value kinds."""


@dataclass(frozen=True)
class IntVal(Value):
    value: int

    def __post_init__(self):
        if not INT_MIN <= self.value <= INT_MAX:
            raise ValueError(f"IntVal out of 32-bit range: {self.value}")

    def __str__(self):
        return f"IntVal {self.value}"


@dataclass(frozen=True)
class ObjRef(Value):
    ref: int

    def __str__(self):
        return f"ObjRef {self.ref}"


@dataclass(frozen=True)
class UndefVal(Value):
    def __str__(self):
        return "UndefVal"


UNDEF = UndefVal()


# The arithmetic operations, each declared once on plain 32-bit ints. An
# arithmetic node kind names its operation (ir, op=...); evaluation, the
# lanes of data_equiv and optimize's constant folds are derived from it.
def int_add(a: int, b: int) -> int:
    return wrap32(a + b)


def int_sub(a: int, b: int) -> int:
    return wrap32(a - b)


def int_mul(a: int, b: int) -> int:
    return wrap32(a * b)


def int_negate(a: int) -> int:
    return wrap32(-a)


def int_less_than(a: int, b: int) -> int:
    return 1 if a < b else 0


class MethodState:
    """Mapping from node ids to values; ids never written read as UndefVal.

    Persistent: set() returns a new state, the receiver is unchanged.
    Slots holding UndefVal are normalized away so states compare by the
    defined entries only (two fresh states are equal).
    """

    __slots__ = ("_vals",)

    def __init__(self, vals: dict[int, Value] | None = None):
        self._vals = dict(vals) if vals else {}

    def __getitem__(self, nid: int) -> Value:
        return self._vals.get(nid, UNDEF)

    def set(self, nid: int, v: Value) -> "MethodState":
        return self.set_many(((nid, v),))

    def set_many(self, updates) -> "MethodState":
        """The state with the (nid, value) updates applied in order; copies
        the map once per call."""
        vals = dict(self._vals)
        for nid, v in updates:
            if isinstance(v, UndefVal):
                vals.pop(nid, None)
            else:
                vals[nid] = v
        state = MethodState()
        state._vals = vals
        return state

    def items(self):
        return self._vals.items()

    def __eq__(self, other):
        return isinstance(other, MethodState) and self._vals == other._vals

    def __repr__(self):
        inner = ", ".join(f"{nid}: {v}" for nid, v in sorted(self._vals.items()))
        return f"MethodState({{{inner}}})"


def new_map_state() -> MethodState:
    return MethodState()


FIELD_DEFAULT = IntVal(0)


@dataclass(frozen=True)
class DynamicHeap:
    """Heap mapping (object reference, field name) to values, plus the next
    free object reference.

    Unwritten fields read as IntVal 0. An instance's class is not recorded:
    it carries no semantics (no dynamic dispatch).
    """

    fields: dict = field(default_factory=dict)
    free: int = 0

    def load_field(self, fname: str, obj: ObjRef | None) -> Value:
        addr = obj.ref if obj is not None else STATIC_REF
        return self.fields.get((addr, fname), FIELD_DEFAULT)

    def store_field(self, fname: str, obj: ObjRef | None, v: Value) -> "DynamicHeap":
        addr = obj.ref if obj is not None else STATIC_REF
        fields = dict(self.fields)
        fields[(addr, fname)] = v
        return DynamicHeap(fields, self.free)

    def new_instance(self) -> tuple[ObjRef, "DynamicHeap"]:
        # Nothing writes a heap's fields in place (store_field copies), so
        # the two heaps can share them.
        return ObjRef(self.free), DynamicHeap(self.fields, self.free + 1)
