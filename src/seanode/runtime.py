"""Run-time value domain: 32-bit wrapping integers, object references, and
the two persistent maps, method state and dynamic heap, both _Versioned."""

from collections.abc import Mapping
from dataclasses import dataclass

INT_MIN = -(2 ** 31)
INT_MAX = 2 ** 31 - 1

# Pseudo-reference addressing the static-field region of the heap.
# Allocated object references are always >= 0, so -1 can never collide.
STATIC_REF = -1


def wrap32(n: int) -> int:
    """Reduce an unbounded integer to signed 32-bit two's complement."""
    return ((n + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31


@dataclass(frozen=True, slots=True)
class Value:
    """Base of the run-time value kinds, all slotted: a box holds its fields only."""


@dataclass(frozen=True, slots=True)
class IntVal(Value):
    value: int

    def __post_init__(self):
        if type(self.value) is not int:
            raise TypeError(f"IntVal needs an int, got {self.value!r}")
        if not INT_MIN <= self.value <= INT_MAX:
            raise ValueError(f"IntVal out of 32-bit range: {self.value}")

    def __str__(self):
        return f"IntVal {self.value}"


_new = object.__new__
_set_value = IntVal.value.__set__  # the slot's setter, under the frozen __setattr__


def box(v: int) -> IntVal:
    """IntVal(v) for an int v already in 32-bit range, built without the
    dataclass __init__ and its range check: an arithmetic result, which every
    int_* operation wraps. Equal to IntVal(v) in type, ==, hash and str."""
    b = _new(IntVal)
    _set_value(b, v)
    return b


@dataclass(frozen=True, slots=True)
class ObjRef(Value):
    ref: int

    def __str__(self):
        return f"ObjRef {self.ref}"


@dataclass(frozen=True, slots=True)
class UndefVal(Value):
    def __str__(self):
        return "UndefVal"


UNDEF = UndefVal()


# The arithmetic operations, each declared once on plain 32-bit ints. An
# arithmetic node kind names its operation (ir, op=...); evaluation, the
# normal forms of data_equiv and optimize's constant folds are derived
# from it. The wrapping ones inline wrap32: an operation is one call.
def int_add(a: int, b: int) -> int:
    return ((a + b + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31


def int_sub(a: int, b: int) -> int:
    return ((a - b + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31


def int_mul(a: int, b: int) -> int:
    return ((a * b + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31


def int_negate(a: int) -> int:
    return ((2 ** 31 - a) & 0xFFFFFFFF) - 2 ** 31


def int_less_than(a: int, b: int) -> int:
    return 1 if a < b else 0


_ABSENT = object()  # an entry a diff unsets


def _reroot(version: list) -> dict:
    """Make the shared dict hold this version, and return the dict.

    A version is a one-item list. It holds either the dict (it is the
    root) or a diff (key, value, next): the version `next` with key set to
    value, or unset when value is _ABSENT. Rerooting walks the diffs to the
    root, then applies them back toward this version, leaving each
    version it passes as the inverse diff.
    """
    data = version[0]
    path = []
    while type(data) is not dict:
        path.append(version)
        version = data[2]
        data = version[0]
    for version in reversed(path):
        key, value, root = version[0]
        root[0] = (key, data.get(key, _ABSENT), version)
        if value is _ABSENT:
            data.pop(key, None)  # a state may unset a slot it never had
        else:
            data[key] = value
        version[0] = data
    return data


class _Versioned:
    """A persistent map, by rerooting (Baker's shallow binding): its versions
    share one dict. A write changes the dict and turns its receiver into a
    one-entry diff, so it costs O(1) while only the newest version is used;
    using an older version first reroots to it, at a cost proportional to
    the writes in between. Versions must not be shared across threads.
    """

    __slots__ = ("_version",)

    def __init__(self, mapping: Mapping | None = None):
        self._version = [dict(mapping) if mapping else {}]

    def entries(self) -> dict:
        """The shared dict, rerooted to this version: read it, never write it."""
        data = self._version[0]
        return data if type(data) is dict else _reroot(self._version)

    def _write(self, key, value) -> list:
        """The one write: the next version, with key set to value (unset
        when value is _ABSENT). The receiver becomes a one-entry diff."""
        receiver = self._version
        data = receiver[0]
        if type(data) is not dict:  # an older version: bring the dict to it
            data = _reroot(receiver)
        version = [data]
        receiver[0] = (key, data.get(key, _ABSENT), version)
        if value is _ABSENT:
            data.pop(key, None)
        else:
            data[key] = value
        return version

    def items(self) -> list:
        """A copy of this version's (key, value) pairs."""
        return list(self.entries().items())

    def __eq__(self, other):
        # One side is copied first: the two may be versions of one dict.
        return type(other) is type(self) and dict(self.entries()) == other.entries()


class _View(Mapping):
    """One version's entries, read-only; every access reroots to it."""

    __slots__ = ("_of",)

    def __init__(self, of: _Versioned):
        self._of = of

    def __getitem__(self, key):
        return self._of.entries()[key]

    def __iter__(self):
        return iter(self._of.entries())

    def __len__(self):
        return len(self._of.entries())

    def items(self):
        return self._of.items()


class MethodState(_Versioned):
    """Mapping from node ids to values; ids never written read as UndefVal.

    Persistent (a _Versioned map): set() returns a new state, the receiver
    is unchanged. Writing any UndefVal unsets its slot, so states compare
    by the defined entries only (two fresh states are equal).
    """

    __slots__ = ()

    def __init__(self, vals: Mapping | None = None):
        self._version = [{nid: v for nid, v in vals.items()
                          if type(v) is not UndefVal} if vals else {}]

    def __getitem__(self, nid: int) -> Value:
        return self.entries().get(nid, UNDEF)

    def set(self, nid: int, v: Value) -> "MethodState":
        state = _new(MethodState)
        state._version = self._write(nid, _ABSENT if type(v) is UndefVal else v)
        return state

    def set_many(self, updates) -> "MethodState":
        """The state with the (nid, value) updates applied in order."""
        state = _new(MethodState)
        state._version = self._version
        for nid, v in updates:
            state._version = state._write(nid, _ABSENT if type(v) is UndefVal else v)
        return state

    def __repr__(self):
        inner = ", ".join(f"{nid}: {v}" for nid, v in sorted(self.items()))
        return f"MethodState({{{inner}}})"


FIELD_DEFAULT = IntVal(0)


class DynamicHeap(_Versioned):
    """Heap mapping (object reference, field name) to values, plus the next
    free object reference.

    Unwritten fields read as IntVal 0. An instance's class is not recorded:
    it carries no semantics (no dynamic dispatch). Persistent (a _Versioned
    map): a store returns a new heap, the receiver is unchanged.
    """

    __slots__ = ("free",)

    def __init__(self, fields: Mapping | None = None, free: int = 0):
        super().__init__(fields)
        self.free = free

    @property
    def fields(self) -> Mapping:
        """This version's cells: (address, field name) -> value."""
        return _View(self)

    def load_field(self, fname: str, obj: ObjRef | None) -> Value:
        data = self._version[0]
        if type(data) is not dict:  # an older version: bring the dict to it
            data = _reroot(self._version)
        return data.get((obj.ref if obj is not None else STATIC_REF, fname), FIELD_DEFAULT)

    def store_field(self, fname: str, obj: ObjRef | None, v: Value) -> "DynamicHeap":
        heap = _new(DynamicHeap)
        heap._version = self._write((obj.ref if obj is not None else STATIC_REF, fname), v)
        heap.free = self.free
        return heap

    def new_instance(self) -> tuple[ObjRef, "DynamicHeap"]:
        heap = _new(DynamicHeap)
        heap._version, heap.free = self._version, self.free + 1
        return ObjRef(self.free), heap

    def __eq__(self, other):
        return super().__eq__(other) and self.free == other.free

    def __repr__(self):
        return f"DynamicHeap(fields={dict(self.entries())!r}, free={self.free})"
