"""Run-time value domain: 32-bit wrapping integers, object references,
method state, and the dynamic heap."""

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
        self._vals = {nid: v for nid, v in vals.items()
                      if not isinstance(v, UndefVal)} if vals else {}

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


FIELD_DEFAULT = IntVal(0)


_ABSENT = object()  # a cell a diff unsets


def _reroot(version: list) -> dict:
    """Make the shared dict hold this heap version, and return the dict.

    A version is a one-item list. It holds either the dict (it is the
    root) or a diff (key, value, next): the version `next` with key set to
    value, or unset when value is _ABSENT. Rerooting walks the diffs to the
    root, then applies them back toward this version, leaving each
    version it passes as the inverse diff.
    """
    data = version[0]
    if type(data) is dict:
        return data
    path = []
    while type(data) is not dict:
        path.append(version)
        version = data[2]
        data = version[0]
    for version in reversed(path):
        key, value, root = version[0]
        root[0] = (key, data.get(key, _ABSENT), version)
        if value is _ABSENT:
            del data[key]
        else:
            data[key] = value
        version[0] = data
    return data


class _Fields(Mapping):
    """One heap version's cells, read-only; every access reroots to it."""

    __slots__ = ("_version",)

    def __init__(self, version: list):
        self._version = version

    def __getitem__(self, key):
        return _reroot(self._version)[key]

    def get(self, key, default=None):
        return _reroot(self._version).get(key, default)

    def __iter__(self):
        return iter(_reroot(self._version))

    def __len__(self):
        return len(_reroot(self._version))


class DynamicHeap:
    """Heap mapping (object reference, field name) to values, plus the next
    free object reference.

    Unwritten fields read as IntVal 0. An instance's class is not recorded:
    it carries no semantics (no dynamic dispatch).

    Persistent by rerooting (Baker's shallow binding): a store writes the
    dict all versions share and turns its receiver into a one-cell diff, so
    it costs O(1) while only the newest version is used; using an older
    version first reroots to it, at a cost proportional to the stores in
    between. The versions of one heap must not be shared across threads.
    """

    __slots__ = ("_version", "free")

    def __init__(self, fields: Mapping | None = None, free: int = 0):
        self._version = [dict(fields) if fields else {}]
        self.free = free

    @classmethod
    def _at(cls, version: list, free: int) -> "DynamicHeap":
        heap = cls.__new__(cls)
        heap._version, heap.free = version, free
        return heap

    @property
    def fields(self) -> Mapping:
        """This version's cells: (address, field name) -> value."""
        return _Fields(self._version)

    def load_field(self, fname: str, obj: ObjRef | None) -> Value:
        addr = obj.ref if obj is not None else STATIC_REF
        return _reroot(self._version).get((addr, fname), FIELD_DEFAULT)

    def store_field(self, fname: str, obj: ObjRef | None, v: Value) -> "DynamicHeap":
        key = (obj.ref if obj is not None else STATIC_REF, fname)
        data = _reroot(self._version)
        version = [data]
        self._version[0] = (key, data.get(key, _ABSENT), version)
        data[key] = v
        return DynamicHeap._at(version, self.free)

    def new_instance(self) -> tuple[ObjRef, "DynamicHeap"]:
        return ObjRef(self.free), DynamicHeap._at(self._version, self.free + 1)

    def __eq__(self, other):
        return (isinstance(other, DynamicHeap) and self.free == other.free
                and self.fields == other.fields)

    def __repr__(self):
        return f"DynamicHeap(fields={dict(self.fields)!r}, free={self.free})"
