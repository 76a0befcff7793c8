"""Graph data model for the sea-of-nodes IR.

A graph is a finite partial map from integer node ids to node values.
Each node kind is declared once, as an IRNode subclass with annotated
fields, and every per-kind table (role predicates, value edges, field
codecs, and the evaluation and step entries of dataflow and controlflow)
is derived from that, so generic code needs no per-kind cases; so are its
constructor, equality and hash, the ones a frozen dataclass of its fields
has, generated once per kind. An edge's shape (one, optional, or a list) is
stated once, by its field's type, and the edge readers are derived from it.
A graph decodes each node's edges once, into its edge table, and derives its
def-use index from that table; an edit inherits the table and the control
step entries and derives its def-use index again on first use.
"""

import enum
import inspect
from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import ClassVar

from . import runtime
from .runtime import Value


class InvalidEdit(Exception):
    """A graph edit violated its precondition (occupied/unmapped id, NoNode)."""


@dataclass(frozen=True)
class Signature:
    """Identifies a method: defining class, name, and parameter types."""

    className: str
    methodName: str
    parameterTypes: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.parameterTypes, str):  # tuple() would split it into letters
            raise TypeError(f"parameterTypes must be type names, not {self.parameterTypes!r}")
        object.__setattr__(self, "parameterTypes", tuple(self.parameterTypes))

    def __str__(self):
        return f"{self.className}.{self.methodName}({','.join(self.parameterTypes)})"


class Role(enum.Enum):
    """The one part a node kind plays in the semantics."""

    PURE = "pure"  # side-effect-free data; may be stored under a second id
    STATE_DATA = "state-data"  # data a control step latches into the state (phis)
    STATE_CONTROL = "state-control"  # control that latches its own value
    SEQUENTIAL = "sequential"  # control that just goes to its only successor
    CONTROL = "control"
    CALL_TARGET = "call-target"


# Every storable node kind by name, filled in as the kinds are declared.
NODE_KINDS: dict[str, type] = {}


def _reader(kind, names: tuple[str, ...]):
    """node -> its edge targets in the fields names, in order, read by each
    field's type: None or a tuple in an int field is one edge, to no node."""
    if not names:
        return lambda node: ()
    if kind.LIST_EDGES.isdisjoint(names) and kind.OPTIONAL_EDGES.isdisjoint(names):
        get = attrgetter(*names)  # plain int fields: one C call
        return get if len(names) > 1 else lambda node: (get(node),)

    def read(node) -> tuple:
        out = []
        for name in names:
            v = getattr(node, name)
            if name in kind.LIST_EDGES:
                out.extend(v)
            elif v is not None or name not in kind.OPTIONAL_EDGES:
                out.append(v)
        return tuple(out)
    return read


def _define_methods(kind) -> None:
    """Give kind the __init__, __eq__ and __hash__ a frozen dataclass of its
    FIELDS has, from one generated source, and its __match_args__. __init__
    takes the fields by position or name, stores a list edge as a tuple,
    then runs __post_init__ if the kind has one; __eq__ compares the fields
    of two nodes of one class, and __hash__ hashes them."""
    names = tuple(kind.FIELDS)
    sets = "".join(f"\n _set(self, {n!r}, {f'tuple({n})' if n in kind.LIST_EDGES else n})"
                   for n in names)
    post = "\n self.__post_init__()" if hasattr(kind, "__post_init__") else ""
    mine, theirs = "".join(f"self.{n}," for n in names), "".join(f"other.{n}," for n in names)
    namespace = {"_set": object.__setattr__}
    exec(f"def __init__(self, {', '.join(names)}):{sets}{post}\n pass\n"
         f"def __eq__(self, other):\n if other.__class__ is self.__class__:\n"
         f"  return ({mine})==({theirs})\n return NotImplemented\n"
         f"def __hash__(self):\n return hash(({mine}))\n", namespace)
    for name in ("__init__", "__eq__", "__hash__"):
        namespace[name].__qualname__ = f"{kind.__qualname__}.{name}"
        setattr(kind, name, namespace[name])
    kind.__match_args__ = names


class IRNode:
    """Base of all node variants.

    A kind's fields are its annotated attributes other than ClassVars, its
    bases' first; FIELDS maps each name to its type, in that order. From
    FIELDS each kind gets the methods a frozen dataclass would have (see
    _define_methods), and IRNode gives every node the dataclass's repr text
    and refuses to set or delete an attribute (FrozenInstanceError).
    INPUTS names the input-edge fields in edge order, SUCCESSORS the
    successor-edge fields. A field's type is the edge's shape: int is one
    edge, int | None an optional one, tuple[int, ...] a list, stored as a
    tuple whatever it is built from; LIST_EDGES and OPTIONAL_EDGES name the
    fields of the last two types. Remaining fields are plain data
    attributes. The class keywords give the kind's role (a kind with one is
    registered in NODE_KINDS), an arithmetic kind's run-time operation on
    its integer inputs, and a pure kind's anchors: inputs evaluation does
    not follow. VALUE_EDGES names the ones it does. READERS reads a node's
    inputs, successors and value inputs.
    """

    FIELDS: ClassVar[dict[str, object]] = {}
    INPUTS: ClassVar[tuple[str, ...]] = ()
    SUCCESSORS: ClassVar[tuple[str, ...]] = ()
    ROLE: ClassVar[Role | None] = None
    OP: ClassVar = None
    VALUE_EDGES: ClassVar[tuple[str, ...]] = ()
    LIST_EDGES: ClassVar[frozenset[str]] = frozenset()
    OPTIONAL_EDGES: ClassVar[frozenset[str]] = frozenset()
    READERS: ClassVar[tuple] = ()

    def __init_subclass__(cls, role: Role | None = None, op=None, anchors=()):
        super().__init_subclass__()
        cls.ROLE, cls.OP = role, op
        cls.FIELDS = fields = {n: t for c in reversed(cls.__mro__)
                               for n, t in inspect.get_annotations(c).items()
                               if getattr(t, "__origin__", t) is not ClassVar}
        cls.LIST_EDGES = frozenset(n for n, t in fields.items() if t == tuple[int, ...])
        cls.OPTIONAL_EDGES = frozenset(n for n, t in fields.items() if t == int | None)
        _define_methods(cls)
        if role is not None:
            NODE_KINDS[cls.__name__] = cls
        if role is Role.PURE:
            cls.VALUE_EDGES = tuple(e for e in cls.INPUTS if e not in anchors)
        inputs = _reader(cls, cls.INPUTS)
        values = inputs if cls.VALUE_EDGES == cls.INPUTS else _reader(cls, cls.VALUE_EDGES)
        cls.READERS = (inputs, _reader(cls, cls.SUCCESSORS), values)

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.FIELDS)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def kind_name(cls) -> str:
        return cls.__name__


class NoNode(IRNode):
    """Result of looking up an unmapped id; never stored in a graph."""


NO_NODE = NoNode()


class ConstantNode(IRNode, role=Role.PURE):
    const: Value


class ParameterNode(IRNode, role=Role.PURE):
    index: int

    def __post_init__(self):
        # A natural number, as in the paper: a negative index would read the
        # arguments from the end.
        if self.index < 0:
            raise ValueError(f"negative parameter index: {self.index}")


class ValuePhiNode(IRNode, role=Role.STATE_DATA):
    selfId: int
    values: tuple[int, ...]
    merge: int

    # Input edge zero connects the phi to its merge node.
    INPUTS = ("merge", "values")


class NegateNode(IRNode, role=Role.PURE, op=runtime.int_negate):
    value: int

    INPUTS = ("value",)


class BinaryNode(IRNode):
    """Base of the kinds with two value inputs; no role, so not a kind."""

    x: int
    y: int

    INPUTS = ("x", "y")


class AddNode(BinaryNode, role=Role.PURE, op=runtime.int_add):
    pass


class SubNode(BinaryNode, role=Role.PURE, op=runtime.int_sub):
    pass


class MulNode(BinaryNode, role=Role.PURE, op=runtime.int_mul):
    pass


class IntegerLessThanNode(BinaryNode, role=Role.PURE, op=runtime.int_less_than):
    pass


class ConditionalNode(IRNode, role=Role.PURE):
    condition: int
    trueValue: int
    falseValue: int

    INPUTS = ("condition", "trueValue", "falseValue")


class ValueProxyNode(IRNode, role=Role.PURE, anchors=("loopExit",)):
    """Forwards the value of a loop-carried node past its loop exit. The
    loop-exit edge is a scheduling anchor, not a value dependency."""

    value: int
    loopExit: int

    INPUTS = ("value", "loopExit")


class StartNode(IRNode, role=Role.SEQUENTIAL):
    next: int

    SUCCESSORS = ("next",)


class BeginNode(IRNode, role=Role.SEQUENTIAL):
    next: int

    SUCCESSORS = ("next",)


class RefNode(IRNode, role=Role.SEQUENTIAL):
    """Control no-op; the residue left by branch-removing rewrites."""

    next: int

    SUCCESSORS = ("next",)


class IfNode(IRNode, role=Role.CONTROL):
    condition: int
    trueSuccessor: int
    falseSuccessor: int

    INPUTS = ("condition",)
    SUCCESSORS = ("trueSuccessor", "falseSuccessor")


class AbstractEndNode(IRNode):
    """Base of the control edges into a merge; no role, so not a kind."""


class AbstractMergeNode(IRNode):
    """Base of the control-flow merges; no role, so not a kind."""

    ends: tuple[int, ...]
    next: int

    INPUTS = ("ends",)
    SUCCESSORS = ("next",)


class EndNode(AbstractEndNode, role=Role.CONTROL):
    pass


class MergeNode(AbstractMergeNode, role=Role.SEQUENTIAL):
    pass


class LoopBeginNode(AbstractMergeNode, role=Role.SEQUENTIAL):
    pass


class LoopEndNode(AbstractEndNode, role=Role.CONTROL):
    loopBegin: int

    INPUTS = ("loopBegin",)


class LoopExitNode(IRNode, role=Role.SEQUENTIAL):
    loopBegin: int
    next: int

    INPUTS = ("loopBegin",)
    SUCCESSORS = ("next",)


class NewInstanceNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    instanceClass: str
    next: int

    SUCCESSORS = ("next",)


class LoadFieldNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    field: str
    objectOpt: int | None
    next: int

    INPUTS = ("objectOpt",)
    SUCCESSORS = ("next",)


class StoreFieldNode(IRNode, role=Role.CONTROL):
    selfId: int
    field: str
    value: int
    objectOpt: int | None
    next: int

    INPUTS = ("value", "objectOpt")
    SUCCESSORS = ("next",)


class ReturnNode(IRNode, role=Role.CONTROL):
    resultOpt: int | None

    INPUTS = ("resultOpt",)


class InvokeNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    callTarget: int
    next: int

    INPUTS = ("callTarget",)
    SUCCESSORS = ("next",)


class InvokeWithExceptionNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    callTarget: int
    next: int
    exceptionEdge: int

    INPUTS = ("callTarget",)
    SUCCESSORS = ("next", "exceptionEdge")


class MethodCallTargetNode(IRNode, role=Role.CALL_TARGET):
    targetMethod: Signature
    arguments: tuple[int, ...]

    INPUTS = ("arguments",)


class UnwindNode(IRNode, role=Role.CONTROL):
    exception: int

    INPUTS = ("exception",)


# The one row of every node without edges: a constant, a parameter, an end.
NO_EDGES = ((), (), ())


def edges_of(node: IRNode) -> tuple[tuple, tuple, tuple]:
    """A node's row of the edge table: its inputs, successors and value
    inputs, each a tuple of edge targets as the functions below list them.
    A node without edges gets the shared row NO_EDGES."""
    inputs, successors, values = type(node).READERS
    ins, outs = inputs(node), successors(node)
    return (ins, outs, ins if values is inputs else values(node)) if ins or outs else NO_EDGES


def value_inputs(node: IRNode) -> list[int]:
    """Ordered targets of the input edges that evaluation follows."""
    return list(type(node).READERS[2](node))


# The role predicates take a node or a node kind.
def is_sequential(node) -> bool:
    """True for control nodes whose step is just "go to the only successor"."""
    return node.ROLE is Role.SEQUENTIAL


def is_pure(node) -> bool:
    """True for data nodes that may be stored under a second id."""
    return node.ROLE is Role.PURE


def is_data(node) -> bool:
    return node.ROLE in (Role.PURE, Role.STATE_DATA)


def is_state_leaf(node) -> bool:
    """True for nodes whose value a control-flow step latches into the
    method state and expression evaluation reads back."""
    return node.ROLE in (Role.STATE_DATA, Role.STATE_CONTROL)


class Graph:
    """Finite partial map from node ids to nodes; immutable after construction.

    Lookups are total: unmapped ids yield NoNode. Edits return new graphs,
    all through edit. Derived tables are built on first use and kept: the
    edge table and the def-use index, read from it, by the first edges and
    users calls, and the evaluation schedules by roots tuple and step
    entries by node, filled in by dataflow.schedule and controlflow.plan,
    and the normal forms and leaf sets by node that equivalence.data_equiv
    derives (equivalence._Forms, None until then). An edited graph inherits
    only what costs node decoding: the edge table and the step entries its
    parent has built, brought up to date for the changed ids. What is a
    function of the edge table alone, the def-use index, it derives again
    on its first users call; it starts without schedules or forms.
    """

    __slots__ = ("_nodes", "_edges", "_users", "schedules", "steps", "forms")

    def __init__(self, nodes: dict[int, IRNode]):
        for nid, node in nodes.items():
            if not isinstance(nid, int) or nid < 0:
                raise InvalidEdit(f"node id must be a non-negative integer: {nid!r}")
            if isinstance(node, NoNode):
                raise InvalidEdit(f"cannot store NoNode at id {nid}")
        self._nodes = dict(nodes)
        self._edges = None
        self._users = None
        self.schedules: dict = {}  # roots tuple -> schedule; see dataflow.schedule
        self.steps: dict = {}  # nid -> step entry; see controlflow.plan
        self.forms = None  # see equivalence.data_equiv

    def kind(self, nid: int) -> IRNode:
        return self._nodes.get(nid, NO_NODE)

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def usages(self, nid: int) -> set[int]:
        # A new set each call, so a caller cannot change the index.
        return set(self.users(nid))

    def edges(self) -> dict[int, tuple[tuple, tuple, tuple]]:
        """The edge table: each mapped id to edges_of its node. Read-only,
        so it is not copied."""
        if self._edges is None:
            self._edges = {nid: edges_of(node) for nid, node in self._nodes.items()}
        return self._edges

    def users(self, nid: int) -> tuple[int, ...]:
        """The def-use index's own entry for nid: the ids whose inputs name
        it, once per naming input. Read-only, so it is not copied."""
        if self._users is None:
            users: dict[int, list[int]] = {}
            for m, (ins, _, _) in self.edges().items():
                for n in ins:
                    users.setdefault(n, []).append(m)
            # Tuples take about a third of the memory of sets.
            self._users = {n: tuple(ms) for n, ms in users.items()}
        return self._users.get(nid, ())

    def insert_node(self, nid: int, node: IRNode) -> "Graph":
        if nid in self._nodes:
            raise InvalidEdit(f"insert on occupied id {nid}")
        return self.edit({nid: node})

    def replace_node(self, nid: int, node: IRNode) -> "Graph":
        if nid not in self._nodes:
            raise InvalidEdit(f"replace on unmapped id {nid}")
        return self.edit({nid: node})

    def edit(self, changes: dict[int, IRNode]) -> "Graph":
        """This graph with each id of changes mapped to its node, replaced or
        added. The edit re-derives the edge table's rows of the changed ids
        only; its def-use index is built afresh on its first users call. It
        drops the step entries controlflow.plan may have read a changed id
        for, in this graph or the edit: those of the changed ids, of their
        users, of their inputs and of their inputs' inputs (an invoke reads
        its call target, an end its merge and the merge's phis, and a
        merge's inputs are its ends)."""
        g = Graph(changes)  # checks only the changed entries
        g._nodes = {**self._nodes, **changes}  # the one copy of the map
        edges = self._edges
        if edges is None:
            return g
        rows = {nid: edges_of(node) for nid, node in changes.items()}
        g._edges = table = {**edges, **rows}
        if self.steps:
            drop = set(changes)
            for nid, (ins, _, _) in rows.items():
                drop.update(self.users(nid))  # this graph's users
                for n in (*edges.get(nid, NO_EDGES)[0], *ins):
                    drop.add(n)
                    drop.update(table.get(n, NO_EDGES)[0])
            g.steps = steps = dict(self.steps)
            for n in drop:
                steps.pop(n, None)
        return g

    def items(self):
        return self._nodes.items()

    def __eq__(self, other):
        return isinstance(other, Graph) and self._nodes == other._nodes

    def __repr__(self):
        lines = ", ".join(f"{nid}: {node}" for nid, node in sorted(self._nodes.items()))
        return f"Graph({{{lines}}})"


@dataclass
class Program:
    """Finite map from method signatures to their graphs."""

    methods: dict[Signature, Graph]

    def graph(self, sig: Signature) -> Graph | None:
        return self.methods.get(sig)

    def resolve(self, name: str) -> Signature:
        """Find a signature by "name" or "Class.name"; errors if ambiguous."""
        matches = [
            s for s in self.methods
            if s.methodName == name or f"{s.className}.{s.methodName}" == name
        ]
        if not matches:
            raise KeyError(f"no method named {name!r}")
        if len(matches) > 1:
            opts = ", ".join(str(s) for s in matches)
            raise KeyError(f"ambiguous method name {name!r}: {opts}")
        return matches[0]
