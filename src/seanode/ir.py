"""Graph data model for the sea-of-nodes IR.

A graph is a finite partial map from integer node ids to node values.
Each node kind is declared once, as an IRNode subclass, and every per-kind
table (role predicates, value edges, field codecs, and the evaluation and
step entries of dataflow and controlflow) is derived from that, so generic
code needs no per-kind cases. An edge's shape (one, optional, or a list) is
stated once, by its field's type, and the edge readers read it from there.
"""

import enum
from dataclasses import dataclass
from typing import ClassVar, get_type_hints

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


@dataclass(frozen=True)
class IRNode:
    """Base of all node variants.

    INPUTS names the input-edge fields in edge order, SUCCESSORS the
    successor-edge fields. A field's type is the edge's shape: int is one
    edge, int | None an optional one, tuple[int, ...] a list; LIST_EDGES
    and OPTIONAL_EDGES name the fields of the last two types. Remaining
    dataclass fields are plain data attributes. The class keywords give the
    kind's role (a kind with one is registered in NODE_KINDS), an arithmetic
    kind's run-time operation on its integer inputs, and a pure kind's
    anchors: inputs evaluation does not follow. VALUE_EDGES names the ones
    it does.
    """

    INPUTS: ClassVar[tuple[str, ...]] = ()
    SUCCESSORS: ClassVar[tuple[str, ...]] = ()
    ROLE: ClassVar[Role | None] = None
    OP: ClassVar = None
    VALUE_EDGES: ClassVar[tuple[str, ...]] = ()
    LIST_EDGES: ClassVar[frozenset[str]] = frozenset()
    OPTIONAL_EDGES: ClassVar[frozenset[str]] = frozenset()

    def __init_subclass__(cls, role: Role | None = None, op=None, anchors=()):
        super().__init_subclass__()
        cls.ROLE, cls.OP = role, op
        hints = get_type_hints(cls).items()
        cls.LIST_EDGES = frozenset(n for n, t in hints if t == tuple[int, ...])
        cls.OPTIONAL_EDGES = frozenset(n for n, t in hints if t == int | None)
        if role is not None:
            NODE_KINDS[cls.__name__] = cls
        if role is Role.PURE:
            cls.VALUE_EDGES = tuple(e for e in cls.INPUTS if e not in anchors)

    @classmethod
    def kind_name(cls) -> str:
        return cls.__name__


@dataclass(frozen=True)
class NoNode(IRNode):
    """Result of looking up an unmapped id; never stored in a graph."""


NO_NODE = NoNode()


@dataclass(frozen=True)
class ConstantNode(IRNode, role=Role.PURE):
    const: Value


@dataclass(frozen=True)
class ParameterNode(IRNode, role=Role.PURE):
    index: int


@dataclass(frozen=True)
class ValuePhiNode(IRNode, role=Role.STATE_DATA):
    selfId: int
    values: tuple[int, ...]
    merge: int

    # Input edge zero connects the phi to its merge node.
    INPUTS = ("merge", "values")

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class NegateNode(IRNode, role=Role.PURE, op=runtime.int_negate):
    value: int

    INPUTS = ("value",)


@dataclass(frozen=True)
class BinaryNode(IRNode):
    """Base of the kinds with two value inputs; no role, so not a kind."""

    x: int
    y: int

    INPUTS = ("x", "y")


@dataclass(frozen=True)
class AddNode(BinaryNode, role=Role.PURE, op=runtime.int_add):
    pass


@dataclass(frozen=True)
class SubNode(BinaryNode, role=Role.PURE, op=runtime.int_sub):
    pass


@dataclass(frozen=True)
class MulNode(BinaryNode, role=Role.PURE, op=runtime.int_mul):
    pass


@dataclass(frozen=True)
class IntegerLessThanNode(BinaryNode, role=Role.PURE, op=runtime.int_less_than):
    pass


@dataclass(frozen=True)
class ConditionalNode(IRNode, role=Role.PURE):
    condition: int
    trueValue: int
    falseValue: int

    INPUTS = ("condition", "trueValue", "falseValue")


@dataclass(frozen=True)
class ValueProxyNode(IRNode, role=Role.PURE, anchors=("loopExit",)):
    """Forwards the value of a loop-carried node past its loop exit. The
    loop-exit edge is a scheduling anchor, not a value dependency."""

    value: int
    loopExit: int

    INPUTS = ("value", "loopExit")


@dataclass(frozen=True)
class StartNode(IRNode, role=Role.SEQUENTIAL):
    next: int

    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class BeginNode(IRNode, role=Role.SEQUENTIAL):
    next: int

    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class RefNode(IRNode, role=Role.SEQUENTIAL):
    """Control no-op; the residue left by branch-removing rewrites."""

    next: int

    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class IfNode(IRNode, role=Role.CONTROL):
    condition: int
    trueSuccessor: int
    falseSuccessor: int

    INPUTS = ("condition",)
    SUCCESSORS = ("trueSuccessor", "falseSuccessor")


@dataclass(frozen=True)
class AbstractEndNode(IRNode):
    """Base of the control edges into a merge; no role, so not a kind."""


@dataclass(frozen=True)
class AbstractMergeNode(IRNode):
    """Base of the control-flow merges; no role, so not a kind."""

    ends: tuple[int, ...]
    next: int

    INPUTS = ("ends",)
    SUCCESSORS = ("next",)

    def __post_init__(self):
        object.__setattr__(self, "ends", tuple(self.ends))


@dataclass(frozen=True)
class EndNode(AbstractEndNode, role=Role.CONTROL):
    pass


@dataclass(frozen=True)
class MergeNode(AbstractMergeNode, role=Role.SEQUENTIAL):
    pass


@dataclass(frozen=True)
class LoopBeginNode(AbstractMergeNode, role=Role.SEQUENTIAL):
    pass


@dataclass(frozen=True)
class LoopEndNode(AbstractEndNode, role=Role.CONTROL):
    loopBegin: int

    INPUTS = ("loopBegin",)


@dataclass(frozen=True)
class LoopExitNode(IRNode, role=Role.SEQUENTIAL):
    loopBegin: int
    next: int

    INPUTS = ("loopBegin",)
    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class NewInstanceNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    instanceClass: str
    next: int

    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class LoadFieldNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    field: str
    objectOpt: int | None
    next: int

    INPUTS = ("objectOpt",)
    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class StoreFieldNode(IRNode, role=Role.CONTROL):
    selfId: int
    field: str
    value: int
    objectOpt: int | None
    next: int

    INPUTS = ("value", "objectOpt")
    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class ReturnNode(IRNode, role=Role.CONTROL):
    resultOpt: int | None

    INPUTS = ("resultOpt",)


@dataclass(frozen=True)
class InvokeNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    callTarget: int
    next: int

    INPUTS = ("callTarget",)
    SUCCESSORS = ("next",)


@dataclass(frozen=True)
class InvokeWithExceptionNode(IRNode, role=Role.STATE_CONTROL):
    selfId: int
    callTarget: int
    next: int
    exceptionEdge: int

    INPUTS = ("callTarget",)
    SUCCESSORS = ("next", "exceptionEdge")


@dataclass(frozen=True)
class MethodCallTargetNode(IRNode, role=Role.CALL_TARGET):
    targetMethod: Signature
    arguments: tuple[int, ...]

    INPUTS = ("arguments",)

    def __post_init__(self):
        object.__setattr__(self, "arguments", tuple(self.arguments))


@dataclass(frozen=True)
class UnwindNode(IRNode, role=Role.CONTROL):
    exception: int

    INPUTS = ("exception",)


def _edge_fields(node: IRNode, names) -> list[int]:
    # Read by the field's type, not its value: None in an int field stays a
    # target, an edge to no node, which wellformed.check reports.
    kind = type(node)
    out = []
    for name in names:
        v = getattr(node, name)
        if name in kind.LIST_EDGES:
            out.extend(v)
        elif v is not None or name not in kind.OPTIONAL_EDGES:
            out.append(v)
    return out


def inputs_of(node: IRNode) -> list[int]:
    """Ordered input-edge targets of a node (absent optional edges omitted)."""
    return _edge_fields(node, type(node).INPUTS)


def successors_of(node: IRNode) -> list[int]:
    """Ordered successor-edge targets of a node."""
    return _edge_fields(node, type(node).SUCCESSORS)


def value_inputs(node: IRNode) -> list[int]:
    """Ordered targets of the input edges that evaluation follows."""
    return _edge_fields(node, type(node).VALUE_EDGES)


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

    Lookups are total: unmapped ids yield NoNode. Edits return new graphs.
    Derived tables are built on first use and kept: the def-use index (node
    id -> the ids whose inputs name it), by the first users call, and the
    evaluation schedules by root and step entries by node, filled in by
    dataflow.schedule and controlflow.plan. An edit returns a graph with none.
    """

    __slots__ = ("_nodes", "_users", "schedules", "steps")

    def __init__(self, nodes: dict[int, IRNode]):
        for nid, node in nodes.items():
            if not isinstance(nid, int) or nid < 0:
                raise InvalidEdit(f"node id must be a non-negative integer: {nid!r}")
            if isinstance(node, NoNode):
                raise InvalidEdit(f"cannot store NoNode at id {nid}")
        self._nodes = dict(nodes)
        self._users = None
        self.schedules: dict = {}  # root -> evaluation schedule; see dataflow.schedule
        self.steps: dict = {}  # nid -> step entry; see controlflow.plan

    def kind(self, nid: int) -> IRNode:
        return self._nodes.get(nid, NO_NODE)

    def ids(self) -> set[int]:
        return set(self._nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def usages(self, nid: int) -> set[int]:
        # A new set each call, so a caller cannot change the index.
        return set(self.users(nid))

    def users(self, nid: int) -> tuple[int, ...]:
        """The def-use index's own entry for nid: the ids whose inputs name
        it, once per naming input. Read-only, so it is not copied."""
        if self._users is None:
            users: dict[int, list[int]] = {}
            for m, node in self._nodes.items():
                for n in inputs_of(node):
                    users.setdefault(n, []).append(m)
            # Tuples take about a third of the memory of sets.
            self._users = {n: tuple(ms) for n, ms in users.items()}
        return self._users.get(nid, ())

    def insert_node(self, nid: int, node: IRNode) -> "Graph":
        if nid in self._nodes:
            raise InvalidEdit(f"insert on occupied id {nid}")
        return self._with(nid, node)

    def replace_node(self, nid: int, node: IRNode) -> "Graph":
        if nid not in self._nodes:
            raise InvalidEdit(f"replace on unmapped id {nid}")
        return self._with(nid, node)

    def _with(self, nid: int, node: IRNode) -> "Graph":
        g = Graph({nid: node})  # checks only the new entry
        g._nodes = {**self._nodes, nid: node}  # the one copy of the map
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
