"""Structured programs for the benchmark generators.

A structured program is a list of methods whose bodies are statements
(loops, two-way branches, calls, heap operations) over expression trees.
`to_text` lowers one to `seanode/1` JSON text; `Oracle` executes it
directly in plain Python with its own 32-bit wrap-around. The oracle shares
no code with `seanode`, so it is an independent reference for the
interpreter's outputs.

Expressions are objects: using the same object twice makes one shared node
(a GVN-style DAG); building a fresh object makes a separate node.
"""

import json
import sys
from dataclasses import dataclass, field

STATIC_REF = -1


def wrap32(n: int) -> int:
    return ((n + 2 ** 31) & 0xFFFFFFFF) - 2 ** 31


# -- expressions -------------------------------------------------------------

class Expr:
    __slots__ = ()


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = wrap32(value)


class Param(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class Var(Expr):
    """A value latched in the method state: a phi, an allocation, a field
    load or an invoke result. Its node is the statement that defines it."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Bin(Expr):
    __slots__ = ("op", "x", "y")
    KINDS = {"add": "AddNode", "mul": "MulNode", "lt": "IntegerLessThanNode"}

    def __init__(self, op: str, x: Expr, y: Expr):
        self.op, self.x, self.y = op, x, y


class Neg(Expr):
    __slots__ = ("x",)

    def __init__(self, x: Expr):
        self.x = x


class Cond(Expr):
    __slots__ = ("c", "t", "f")

    def __init__(self, c: Expr, t: Expr, f: Expr):
        self.c, self.t, self.f = c, t, f


class Proxy(Expr):
    """A loop phi read after the loop has exited."""

    __slots__ = ("var", "loop")

    def __init__(self, var: Var, loop: "Loop"):
        self.var, self.loop = var, loop


def add(x, y):
    return Bin("add", x, y)


def mul(x, y):
    return Bin("mul", x, y)


def lt(x, y):
    return Bin("lt", x, y)


# -- statements --------------------------------------------------------------

@dataclass(eq=False)
class Loop:
    """while cond: body; then every phi takes its update simultaneously."""

    phis: list  # (Var, init Expr, update Expr)
    cond: Expr
    body: list


@dataclass(eq=False)
class If:
    """Two-way branch. If both arms fall through they meet at a merge whose
    phis take the then- or else-expression of the arm that ran."""

    cond: Expr
    then: list
    orelse: list
    phis: list = field(default_factory=list)  # (Var, then Expr, else Expr)


@dataclass(eq=False)
class New:
    var: Var
    cls: str


@dataclass(eq=False)
class Store:
    fname: str
    value: Expr
    obj: Expr | None = None  # None addresses the static region


@dataclass(eq=False)
class Load:
    var: Var
    fname: str
    obj: Expr | None = None


@dataclass(eq=False)
class Call:
    """var := callee(args). With a handler the call may unwind: the handler
    runs with var bound to the exception object, and both paths meet at a
    merge like an If."""

    var: Var
    callee: tuple  # (class, name, param types)
    args: list
    handler: list | None = None
    phis: list = field(default_factory=list)  # (Var, normal Expr, handler Expr)


@dataclass(eq=False)
class Return:
    value: Expr


@dataclass(eq=False)
class Throw:
    obj: Expr


@dataclass(eq=False)
class Method:
    sig: tuple  # (class, name, param types)
    body: list
    dead: list = field(default_factory=list)  # unreferenced expressions


@dataclass(eq=False)
class StructuredProgram:
    methods: list
    main: tuple

    def method(self, sig) -> Method:
        return next(m for m in self.methods if m.sig == sig)


# -- lowering to seanode/1 ---------------------------------------------------

def _sig_record(sig) -> dict:
    return {"class": sig[0], "name": sig[1], "params": list(sig[2])}


class _Lowering:
    def __init__(self):
        self.nodes: dict[int, tuple[str, dict]] = {}
        self.memo: dict[int, int] = {}  # id(expr) -> node id
        self.vars: dict[int, int] = {}  # id(Var) -> node id
        self.exits: dict[int, int] = {}  # id(Loop) -> LoopExitNode id
        self.next_id = 0

    def reserve(self) -> int:
        nid = self.next_id
        self.next_id += 1
        return nid

    def put(self, nid: int, kind: str, **fields) -> int:
        self.nodes[nid] = (kind, fields)
        return nid

    def new(self, kind: str, **fields) -> int:
        return self.put(self.reserve(), kind, **fields)

    def link(self, pending, target: int):
        nid, name = pending
        self.nodes[nid][1][name] = target

    def expr(self, e: Expr) -> int:
        key = id(e)
        if key in self.memo:
            return self.memo[key]
        if isinstance(e, Var):
            return self.vars[key]
        if isinstance(e, Const):
            nid = self.new("ConstantNode", const={"int": e.value})
        elif isinstance(e, Param):
            nid = self.new("ParameterNode", index=e.index)
        elif isinstance(e, Bin):
            x, y = self.expr(e.x), self.expr(e.y)
            nid = self.new(Bin.KINDS[e.op], x=x, y=y)
        elif isinstance(e, Neg):
            nid = self.new("NegateNode", value=self.expr(e.x))
        elif isinstance(e, Cond):
            c, t, f = self.expr(e.c), self.expr(e.t), self.expr(e.f)
            nid = self.new("ConditionalNode", condition=c, trueValue=t, falseValue=f)
        elif isinstance(e, Proxy):
            nid = self.new("ValueProxyNode", value=self.vars[id(e.var)],
                           loopExit=self.exits[id(e.loop)])
        else:
            raise TypeError(f"not an expression: {e!r}")
        self.memo[key] = nid
        return nid

    def control(self, kind: str, pending, **fields) -> int:
        nid = self.new(kind, **fields)
        self.link(pending, nid)
        return nid

    def stmts(self, body, pending):
        """Lower a statement list; returns the open (node, field) to continue
        from, or None when every path ended in a return or unwind."""
        for s in body:
            if pending is None:
                raise ValueError("statement after a terminator")
            pending = self.stmt(s, pending)
        return pending

    def split(self, node: int, succ_names, arms, phis):
        ends = []
        for name, arm in zip(succ_names, arms):
            begin = self.new("BeginNode", next=None)
            self.nodes[node][1][name] = begin
            ends.append(self.stmts(arm, (begin, "next")))
        open_ends = [p for p in ends if p is not None]
        if len(open_ends) < 2:
            if phis:
                raise ValueError("phis need both arms to fall through")
            return open_ends[0] if open_ends else None
        end_ids = [self.control("EndNode", p) for p in open_ends]
        merge = self.new("MergeNode", ends=end_ids, next=None)
        for var, *values in phis:
            pid = self.reserve()
            self.vars[id(var)] = pid
            self.put(pid, "ValuePhiNode", selfId=pid,
                     values=[self.expr(v) for v in values], merge=merge)
        return (merge, "next")

    def stmt(self, s, pending):
        if isinstance(s, New):
            nid = self.reserve()
            self.vars[id(s.var)] = nid
            self.put(nid, "NewInstanceNode", selfId=nid, instanceClass=s.cls, next=None)
            self.link(pending, nid)
            return (nid, "next")
        if isinstance(s, (Store, Load)):
            fields = {} if s.obj is None else {"objectOpt": self.expr(s.obj)}
            if isinstance(s, Store):
                fields["value"] = self.expr(s.value)
                kind = "StoreFieldNode"
            else:
                kind = "LoadFieldNode"
            nid = self.reserve()
            if isinstance(s, Load):
                self.vars[id(s.var)] = nid
            self.put(nid, kind, selfId=nid, field=s.fname, next=None, **fields)
            self.link(pending, nid)
            return (nid, "next")
        if isinstance(s, Return):
            self.control("ReturnNode", pending, resultOpt=self.expr(s.value))
            return None
        if isinstance(s, Throw):
            self.control("UnwindNode", pending, exception=self.expr(s.obj))
            return None
        if isinstance(s, If):
            node = self.control("IfNode", pending, condition=self.expr(s.cond),
                                trueSuccessor=None, falseSuccessor=None)
            return self.split(node, ("trueSuccessor", "falseSuccessor"),
                              (s.then, s.orelse), s.phis)
        if isinstance(s, Call):
            target = self.new("MethodCallTargetNode", targetMethod=_sig_record(s.callee),
                              arguments=[self.expr(a) for a in s.args])
            nid = self.reserve()
            self.vars[id(s.var)] = nid
            if s.handler is None:
                self.put(nid, "InvokeNode", selfId=nid, callTarget=target, next=None)
                self.link(pending, nid)
                return (nid, "next")
            self.put(nid, "InvokeWithExceptionNode", selfId=nid, callTarget=target,
                     next=None, exceptionEdge=None)
            self.link(pending, nid)
            return self.split(nid, ("next", "exceptionEdge"), ([], s.handler), s.phis)
        if isinstance(s, Loop):
            entry = self.control("EndNode", pending)
            back = self.reserve()
            header = self.new("LoopBeginNode", ends=[entry, back], next=None)
            phi_ids = []
            for var, _, _ in s.phis:
                pid = self.reserve()
                self.vars[id(var)] = pid
                phi_ids.append(pid)
            begin = self.control("BeginNode", (header, "next"), next=None)
            test = self.control("IfNode", (begin, "next"), condition=self.expr(s.cond),
                                trueSuccessor=None, falseSuccessor=None)
            body = self.control("BeginNode", (test, "trueSuccessor"), next=None)
            exit_ = self.control("LoopExitNode", (test, "falseSuccessor"),
                                 loopBegin=header, next=None)
            self.exits[id(s)] = exit_
            tail = self.stmts(s.body, (body, "next"))
            if tail is None:
                raise ValueError("loop body must fall through")
            self.put(back, "LoopEndNode", loopBegin=header)
            self.link(tail, back)
            for pid, (_, init, update) in zip(phi_ids, s.phis):
                self.put(pid, "ValuePhiNode", selfId=pid,
                         values=[self.expr(init), self.expr(update)], merge=header)
            return (exit_, "next")
        raise TypeError(f"not a statement: {s!r}")


def lower_method(m: Method) -> dict[int, tuple[str, dict]]:
    low = _Lowering()
    start = low.new("StartNode", next=None)
    if low.stmts(m.body, (start, "next")) is not None:
        raise ValueError(f"method {m.sig} can fall off its end")
    for e in m.dead:
        low.expr(e)
    return low.nodes


def to_text(p: StructuredProgram) -> str:
    """The seanode/1 text of a structured program."""
    methods = []
    for m in p.methods:
        nodes = lower_method(m)
        methods.append({
            "signature": _sig_record(m.sig),
            "nodes": [{"id": nid, "kind": kind, "fields": fields}
                      for nid, (kind, fields) in sorted(nodes.items())],
        })
    return json.dumps({"version": "seanode/1", "methods": methods})


def node_count(m: Method) -> int:
    return len(lower_method(m))


# -- oracle ------------------------------------------------------------------

@dataclass(frozen=True)
class Ref:
    ref: int


class _Thrown(Exception):
    def __init__(self, ref: Ref):
        super().__init__(ref)
        self.ref = ref


class _Returned(Exception):
    def __init__(self, value):
        super().__init__(value)
        self.value = value


@dataclass(frozen=True)
class Outcome:
    """What a run must produce: outcome name, returned value (an int, a Ref
    or None) and the final heap as sorted (address, field, value) triples
    with default (0) cells left out."""

    outcome: str
    value: object
    heap: tuple


class Oracle:
    """Plain-Python execution of a structured program."""

    def __init__(self, program: StructuredProgram):
        self.program = program
        self.heap: dict = {}
        self.free = 0

    def run(self, args) -> Outcome:
        self.heap, self.free = {}, 0
        limit = sys.getrecursionlimit()
        # Calls recurse hundreds of frames deep; each takes a few Python
        # frames here. The old limit is restored before seanode runs again.
        sys.setrecursionlimit(max(limit, 20_000))
        try:
            try:
                outcome, value = "Returned", self.call(self.program.main, list(args))
            except _Thrown as t:
                outcome, value = "UncaughtException", t.ref
        finally:
            sys.setrecursionlimit(limit)
        heap = tuple(sorted((a, f, v) for (a, f), v in self.heap.items() if v != 0))
        return Outcome(outcome, value, heap)

    def call(self, sig, args):
        env: dict = {}
        try:
            self.block(self.program.method(sig).body, env, args)
        except _Returned as r:
            return r.value
        raise ValueError(f"method {sig} fell off its end")

    def eval(self, e, env, params, memo=None):
        if memo is None:
            memo = {}
        key = id(e)
        if key in memo:
            return memo[key]
        if isinstance(e, Const):
            v = e.value
        elif isinstance(e, Param):
            v = params[e.index]
        elif isinstance(e, Var):
            v = env[key]
        elif isinstance(e, Proxy):
            v = env[id(e.var)]
        elif isinstance(e, Neg):
            v = wrap32(-self.eval(e.x, env, params, memo))
        elif isinstance(e, Bin):
            x = self.eval(e.x, env, params, memo)
            y = self.eval(e.y, env, params, memo)
            if e.op == "add":
                v = wrap32(x + y)
            elif e.op == "mul":
                v = wrap32(x * y)
            else:
                v = 1 if x < y else 0
        elif isinstance(e, Cond):
            c = self.eval(e.c, env, params, memo)
            v = self.eval(e.t if c != 0 else e.f, env, params, memo)
        else:
            raise TypeError(f"not an expression: {e!r}")
        memo[key] = v
        return v

    def _assign(self, pairs, env, params):
        # Phi updates are simultaneous: evaluate every value, then bind.
        values = [self.eval(e, env, params) for _, e in pairs]
        for (var, _), v in zip(pairs, values):
            env[id(var)] = v

    def block(self, body, env, params):
        for s in body:
            self.stmt(s, env, params)

    def _addr(self, obj, env, params):
        return STATIC_REF if obj is None else self.eval(obj, env, params).ref

    def stmt(self, s, env, params):
        if isinstance(s, New):
            env[id(s.var)] = Ref(self.free)
            self.free += 1
        elif isinstance(s, Store):
            value = self.eval(s.value, env, params)
            self.heap[(self._addr(s.obj, env, params), s.fname)] = value
        elif isinstance(s, Load):
            env[id(s.var)] = self.heap.get((self._addr(s.obj, env, params), s.fname), 0)
        elif isinstance(s, Return):
            raise _Returned(self.eval(s.value, env, params))
        elif isinstance(s, Throw):
            raise _Thrown(self.eval(s.obj, env, params))
        elif isinstance(s, If):
            taken = self.eval(s.cond, env, params) != 0
            self.block(s.then if taken else s.orelse, env, params)
            self._assign([(v, t if taken else f) for v, t, f in s.phis], env, params)
        elif isinstance(s, Call):
            args = [self.eval(a, env, params) for a in s.args]
            if s.handler is None:
                env[id(s.var)] = self.call(s.callee, args)
                return
            try:
                env[id(s.var)] = self.call(s.callee, args)
                normal = True
            except _Thrown as t:
                env[id(s.var)] = t.ref
                normal = False
            if not normal:
                self.block(s.handler, env, params)
            self._assign([(v, n if normal else h) for v, n, h in s.phis], env, params)
        elif isinstance(s, Loop):
            self._assign([(v, init) for v, init, _ in s.phis], env, params)
            while self.eval(s.cond, env, params) != 0:
                self.block(s.body, env, params)
                self._assign([(v, upd) for v, _, upd in s.phis], env, params)
        else:
            raise TypeError(f"not a statement: {s!r}")
