"""Signatures, terms, substitutions and equations.

Everything here is immutable and purely functional; terms are shared
freely between the analyses and the checkers.  Operator applications are
hash-consed, so their equality is identity: two `App` terms are equal
exactly when they are the same object.
"""
from __future__ import annotations

import functools
import gc
import itertools
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass
from typing import Iterator, Mapping


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


class App:
    """An operator applied to a tuple of argument terms.

    Hash-consed: constructing an App equal to one that is still alive
    returns that node, so structural equality is object identity, and
    `==` and `hash` use the identity of the node, however large the term.
    The intern table holds nodes weakly: a node's entry goes as it dies.
    Nodes are immutable.  Facts derived from the structure are computed
    once per node, from the children's: size, depth, closedness and the
    variables in first-occurrence order.

    Printed text is cached on the node printed and on its operator
    arguments, and no deeper: states printed one after another share
    their arguments, so the next state prints from its arguments' text,
    while the arguments' texts together are shorter than the node's, so
    the cache holds at most twice the text of the nodes printed.  Text on
    every subterm would grow with the square of a term's depth.
    """

    __slots__ = ("op", "args", "size", "depth", "closed", "vorder",
                 "_str", "__weakref__")

    op: str
    args: tuple
    size: int  # operator nodes
    depth: int
    closed: bool
    vorder: tuple[str, ...]  # variable names in leftmost first-occurrence order

    def __new__(cls, op: str, args: tuple = ()):
        key = (op, args)
        ref = _interned.get(key)
        if ref is not None and (node := ref()) is not None:
            return node
        size, depth, vorder = 1, 0, ()
        for a in args:
            if isinstance(a, App):
                size += a.size
                if a.depth > depth:
                    depth = a.depth
                vorder += a.vorder
            else:
                vorder += (a.name,)
        if len(vorder) > 1:
            vorder = tuple(dict.fromkeys(vorder))
        node = object.__new__(cls)
        put = object.__setattr__
        put(node, "op", op)
        put(node, "args", args)
        put(node, "size", size)
        put(node, "depth", depth + 1)
        put(node, "closed", not vorder)
        put(node, "vorder", vorder)
        put(node, "_str", None)
        with _intern_lock:
            ref = _interned.get(key)
            if ref is not None and (won := ref()) is not None:
                return won  # another thread made it first
            ref = _interned[key] = _Ref(node, _drop)
            ref.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError("App is immutable")

    def __delattr__(self, name):
        raise AttributeError("App is immutable")

    # rebuild through the constructor, so copies and unpickled terms are
    # the interned nodes themselves
    def __reduce__(self):
        return (App, (self.op, self.args))

    def __repr__(self) -> str:
        return "App(op=%r, args=%r)" % (self.op, self.args)

    def __str__(self) -> str:
        if self._str is None:
            for a in self.args:
                if isinstance(a, App) and a._str is None:
                    object.__setattr__(a, "_str", _print(a))
            text = self.op
            if self.args:
                text += "(" + ", ".join(map(str, self.args)) + ")"
            object.__setattr__(self, "_str", text)
        return self._str


def _print(t: App) -> str:
    """The text of t, reusing any cached text and caching none: iterative,
    since derivative terms can nest far beyond the stack limit."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Var):
            out.append(t.name)
        elif t._str is not None:
            out.append(t._str)
        elif not t.args:
            out.append(t.op)
        else:
            out.append(t.op + "(")
            stack.append(")")
            for i, a in enumerate(reversed(t.args)):
                stack.append(a)
                if i != len(t.args) - 1:
                    stack.append(", ")
    return "".join(out)


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the node's key in _interned


def _drop(ref: _Ref) -> None:
    # in one step, and only while the entry is dead: the key may live again.
    # Never under _intern_lock, since a node can die inside the locked region
    _remove_dead_weakref(_interned, ref.key)


# (op, args) -> a weak reference to the live node; entries drain as terms
# die, when the reference calls back `_drop`.  The lock guards insertions
_interned: dict[tuple, _Ref] = {}
_intern_lock = threading.Lock()


def _gc_paused(fn):
    """fn, run with the cyclic collector paused.

    Nothing opensos builds forms a reference cycle: a node only points at
    older nodes, and the memo tables, ruloids and verdicts only at terms
    and plain data.  Reference counting frees all of it, and a collection
    during a question would only rescan those acyclic heaps.  So each
    public question disables the collector while it runs and enables it
    again on the way out, also when it raises.  If the collector is
    already off, paused by an outer question or by the caller, fn runs as
    is: the pause never turns the collector on for a caller who had it
    off, and never leaves it off.  Questions in other threads share the
    one collector switch, so there the worst case is that a pause ends
    early, when the question that began it returns first.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


Term = Var | App

Subst = Mapping[str, Term]


class SignatureError(ValueError):
    pass


@dataclass(frozen=True)
class Signature:
    """Operator names with fixed arities."""

    operators: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen: dict[str, int] = {}
        for name, arity in self.operators:
            if arity < 0:
                raise SignatureError("negative arity for %r" % name)
            if name in seen and seen[name] != arity:
                raise SignatureError(
                    "operator %r redeclared with arity %d (was %d)"
                    % (name, arity, seen[name])
                )
            seen[name] = arity

    @staticmethod
    def of(ops: Mapping[str, int]) -> "Signature":
        return Signature(tuple(sorted(ops.items())))

    def arity(self, op: str) -> int:
        for name, arity in self.operators:
            if name == op:
                return arity
        raise SignatureError("undeclared operator %r" % op)

    def __contains__(self, op: str) -> bool:
        return any(name == op for name, _ in self.operators)

    def as_dict(self) -> dict[str, int]:
        return dict(self.operators)

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, _ in self.operators))

    def constants(self) -> tuple[str, ...]:
        return tuple(sorted(name for name, a in self.operators if a == 0))

    def merge(self, other: "Signature") -> "Signature":
        ops = self.as_dict()
        for name, arity in other.operators:
            if name in ops and ops[name] != arity:
                raise SignatureError(
                    "arity conflict for %r: %d vs %d" % (name, ops[name], arity)
                )
            ops[name] = arity
        return Signature.of(ops)


def check_term(t: Term, sig: Signature) -> None:
    """Raise SignatureError if t is not well-formed over sig."""
    if isinstance(t, Var):
        if t.name in sig:
            raise SignatureError("variable %r collides with an operator" % t.name)
        return
    n = sig.arity(t.op)
    if n != len(t.args):
        raise SignatureError(
            "operator %r expects %d arguments, got %d" % (t.op, n, len(t.args))
        )
    for a in t.args:
        check_term(a, sig)


def var_occurrences(t: Term) -> list[str]:
    """Variable names in leftmost depth-first order, with repetitions."""
    if isinstance(t, Var):
        return [t.name]
    out: list[str] = []
    for a in t.args:
        out.extend(var_occurrences(a))
    return out


def var_order(t: Term) -> tuple[str, ...]:
    """Variable names in leftmost first-occurrence order, without repetitions."""
    return t.vorder if isinstance(t, App) else (t.name,)


def vars_of(t: Term) -> frozenset[str]:
    return frozenset(var_order(t))


def is_closed(t: Term) -> bool:
    return isinstance(t, App) and t.closed


def term_size(t: Term) -> int:
    """Number of operator nodes; variables cost nothing."""
    return t.size if isinstance(t, App) else 0


def is_linear(t: Term) -> bool:
    occs = var_occurrences(t)
    return len(occs) == len(set(occs))


def apply_subst(sigma: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if t.closed:
        return t
    return _subst(sigma, t, {})


def _subst(sigma: Subst, t: App, memo: dict[App, Term]) -> Term:
    # memoized per shared subterm: derivative terms are heavily shared DAGs,
    # and plain structural recursion revisits each shared node once per path.
    # A function of its own, not a closure over the memo: a closure that
    # calls itself is a reference cycle, which keeps the memo and every node
    # it built alive until the cyclic collector runs
    done = memo.get(t)
    if done is None:
        args = []
        for a in t.args:
            if isinstance(a, Var):
                a = sigma.get(a.name, a)
            elif not a.closed:
                a = _subst(sigma, a, memo)
            args.append(a)
        done = memo[t] = App(t.op, tuple(args))
    return done


def canonical_names(n: int, avoid: frozenset[str] = frozenset(),
                    prefix: str = "v") -> list[str]:
    names: list[str] = []
    i = 0
    while len(names) < n:
        name = "%s%d" % (prefix, i)
        if name not in avoid:
            names.append(name)
        i += 1
    return names


def canonical_rename(t: Term) -> tuple[Term, dict[str, str]]:
    """Rename variables to v0, v1, ... by first occurrence order.

    Returns the renamed term and the bijective renaming used.
    Idempotent on already-canonical terms.
    """
    order = list(var_order(t))
    fresh = canonical_names(len(order))
    if fresh == order:
        return t, {name: name for name in order}
    renaming = dict(zip(order, fresh))
    return apply_subst({x: Var(y) for x, y in renaming.items()}, t), renaming


def _compositions(total: int, parts: int, minimum: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


def _terms_by_size(sig: Signature, max_size: int,
                   leaves: tuple[Term, ...]) -> list[list[Term]]:
    by_size: list[list[Term]] = [list(leaves)]
    for size in range(1, max_size + 1):
        bucket: list[Term] = []
        for name, arity in sorted(sig.operators):
            if arity == 0:
                if size == 1:
                    bucket.append(App(name))
                continue
            minimum = 0 if leaves else 1
            for split in _compositions(size - 1, arity, minimum):
                pools = [by_size[s] for s in split]
                for args in itertools.product(*pools):
                    bucket.append(App(name, args))
        by_size.append(bucket)
    return by_size


def enumerate_closed_terms(sig: Signature, max_size: int) -> Iterator[Term]:
    """All closed terms with at most max_size operator nodes.

    Deterministic size-lexicographic order; empty iff sig has no constants.
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    for bucket in _terms_by_size(sig, max_size, ()):
        yield from bucket


def enumerate_open_terms(sig: Signature, max_size: int,
                         variables: tuple[str, ...]) -> Iterator[Term]:
    """All terms over sig whose variables are drawn from the given pool."""
    leaves = tuple(Var(v) for v in variables)
    for bucket in _terms_by_size(sig, max_size, leaves):
        yield from bucket


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term
    name: str | None = None
    over: str | None = None  # name of the TSS the equation is pinned to

    @property
    def is_proper(self) -> bool:
        return not isinstance(self.lhs, Var) and not isinstance(self.rhs, Var)

    def __str__(self) -> str:
        return "%s = %s" % (self.lhs, self.rhs)
