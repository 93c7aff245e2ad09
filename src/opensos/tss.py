"""Transition system specifications and positive GSOS rule shapes."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .terms import App, Signature, Term, Var, vars_of


@dataclass(frozen=True)
class Trans:
    """A transition formula: source -label-> target."""

    source: Term
    label: str
    target: Term

    def __str__(self) -> str:
        return "%s -%s-> %s" % (self.source, self.label, self.target)


@dataclass(frozen=True)
class Rule:
    name: str
    premises: tuple[Trans, ...]
    conclusion: Trans

    def __str__(self) -> str:
        prem = ", ".join(str(p) for p in self.premises)
        return "%s|- %s" % (prem + " " if prem else "", self.conclusion)


class FormatViolation(ValueError):
    """A rule does not fit the positive GSOS shape."""


@dataclass(frozen=True)
class GsosShape:
    """Destructured positive GSOS rule: f(x1..xn) with premises on the xi."""

    op: str
    source_vars: tuple[str, ...]
    # premises grouped as (argument index, label, target variable)
    premises: tuple[tuple[int, str, str], ...]
    label: str
    target: Term


def destructure_rule(rule: Rule) -> GsosShape:
    """Check the positive GSOS shape of a rule, or raise FormatViolation."""
    concl = rule.conclusion
    src = concl.source
    if not isinstance(src, App):
        raise FormatViolation(
            "rule %r: conclusion source must be an operator application" % rule.name
        )
    xs: list[str] = []
    for a in src.args:
        if not isinstance(a, Var):
            raise FormatViolation(
                "rule %r: conclusion source arguments must be variables" % rule.name
            )
        xs.append(a.name)
    if len(set(xs)) != len(xs):
        raise FormatViolation("rule %r: repeated source variable" % rule.name)
    seen = set(xs)
    prems: list[tuple[int, str, str]] = []
    for p in rule.premises:
        if not isinstance(p.source, Var) or p.source.name not in xs:
            raise FormatViolation(
                "rule %r: premise source must be an argument variable" % rule.name
            )
        if not isinstance(p.target, Var):
            raise FormatViolation(
                "rule %r: premise target must be a variable" % rule.name
            )
        if p.target.name in seen:
            raise FormatViolation(
                "rule %r: premise target %r is not fresh" % (rule.name, p.target.name)
            )
        seen.add(p.target.name)
        prems.append((xs.index(p.source.name), p.label, p.target.name))
    escape = vars_of(concl.target) - seen
    if escape:
        raise FormatViolation(
            "rule %r: conclusion target uses unbound variables %s"
            % (rule.name, sorted(escape))
        )
    return GsosShape(src.op, tuple(xs), tuple(prems), concl.label, concl.target)


def rule_head(rule: Rule) -> str | None:
    """Head operator of the conclusion source, if any (f-defining for it)."""
    src = rule.conclusion.source
    return src.op if isinstance(src, App) else None


@dataclass(eq=False)
class Tss:
    """A TSS layer: own signature/labels/rules plus an optional base layer.

    The semantic TSS is always the cumulative union over the base chain
    (disjoint-extension layering); the own fields hold only the delta.
    """

    name: str
    signature: Signature
    labels: tuple[str, ...]
    rules: tuple[Rule, ...]
    base: "Tss | None" = None
    _memo: dict = field(default_factory=dict, repr=False)

    def layers(self) -> Iterator["Tss"]:
        if self.base is not None:
            yield from self.base.layers()
        yield self

    @property
    def all_signature(self) -> Signature:
        key = "all_signature"
        if key not in self._memo:
            sig = Signature(())
            for layer in self.layers():
                sig = sig.merge(layer.signature)
            self._memo[key] = sig
        return self._memo[key]

    @property
    def all_labels(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for layer in self.layers():
            for l in layer.labels:
                seen[l] = None
        return tuple(sorted(seen))

    @property
    def all_rules(self) -> tuple[Rule, ...]:
        out: list[Rule] = []
        for layer in self.layers():
            out.extend(layer.rules)
        return tuple(out)

    def defining_rules(self, op: str) -> tuple[Rule, ...]:
        key = ("defining", op)
        if key not in self._memo:
            self._memo[key] = tuple(
                r for r in self.all_rules if rule_head(r) == op
            )
        return self._memo[key]

    def defining_shapes(self, op: str) -> tuple[GsosShape, ...]:
        """The GSOS shapes of `defining_rules(op)`, in the same order."""
        key = ("defining-shapes", op)
        if key not in self._memo:
            self._memo[key] = tuple(
                self.shape(r) for r in self.defining_rules(op)
            )
        return self._memo[key]

    def shape(self, rule: Rule) -> GsosShape:
        key = ("shape", rule)
        if key not in self._memo:
            self._memo[key] = destructure_rule(rule)
        return self._memo[key]
