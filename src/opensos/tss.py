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
    """Check the positive GSOS shape of a rule, or raise FormatViolation
    saying what is wrong (the caller names the rule)."""
    concl = rule.conclusion
    src = concl.source
    if not isinstance(src, App):
        raise FormatViolation(
            "conclusion source must be an operator application")
    xs: list[str] = []
    for a in src.args:
        if not isinstance(a, Var):
            raise FormatViolation(
                "conclusion source arguments must be variables")
        xs.append(a.name)
    if len(set(xs)) != len(xs):
        raise FormatViolation("repeated source variable")
    seen = set(xs)
    prems: list[tuple[int, str, str]] = []
    for p in rule.premises:
        if not isinstance(p.source, Var) or p.source.name not in xs:
            raise FormatViolation(
                "premise source must be an argument variable")
        if not isinstance(p.target, Var):
            raise FormatViolation("premise target must be a variable")
        if p.target.name in seen:
            raise FormatViolation(
                "premise target %r is not fresh" % p.target.name)
        seen.add(p.target.name)
        prems.append((xs.index(p.source.name), p.label, p.target.name))
    escape = vars_of(concl.target) - seen
    if escape:
        raise FormatViolation(
            "conclusion target uses unbound variables %s" % sorted(escape))
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

    def _rule_table(self) -> tuple[dict[str, tuple[GsosShape, ...]],
                                   tuple[tuple[str, str], ...]]:
        """One pass over `all_rules`, on first use: the GSOS shapes by
        operator in declaration order, and (rule name, reason) for every
        rule outside the format."""
        table = self._memo.get("rule-table")
        if table is None:
            shapes: dict[str, tuple[GsosShape, ...]] = {}
            violations = []
            for rule in self.all_rules:
                try:
                    shape = destructure_rule(rule)
                except FormatViolation as exc:
                    violations.append((rule.name, str(exc)))
                else:
                    shapes[shape.op] = shapes.get(shape.op, ()) + (shape,)
            table = self._memo["rule-table"] = (shapes, tuple(violations))
        return table

    @property
    def format_violations(self) -> tuple[tuple[str, str], ...]:
        """(rule name, reason) of each rule outside positive GSOS."""
        return self._rule_table()[1]

    def shape_table(self) -> dict[str, tuple[GsosShape, ...]]:
        """The GSOS shapes of the rules by the operator they define, in
        declaration order.

        Every result of the theory assumes positive GSOS, so a TSS with any
        rule outside the format is refused here, whichever operator is asked.
        """
        shapes, violations = self._rule_table()
        if violations:
            raise FormatViolation("rule %r: %s" % violations[0])
        return shapes
