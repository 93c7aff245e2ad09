"""Parser and pretty-printer for the specification DSL.

Grammar (whitespace and "#..." comments insignificant):

    document   := (tssdecl | eqdecl)* ;
    tssdecl    := "tss" IDENT ("extends" IDENT)? "{"
                      "labels" ":" IDENT ("," IDENT)* ";" item* "}" ;
    item       := "op" IDENT "/" NAT ";"
                | "rule" STRING ("forall" IDENT)? ":" premises? "|-" trans ";" ;
    premises   := trans ("," trans)* ;
    trans      := term "-" IDENT "->" term ;
    term       := IDENT | IDENT "(" (term ("," term)*)? ")" ;
    eqdecl     := "eq" STRING ":" term "=" term ("@" IDENT)? ";"

"forall l" expands the rule into one concrete rule per declared label,
substituting l wherever it is used as a transition label.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .terms import App, Equation, Signature, SignatureError, Term, Var
from .tss import Rule, Trans, Tss


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<string>"[^"\n]*")
  | (?P<nat>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>\|\-|->|[{}(),;:/=@\-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "string" | "nat" | "ident" | "punct" | "eof"
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# raw term tree before operator/variable classification
_Raw = tuple  # (name, tuple[_Raw, ...] | None, line, col)


@dataclass
class SpecDocument:
    tss_decls: list[Tss] = field(default_factory=list)
    equations: list[Equation] = field(default_factory=list)

    def tss(self, name: str) -> Tss:
        for t in self.tss_decls:
            if t.name == name:
                return t
        raise KeyError("no TSS named %r" % name)

    def to_json(self) -> dict:
        return {
            "tss": [
                {
                    "name": t.name,
                    "extends": t.base.name if t.base else None,
                    "labels": sorted(t.labels),
                    "ops": {name: arity for name, arity in t.signature.operators},
                    "rules": [
                        {
                            "name": r.name,
                            "premises": [
                                {"source": str(p.source), "label": p.label,
                                 "target": str(p.target)}
                                for p in r.premises
                            ],
                            "conclusion": {
                                "source": str(r.conclusion.source),
                                "label": r.conclusion.label,
                                "target": str(r.conclusion.target),
                            },
                        }
                        for r in t.rules
                    ],
                }
                for t in self.tss_decls
            ],
            "eqs": [
                {"name": e.name, "lhs": str(e.lhs), "rhs": str(e.rhs),
                 "tss": e.over}
                for e in self.equations
            ],
        }


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise self.error("expected %r, found %r" % (want, tok.text or "<eof>"))
        return self.next()

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind == kind and (text is None or tok.text == text):
            return self.next()
        return None

    # ---- raw terms -------------------------------------------------------

    def raw_term(self) -> _Raw:
        tok = self.expect("ident")
        if self.accept("punct", "("):
            args: list[_Raw] = []
            if not self.accept("punct", ")"):
                args.append(self.raw_term())
                while self.accept("punct", ","):
                    args.append(self.raw_term())
                self.expect("punct", ")")
            return (tok.text, tuple(args), tok.line, tok.col)
        return (tok.text, None, tok.line, tok.col)

    def raw_trans(self) -> tuple[_Raw, Token, _Raw]:
        src = self.raw_term()
        self.expect("punct", "-")
        label = self.expect("ident")
        self.expect("punct", "->")
        tgt = self.raw_term()
        return src, label, tgt

    # ---- document --------------------------------------------------------

    def document(self) -> SpecDocument:
        doc = SpecDocument()
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return doc
            if tok.kind == "ident" and tok.text == "tss":
                self.tss_decl(doc)
            elif tok.kind == "ident" and tok.text == "eq":
                self.eq_decl(doc)
            else:
                raise self.error("expected 'tss' or 'eq' declaration")

    def tss_decl(self, doc: SpecDocument) -> None:
        kw = self.expect("ident", "tss")
        name = self.expect("ident").text
        if any(t.name == name for t in doc.tss_decls):
            raise self.error("duplicate declaration of %r" % name, kw)
        base: Tss | None = None
        if self.accept("ident", "extends"):
            base_tok = self.expect("ident")
            try:
                base = doc.tss(base_tok.text)
            except KeyError:
                raise self.error("undeclared base TSS %r" % base_tok.text, base_tok)
        self.expect("punct", "{")
        self.expect("ident", "labels")
        self.expect("punct", ":")
        labels: list[str] = []
        if self.peek().kind == "ident":
            labels.append(self.expect("ident").text)
            while self.accept("punct", ","):
                labels.append(self.expect("ident").text)
        self.expect("punct", ";")

        ops: dict[str, int] = {}  # this layer's own declarations
        sig = base.all_signature if base else Signature(())
        all_labels = set(labels) | (set(base.all_labels) if base else set())
        rules: list[Rule] = []
        while not self.accept("punct", "}"):
            tok = self.peek()
            if self.accept("ident", "op"):
                op_tok = self.expect("ident")
                self.expect("punct", "/")
                arity = int(self.expect("nat").text)
                self.expect("punct", ";")
                try:
                    sig = Signature(sig.operators + ((op_tok.text, arity),))
                except SignatureError as exc:
                    raise self.error(str(exc), op_tok)
                ops[op_tok.text] = arity
            elif self.accept("ident", "rule"):
                rule_tok = self.expect("string")
                rname = rule_tok.text[1:-1]
                meta: str | None = None
                if self.accept("ident", "forall"):
                    meta = self.expect("ident").text
                self.expect("punct", ":")
                premises: list[tuple[_Raw, Token, _Raw]] = []
                if not self.accept("punct", "|-"):
                    premises.append(self.raw_trans())
                    while self.accept("punct", ","):
                        premises.append(self.raw_trans())
                    self.expect("punct", "|-")
                concl = self.raw_trans()
                self.expect("punct", ";")
                if meta is None:
                    rules.append(self._build_rule(
                        rname, premises, concl, sig, all_labels, None, None))
                else:
                    for label in sorted(all_labels):
                        rules.append(self._build_rule(
                            "%s[%s]" % (rname, label), premises, concl,
                            sig, all_labels, meta, label))
            else:
                raise self.error("expected 'op', 'rule' or '}'", tok)
        tss = Tss(name, Signature.of(ops), tuple(sorted(set(labels))),
                  tuple(rules), base)
        doc.tss_decls.append(tss)

    def _build_rule(self, name, premises, concl, sig, labels,
                    meta: str | None, meta_label: str | None) -> Rule:
        def label_of(tok: Token) -> str:
            text = tok.text
            if meta is not None and text == meta:
                text = meta_label
            if text not in labels:
                raise ParseError("undeclared label %r" % text, tok.line, tok.col)
            return text

        ptrans = tuple(
            Trans(self._resolve(s, sig), label_of(l), self._resolve(t, sig))
            for (s, l, t) in premises
        )
        cs, cl, ct = concl
        conclusion = Trans(self._resolve(cs, sig), label_of(cl),
                           self._resolve(ct, sig))
        return Rule(name, ptrans, conclusion)

    def _resolve(self, raw: _Raw, sig: Signature) -> Term:
        name, args, line, col = raw
        if args is None:
            if name in sig:
                if sig.arity(name) != 0:
                    raise ParseError(
                        "operator %r of arity %d used without arguments"
                        % (name, sig.arity(name)), line, col)
                return App(name)
            return Var(name)
        if name not in sig:
            raise ParseError("undeclared operator %r" % name, line, col)
        if sig.arity(name) != len(args):
            raise ParseError(
                "operator %r expects %d arguments, got %d"
                % (name, sig.arity(name), len(args)), line, col)
        return App(name, tuple(self._resolve(a, sig) for a in args))

    def eq_decl(self, doc: SpecDocument) -> None:
        kw = self.expect("ident", "eq")
        name_tok = self.expect("string")
        name = name_tok.text[1:-1]
        self.expect("punct", ":")
        lhs = self.raw_term()
        self.expect("punct", "=")
        rhs = self.raw_term()
        over: Tss | None = None
        if self.accept("punct", "@"):
            over_tok = self.expect("ident")
            try:
                over = doc.tss(over_tok.text)
            except KeyError:
                raise self.error("undeclared TSS %r" % over_tok.text, over_tok)
        elif doc.tss_decls:
            over = doc.tss_decls[-1]
        else:
            raise self.error("equation before any TSS declaration", kw)
        self.expect("punct", ";")
        sig = over.all_signature
        doc.equations.append(Equation(
            self._resolve(lhs, sig), self._resolve(rhs, sig), name, over.name))


def parse(text: str) -> SpecDocument:
    return _Parser(text).document()


def parse_term(text: str, tss: Tss) -> Term:
    """Parse a single term from the command line against a TSS's signature."""
    parser = _Parser(text)
    raw = parser.raw_term()
    parser.expect("eof")
    return parser._resolve(raw, tss.all_signature)


def print_document(doc: SpecDocument) -> str:
    """Canonical pretty-printed form; parse(print_document(d)) == d."""
    out = ["# opensos specification"]
    for t in doc.tss_decls:
        head = "tss %s" % t.name
        if t.base is not None:
            head += " extends %s" % t.base.name
        out.append("%s {" % head)
        out.append("  labels: %s;" % ", ".join(t.labels))
        for name, arity in t.signature.operators:
            out.append("  op %s/%d;" % (name, arity))
        for r in t.rules:
            out.append('  rule "%s": %s;' % (r.name, r))
        out.append("}")
    for e in doc.equations:
        pin = " @ %s" % e.over if e.over else ""
        out.append('eq "%s": %s = %s%s;' % (e.name or "", e.lhs, e.rhs, pin))
    return "\n".join(out) + "\n"
