"""Reference oracle for the benchmark, written apart from `ruloids` and `bisim`.

Terms given to and taken from the oracle are plain patterns: a variable is
its name (a `str`), an application is a tuple `(op, args)`.  Inside an
`Oracle`, closed terms are interned as integers, so a term of any depth
hashes and compares in constant time.  From the parsed rules alone the
oracle derives closed-term transitions, decides strong bisimilarity on
finite LTSs by a naive greatest fixpoint, counts closed terms by size, and
replays the witnesses the program gives with its `fails` verdicts.
"""
from __future__ import annotations

import itertools
import re


def from_program(t):
    """Convert a program term (`Var` / `App`) into a pattern."""
    if hasattr(t, "op"):
        return (t.op, tuple(from_program(a) for a in t.args))
    return t.name


def variables(t) -> set[str]:
    if isinstance(t, str):
        return {t}
    out: set[str] = set()
    for a in t[1]:
        out |= variables(a)
    return out


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[(),])")


def read_term(text: str, ops: dict[str, int]):
    """Parse a printed term; identifiers that are not operators are variables."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError("cannot read term %r" % text)
    pos = 0

    def term():
        nonlocal pos
        name = tokens[pos]
        pos += 1
        if pos < len(tokens) and tokens[pos] == "(":
            pos += 1
            args = [term()]
            while tokens[pos] == ",":
                pos += 1
                args.append(term())
            if tokens[pos] != ")":
                raise ValueError("cannot read term %r" % text)
            pos += 1
            return (name, tuple(args))
        return (name, ()) if name in ops else name

    t = term()
    if pos != len(tokens):
        raise ValueError("cannot read term %r" % text)
    return t


class Oracle:
    """Closed-term semantics of one TSS, from its rules and signature.

    Past its caps (reachable states, term size and depth, candidate pairs)
    the oracle gives no answer rather than search on.
    """

    STATE_CAP = 5_000
    SIZE_CAP = 1_000
    DEPTH_CAP = 200
    PAIR_CAP = 100_000

    def __init__(self, ops: dict[str, int], labels, rules):
        self.ops = dict(ops)
        self.labels = tuple(labels)
        self.by_head: dict[str, list] = {}
        for r in rules:
            op, params = from_program(r.conclusion.source)
            prems = [(from_program(p.source), p.label, from_program(p.target))
                     for p in r.premises]
            self.by_head.setdefault(op, []).append(
                (params, prems, r.conclusion.label,
                 from_program(r.conclusion.target)))
        self.nodes: list[tuple[str, tuple[int, ...]]] = []
        self.sizes: list[int] = []
        self.depths: list[int] = []
        self._ids: dict = {}
        self._succ: dict[int, frozenset] = {}
        self._shown: dict[int, str] = {}

    # -- interned terms -----------------------------------------------------

    def mk(self, op: str, args: tuple[int, ...]) -> int:
        key = (op, args)
        i = self._ids.get(key)
        if i is None:
            i = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.sizes.append(1 + sum(self.sizes[a] for a in args))
            self.depths.append(1 + max((self.depths[a] for a in args), default=0))
        return i

    def intern(self, pattern, env: dict | None = None) -> int:
        """The closed term a pattern denotes, its variables bound by env."""
        if isinstance(pattern, str):
            if env is None or pattern not in env:
                raise ValueError("variable %s is not closed" % pattern)
            return env[pattern]
        return self.mk(pattern[0], tuple(self.intern(a, env) for a in pattern[1]))

    def show(self, i: int) -> str:
        done = self._shown.get(i)
        if done is None:
            op, args = self.nodes[i]
            done = "%s(%s)" % (op, ", ".join(map(self.show, args))) if args else op
            self._shown[i] = done
        return done

    # -- transitions ------------------------------------------------------

    def succ(self, p: int) -> frozenset:
        """All (label, target) pairs derivable for the closed term p."""
        done = self._succ.get(p)
        if done is not None:
            return done
        op, args = self.nodes[p]
        out = set()
        for params, prems, label, target in self.by_head.get(op, ()):
            binding = dict(zip(params, args))
            for env in self._discharge(prems, binding):
                out.add((label, self.intern(target, env)))
        done = frozenset(out)
        self._succ[p] = done
        return done

    def _discharge(self, prems, env):
        if not prems:
            yield env
            return
        (src, label, tgt), rest = prems[0], prems[1:]
        for l, q in self.succ(self.intern(src, env)):
            if l != label:
                continue
            if isinstance(tgt, str) and tgt not in env:
                yield from self._discharge(rest, {**env, tgt: q})
            elif self.intern(tgt, env) == q:
                yield from self._discharge(rest, env)

    def branching(self, p: int) -> int:
        """The most derivations p has for one label, counted without building
        them: a rule contributes the product of its premises' counts."""
        memo: dict = {}

        def count(u, label):
            key = (u, label)
            if key not in memo:
                op, args = self.nodes[u]
                total = 0
                for params, prems, l, _ in self.by_head.get(op, ()):
                    if l != label:
                        continue
                    env = dict(zip(params, args))
                    n = 1
                    for src, pl, _ in prems:
                        n *= count(env[src], pl) if src in env else 1
                    total += n
                memo[key] = total
            return memo[key]

        return max((count(p, l) for l in self.labels), default=0)

    def tame(self, roots, depth: int, states: int, bound: int) -> bool:
        """Whether every state within `depth` steps of the roots (the first
        `states` of them, breadth first) has at most `bound` derivations
        per label and stays within the oracle's term caps."""
        seen = set(roots)
        frontier = list(roots)
        for _ in range(depth + 1):
            nxt = []
            for s in frontier:
                if self.branching(s) > bound or self._too_big(s):
                    return False
                for _, s2 in self.succ(s):
                    if s2 not in seen and len(seen) < states:
                        seen.add(s2)
                        nxt.append(s2)
            frontier = nxt
        return True

    def _too_big(self, s: int) -> bool:
        return self.sizes[s] > self.SIZE_CAP or self.depths[s] > self.DEPTH_CAP

    # -- finite LTSs and bisimilarity --------------------------------------

    def reachable(self, p: int) -> set | None:
        """The states reachable from p, or None past the oracle's caps."""
        seen = {p}
        todo = [p]
        while todo:
            s = todo.pop()
            for _, s2 in self.succ(s):
                if s2 in seen:
                    continue
                if len(seen) >= self.STATE_CAP or self._too_big(s2):
                    return None
                seen.add(s2)
                todo.append(s2)
        return seen

    def bisimilar(self, p: int, q: int) -> bool | None:
        """Strong bisimilarity of closed p and q; None if either LTS or the
        pair space is beyond the caps.

        The candidate relation is every pair reachable from (p, q) by equal
        labels; pairs that break the transfer condition are dropped until
        nothing changes (a naive greatest fixpoint).
        """
        if self.reachable(p) is None or self.reachable(q) is None:
            return None
        pairs = {(p, q)}
        todo = [(p, q)]
        while todo:
            s, t = todo.pop()
            for l, s2 in self.succ(s):
                for l2, t2 in self.succ(t):
                    if l == l2 and (s2, t2) not in pairs:
                        if len(pairs) >= self.PAIR_CAP:
                            return None
                        pairs.add((s2, t2))
                        todo.append((s2, t2))
        rel = set(pairs)

        def matched(a, b, flip):
            for l, a2 in self.succ(a):
                if not any(l == l2 and ((b2, a2) if flip else (a2, b2)) in rel
                           for l2, b2 in self.succ(b)):
                    return False
            return True

        changed = True
        while changed:
            changed = False
            for s, t in list(rel):
                if not (matched(s, t, False) and matched(t, s, True)):
                    rel.discard((s, t))
                    changed = True
        return (p, q) in rel

    # -- witnesses ----------------------------------------------------------

    def replay_strong(self, tree: dict, p: int, q: int) -> str | None:
        """Check a distinguishing move tree for the pair (p, q).

        Every move must be a real transition, and the responses must be
        exactly the defender's same-label successors.  Returns None when the
        tree is valid, else what is wrong with it.
        """
        attacker, defender = (p, q) if tree["side"] == "left" else (q, p)
        if self.show(attacker) != tree["from"]:
            return "tree starts at %s, not %s" % (tree["from"],
                                                  self.show(attacker))
        label = tree["label"]
        moved = [a2 for l, a2 in self.succ(attacker)
                 if l == label and self.show(a2) == tree["move"]]
        if not moved:
            return "%s has no move -%s-> %s" % (self.show(attacker), label,
                                                tree["move"])
        answers = {self.show(d2): d2
                   for l, d2 in self.succ(defender) if l == label}
        given = [r["to"] for r in tree["responses"]]
        if sorted(given) != sorted(answers):
            return "responses %s do not cover %s" % (given, sorted(answers))
        for r in tree["responses"]:
            why = self.replay_strong(r["then"], moved[0], answers[r["to"]])
            if why:
                return why
        return None

    def replay_ci(self, witness: dict, s, t) -> str | None:
        """Check a ci witness for the open patterns s and t: its instance is
        not bisimilar, and its distinguisher replays on that instance."""
        sigma = {x: self.intern(read_term(v, self.ops))
                 for x, v in witness["sigma"].items()}
        if set(sigma) != variables(s) | variables(t):
            return "sigma %s does not close both sides" % sorted(sigma)
        s2, t2 = self.intern(s, sigma), self.intern(t, sigma)
        if [self.show(s2), self.show(t2)] != list(witness["instance"]):
            return "instance %s is not sigma applied" % witness["instance"]
        if self.bisimilar(s2, t2):
            return "instance %s ~ %s is bisimilar" % tuple(witness["instance"])
        return self.replay_strong(witness["distinguisher"], s2, t2)


def replay_game(witness: dict) -> str | None:
    """An fh/hp witness trace must end in an unmatched or improper step."""
    trace = witness.get("trace") or []
    if not trace:
        return "empty trace"
    last = trace[-1]
    if last.get("unmatched") or "improper" in last.get("obligation", {}):
        return None
    return "trace ends in neither an unmatched nor an improper step"


def closed_counts(ops: dict[str, int], max_size: int) -> list[int]:
    """counts[n] is the number of closed terms with exactly n operators.

    N(1) is the number of constants; for n > 1 each operator f of arity k
    contributes the number of k-tuples of closed terms whose sizes sum to
    n - 1, built by repeated convolution of N with itself.
    """
    counts = [0] * (max_size + 1)
    for n in range(1, max_size + 1):
        total = sum(1 for k in ops.values() if k == 0) if n == 1 else 0
        for k in ops.values():
            if k == 0:
                continue
            # tuples[m] = number of j-tuples with sizes summing to m
            tuples = [1] + [0] * (n - 1)
            for _ in range(k):
                tuples = [sum(tuples[m - s] * counts[s] for s in range(1, m + 1))
                          for m in range(n)]
            total += tuples[n - 1]
        counts[n] = total
    return counts


def closing_substitutions(ops: dict[str, int], term_size: int,
                          nvars: int) -> int:
    """Closing substitutions whose images have at most term_size operators."""
    return sum(closed_counts(ops, term_size)) ** nvars


def _splits(total: int, parts: int):
    """Ways to write total as an ordered sum of `parts` positive sizes."""
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _splits(total - first, parts - 1):
            yield (first,) + rest


def closed_terms(ops: dict[str, int], max_size: int) -> list:
    """Every closed term (as a pattern) with at most max_size operators."""
    by_size: list[list] = [[]]
    for n in range(1, max_size + 1):
        bucket = []
        for op, k in sorted(ops.items()):
            if k == 0:
                if n == 1:
                    bucket.append((op, ()))
                continue
            for split in _splits(n - 1, k):
                for args in itertools.product(*(by_size[s] for s in split)):
                    bucket.append((op, args))
        by_size.append(bucket)
    return [t for bucket in by_size for t in bucket]
