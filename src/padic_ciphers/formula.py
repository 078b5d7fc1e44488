"""Formulas over the cipher operations, and their encrypted evaluation.

Grammar (whitespace insensitive)::

    expr   := term {"+" term}
    term   := factor {"*" factor}
    factor := NAME | INTEGER | NAME "(" expr "," expr ")" | "(" expr ")"

Call names: XOR, AND, G1, G2, G3, G4, GLIN, and STAR as an alias for G1.
GLIN stands for a linear two-variable map whose coefficients are supplied
at evaluation time (normally by the key).  Parentheses and calls nest at
most core.MAX_NESTING deep; every walk over a parsed tree is iterative, so a
long flat sum costs no recursion.

A formula built from operations a key respects can be evaluated on
ciphertexts: encrypt the environment, run the same formula with each
literal encrypted as the walk reaches it, decrypt once at the end.
`encrypted_eval_demo` performs the whole round trip and reports whether the
decrypted result matches the plain one, after first refusing formulas that
use an operation the key does not respect.
"""

from __future__ import annotations

import re

from .ciphers import (
    ADD,
    GLIN,
    MUL,
    OP_NAMES,
    CipherKey,
    LinearG,
    Operation,
    decrypt,
    encrypt,
    op_apply,
)
from . import core
from .core import (DomainError, FormatError, IncompatibleFormulaError, PadicContext, PadicError,
                   PadicInt, Record, _set)


class FormulaSyntaxError(FormatError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownOperationError(FormatError):
    """Call to a name that is not one of the known operations."""


class ArityError(FormatError):
    """Operation call with the wrong number of arguments."""


class UnboundVariableError(DomainError):
    """Evaluation met a variable missing from the environment."""


class Var(Record):
    name: str

    def __init__(self, name: str) -> None:  # one node per token: twice as fast as Record's
        _set(self, "name", name)
        self.__post_init__()


class Lit(Record):
    value: PadicInt

    def __init__(self, value: PadicInt) -> None:
        _set(self, "value", value)
        self.__post_init__()


class App(Record):
    """An operation applied to two subtrees.

    Equality, hashing and repr walk the tree with an explicit stack, so a
    long flat sum costs no recursion; equality is structural.
    """

    op: Operation
    left: "Node"
    right: "Node"

    def __init__(self, op: Operation, left: "Node", right: "Node") -> None:
        _set(self, "op", op)
        _set(self, "left", left)
        _set(self, "right", right)
        self.__post_init__()

    def __eq__(self, other) -> bool:
        if not isinstance(other, App):
            return NotImplemented
        return _tape(self) == _tape(other)

    def __hash__(self) -> int:
        return hash(tuple(_tape(self)))

    def __repr__(self) -> str:
        parts, stack = [], [self]
        while stack:
            n = stack.pop()
            if isinstance(n, str):
                parts.append(n)
            elif isinstance(n, App):
                stack += (")", n.right, ", right=", n.left, f"App(op={n.op!r}, left=")
            else:
                parts.append(repr(n))
        return "".join(parts)


Node = Var | Lit | App

_CALL_NAMES = {name: op for name, op in OP_NAMES.items() if op not in (ADD, MUL)}
_CALL_NAMES["STAR"] = OP_NAMES["G1"]


# -- lexing / parsing ------------------------------------------------------------

# Every character starts a token: \s is str.isspace, \d str.isdecimal (the
# digits int() reads), and a NAME run ends only at whitespace or one of +*(),
# as a name does, since every decimal digit continues one.
_TOKEN = re.compile(r"(?P<SPACE>\s+)|(?P<INT>\d+)|(?P<PLUS>\+)|(?P<TIMES>\*)|(?P<LPAREN>\()"
                    r"|(?P<RPAREN>\))|(?P<COMMA>,)|(?P<NAME>[^\s\d+*(),][^\s+*(),]*)")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SPACE":
            continue
        word, at = m[0], m.start()
        if kind == "NAME" and not word.isidentifier():  # a name is an identifier, as for --env
            # at the first character no name takes: c starts a name, "_" + c continues one
            at += next(i for i, c in enumerate(word) if not ("_"[:i] + c).isidentifier())
            raise FormulaSyntaxError(f"unexpected character {text[at]!r}", at)
        tokens.append((kind, word, at))
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: PadicContext) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def expect(self, kind: str) -> None:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2]
            )
        self.pos += 1

    def expr(self) -> Node:
        # Each parenthesis or call argument is one more level of expr.
        if self.depth > core.MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {core.MAX_NESTING} levels",
                                     self.tokens[self.pos][2])
        self.depth += 1
        node = self.term()
        while self.tokens[self.pos][0] == "PLUS":
            self.pos += 1
            node = App(ADD, node, self.term())
        self.depth -= 1
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.tokens[self.pos][0] == "TIMES":
            self.pos += 1
            node = App(MUL, node, self.factor())
        return node

    def factor(self) -> Node:
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "INT":
            try:
                return Lit(PadicInt(self.ctx, int(text) % self.ctx.modulus))
            except ValueError:  # more digits than int() converts
                raise FormulaSyntaxError(f"{len(text)}-digit literal is too long", at) from None
        if kind == "LPAREN":
            node = self.expr()
            self.expect("RPAREN")
            return node
        if kind != "NAME":
            raise FormulaSyntaxError(f"expected a value, found {text or 'end of input'!r}", at)
        if self.tokens[self.pos][0] != "LPAREN":
            return Var(text)
        if text not in _CALL_NAMES:
            raise UnknownOperationError(f"unknown operation {text!r}; expected one of "
                                        f"{', '.join(sorted(_CALL_NAMES))}")
        self.pos += 1
        left = self.expr()
        if self.tokens[self.pos][0] == "RPAREN":
            raise ArityError(f"{text} takes two arguments, got one")
        self.expect("COMMA")
        right = self.expr()
        if self.tokens[self.pos][0] == "COMMA":
            raise ArityError(f"{text} takes two arguments, got more")
        self.expect("RPAREN")
        return App(_CALL_NAMES[text], left, right)


def parse(text: str, ctx: PadicContext) -> Node:
    parser = _Parser(text, ctx)
    node = parser.expr()
    kind, word, at = parser.tokens[parser.pos]
    if kind != "END":
        raise FormulaSyntaxError(f"unexpected {word!r} after formula", at)
    return node


# -- walking a tree -----------------------------------------------------------------


def _fold(tape: list, leaf, app):
    """The value of the tree whose pre-order list is ``tape``, built bottom up
    in the order of a recursive left-to-right walk: ``leaf(n)`` at each Var or
    Lit, ``app(op, left, right)`` at each op once its right operand is done."""
    stack = []
    for n in tape:
        if isinstance(n, Operation):
            stack.append(n)
            continue
        value = leaf(n)
        while stack and not isinstance(stack[-1], Operation):  # n ends a right operand
            left = stack.pop()
            value = app(stack.pop(), left, value)
        stack.append(value)
    return stack[0]


def _tape(node: Node | list) -> list:
    """Each App's op and each leaf, an App before its operands: the pre-order
    list, which determines the tree (an op always takes two operands) and which
    every walk reads.  A list is taken to be one already."""
    if type(node) is list:
        return node
    tape, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, App):
            tape.append(n.op)
            stack += (n.right, n.left)
        else:
            tape.append(n)
    return tape


_INFIX = {ADD: (" + ", 1), MUL: (" * ", 2)}  # op -> (sign, precedence)


def to_text(node: Node | list) -> str:
    """Render with the fewest parentheses that re-parse to the same tree."""

    def leaf(n: Node) -> tuple[str, int]:
        return (n.name if isinstance(n, Var) else str(n.value.value)), 3

    def app(op: Operation, left, right) -> tuple[str, int]:
        infix = _INFIX.get(op)
        if infix is None:
            return f"{op.name}({left[0]}, {right[0]})", 3
        sign, prec = infix  # both operators are left associative
        return f"{_paren(left, prec)}{sign}{_paren(right, prec + 1)}", prec

    return _fold(_tape(node), leaf, app)[0]


def _paren(rendered: tuple[str, int], floor: int) -> str:
    text, prec = rendered
    return f"({text})" if prec < floor else text


# -- evaluation -------------------------------------------------------------------


def vars_used(node: Node | list) -> frozenset[str]:
    return frozenset(n.name for n in _tape(node) if n.__class__ is Var)


def ops_used(node: Node | list) -> frozenset[Operation]:
    # Operation.__instancecheck__ is isinstance(n, Operation) as a C function:
    # the filter runs no Python code per node.
    return frozenset(filter(Operation.__instancecheck__, _tape(node)))


def _run(tape: list, ctx: PadicContext | None, names: dict, enc, linear_g, leaf) -> PadicInt:
    """The value of the tape's tree at ``ctx``, the tape run back to front on
    ints: a Var pushes ``names[n.name]``, a Lit ``enc`` of its residue, and an
    op pops x and replaces the top y with op(x, y).  Where a check of
    ``op_apply`` could fail (no ctx, a name not in ``names``, a leaf or
    coefficient elsewhere, GLIN unbound, an error of ``op.pair``), ``_fold``
    walks the tape with ``leaf`` and ``op_apply``, which raise what a
    recursive walk meets first."""
    stack = []
    try:
        p, m = ctx.p, ctx.modulus
        for n in reversed(tape):
            if n.__class__ is Var:
                stack.append(names[n.name])
            elif n.__class__ is Lit:
                if n.value.ctx is not ctx and n.value.ctx != ctx:
                    break
                stack.append(enc(n.value.value))
            else:
                op = linear_g if n is GLIN else n
                if op is None or op.coefficients and any(c.ctx != ctx for c in op.coefficients):
                    break
                x = stack.pop()
                stack[-1] = op.pair(x, stack[-1], p, m)
        else:
            return PadicInt(ctx, stack[0])
    except (AttributeError, KeyError, PadicError):
        pass
    return _fold(tape, leaf, lambda op, x, y: op_apply(op, x, y, linear_g))


def evaluate(
    node: Node | list, env: dict[str, PadicInt], linear_g: LinearG | None = None
) -> PadicInt:
    def leaf(n: Node) -> PadicInt:
        if isinstance(n, Lit):
            return n.value
        try:
            return env[n.name]
        except KeyError:
            raise UnboundVariableError(f"variable {n.name!r} is not bound") from None

    tape = _tape(node)
    last = tape[-1]  # the rightmost leaf, whose context is the result's if every leaf shares one
    ctx = getattr(last.value if last.__class__ is Lit else env.get(last.name), "ctx", None)
    names = {name: value.value for name, value in env.items() if value.ctx == ctx}
    return _run(tape, ctx, names, int, linear_g, leaf)  # int: a literal's residue as it is


# -- key compatibility --------------------------------------------------------------

def _bind(op: Operation, key: CipherKey) -> Operation | None:
    """The operation ``op`` stands for under ``key``; None if the key does not
    respect it.

    An unbound GLIN is the key's own G if that G is linear.  A key that
    respects + respects every linear G as well: a map that respects + on
    Z/p^K is x -> f(1)*x, which commutes with every a*x + b*y.
    """
    laws = key.laws
    if op is GLIN:
        return next((law for law in laws if isinstance(law, LinearG)), None)
    if op in laws or (isinstance(op, LinearG) and ADD in laws):
        return op
    return None


def compatibility_check(node: Node | list, key: CipherKey) -> None:
    """Raise IncompatibleFormulaError naming the first unusable operation,
    in pre-order (an App before its operands)."""
    tape = _tape(node)
    unusable = {op for op in ops_used(tape) if _bind(op, key) is None}
    if unusable:
        first = next(n for n in tape if isinstance(n, Operation) and n in unusable)
        article = "an" if key.family[0] in "aeiou" else "a"
        raise IncompatibleFormulaError(f"{article} {key.family} key does not respect {first.name}")


def homomorphism_test(key: CipherKey, op: Operation, **kwargs):
    """``analysis.homomorphism_test``, imported at the first law check, so that
    evaluating a formula in the clear never loads the scans.  A module-level
    name, so that ``bench/workloads.py`` can time the law checks here."""
    from .analysis import homomorphism_test

    return homomorphism_test(key, op, **kwargs)


def encrypted_eval_demo(
    node: Node,
    env: dict[str, PadicInt],
    key: CipherKey,
    *,
    law_trials: int = 64,
    seed: int = 0,
) -> dict:
    """Evaluate in the clear and through the cipher; report both results.

    Refuses formulas using operations outside the key's laws, then spot
    checks each used law on random pairs before trusting the round trip.
    """
    tape = _tape(node)
    compatibility_check(tape, key)
    linear_g = _bind(GLIN, key)
    law_checks = {}
    for op in sorted(ops_used(tape), key=lambda o: o.name):
        report = homomorphism_test(key, _bind(op, key), seed=seed, trials=law_trials)
        law_checks[op.name] = report.verdict
        if report.verdict != "pass":
            raise DomainError(
                f"law check failed for {op.name} on this key "
                f"(witness {report.witness}); refusing to continue"
            )
    plain = evaluate(tape, env, linear_g)  # raises on an unbound variable
    enc_env = {name: encrypt(key, value) for name, value in env.items()}
    cipher = _run(tape, key.ctx, {name: value.value for name, value in enc_env.items()},
                  key.enc_int, linear_g,
                  lambda n: encrypt(key, n.value) if isinstance(n, Lit) else enc_env[n.name])
    decrypted = decrypt(key, cipher)
    return {
        "plain": plain,
        "cipher": cipher,
        "decrypted": decrypted,
        "match": decrypted == plain,
        "law_checks": law_checks,
    }


# A three-variable showcase built entirely from + and one nonlinear G;
# suitable for fhe keys declared with G1.
DEMO_FORMULA = (
    "STAR(z, STAR(x, y)) + STAR(STAR(z, x), y) + "
    "STAR(STAR(x, x), STAR(y, y)) + STAR(x, STAR(STAR(x, y), y))"
)
