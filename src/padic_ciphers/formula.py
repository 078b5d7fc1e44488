"""Formulas over the cipher operations, and their encrypted evaluation.

Grammar (whitespace insensitive)::

    expr   := term {"+" term}
    term   := factor {"*" factor}
    factor := NAME | INTEGER | NAME "(" expr "," expr ")" | "(" expr ")"

Call names: XOR, AND, G1, G2, G3, G4, GLIN, and STAR as an alias for G1.
GLIN stands for a linear two-variable map whose coefficients are supplied
at evaluation time (normally by the key).  Parentheses and calls nest at
most MAX_NESTING deep; every walk over a parsed tree is iterative, so a
long flat sum costs no recursion.

A formula built from operations a key respects can be evaluated on
ciphertexts: encrypt the environment, run the same formula with each
literal encrypted as the walk reaches it, decrypt once at the end.
`encrypted_eval_demo` performs the whole round trip and reports whether the
decrypted result matches the plain one, after first refusing formulas that
use an operation the key does not respect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ciphers import (
    ADD,
    MUL,
    NAMED_G,
    OP_NAMES,
    CipherKey,
    LinearG,
    OpSymbol,
    decrypt,
    encrypt,
    g_sym,
    op_apply,
)
from .core import DomainError, FormatError, IncompatibleFormulaError, PadicContext, PadicInt


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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: PadicInt


@dataclass(frozen=True, eq=False, repr=False)
class App:
    """An operation applied to two subtrees.

    Equality, hashing and repr walk the tree with an explicit stack, so a
    long flat sum costs no recursion; equality is structural.
    """

    op: OpSymbol
    left: "Node"
    right: "Node"

    def __eq__(self, other) -> bool:
        if not isinstance(other, App):
            return NotImplemented
        return list(_preorder(self)) == list(_preorder(other))

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

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
_CALL_NAMES["STAR"] = g_sym(NAMED_G["G1"])

MAX_NESTING = 200  # parenthesis and call depth; the parser recurses per level


# -- lexing / parsing ------------------------------------------------------------


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():  # the digits int() reads
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif c.isidentifier():  # a NAME is what str.isidentifier accepts, as for --env names
            j = i + 1
            while j < n and ("_" + text[j]).isidentifier():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        elif c in "+*(),":
            kind = {"+": "PLUS", "*": "TIMES", "(": "LPAREN", ")": "RPAREN", ",": "COMMA"}[c]
            tokens.append((kind, c, i))
            i += 1
        else:
            raise FormulaSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: PadicContext) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx
        self.depth = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {tok[1] or 'end of input'!r}", tok[2]
            )
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise FormulaSyntaxError(f"unexpected {tok[1]!r} after formula", tok[2])
        return node

    def expr(self) -> Node:
        # Each parenthesis or call argument is one more level of expr.
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels", self.peek()[2]
            )
        self.depth += 1
        node = self.term()
        while self.peek()[0] == "PLUS":
            self.take("PLUS")
            node = App(ADD, node, self.term())
        self.depth -= 1
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "TIMES":
            self.take("TIMES")
            node = App(MUL, node, self.factor())
        return node

    def factor(self) -> Node:
        kind, text, at = self.peek()
        if kind == "INT":
            self.take("INT")
            try:
                return Lit(PadicInt(self.ctx, int(text) % self.ctx.modulus))
            except ValueError:  # more digits than int() converts
                raise FormulaSyntaxError(f"{len(text)}-digit literal is too long", at) from None
        if kind == "LPAREN":
            self.take("LPAREN")
            node = self.expr()
            self.take("RPAREN")
            return node
        if kind == "NAME":
            self.take("NAME")
            if self.peek()[0] != "LPAREN":
                return Var(text)
            if text not in _CALL_NAMES:
                raise UnknownOperationError(
                    f"unknown operation {text!r}; expected one of "
                    f"{', '.join(sorted(_CALL_NAMES))}"
                )
            self.take("LPAREN")
            left = self.expr()
            if self.peek()[0] == "RPAREN":
                raise ArityError(f"{text} takes two arguments, got one")
            self.take("COMMA")
            right = self.expr()
            if self.peek()[0] == "COMMA":
                raise ArityError(f"{text} takes two arguments, got more")
            self.take("RPAREN")
            return App(_CALL_NAMES[text], left, right)
        raise FormulaSyntaxError(f"expected a value, found {text or 'end of input'!r}", at)


def parse(text: str, ctx: PadicContext) -> Node:
    return _Parser(text, ctx).parse()


# -- walking a tree -----------------------------------------------------------------


def _fold(node: Node, leaf, app):
    """The value of a tree built bottom up, without recursion: ``leaf(n)`` at
    each Var or Lit, ``app(op, left, right)`` at each App, in the order of a
    recursive left-to-right walk."""
    values, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, App):
            stack += (n.op, n.right, n.left)  # the op marks its App as done
        elif isinstance(n, OpSymbol):
            right = values.pop()
            values[-1] = app(n, values[-1], right)
        else:
            values.append(leaf(n))
    return values[0]


def _preorder(node: Node):
    """Each App's op and each leaf, an App before its operands: the sequence
    determines the tree, since an op always takes two operands."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, App):
            yield n.op
            stack += (n.right, n.left)
        else:
            yield n


_INFIX = {"ADD": (" + ", 1), "MUL": (" * ", 2)}  # kind -> (sign, precedence)


def to_text(node: Node) -> str:
    """Render with the fewest parentheses that re-parse to the same tree."""

    def leaf(n: Node) -> tuple[str, int]:
        return (n.name if isinstance(n, Var) else str(n.value.value)), 3

    def app(op: OpSymbol, left, right) -> tuple[str, int]:
        if op.kind not in _INFIX:
            return f"{op.name}({left[0]}, {right[0]})", 3
        sign, prec = _INFIX[op.kind]  # both operators are left associative
        return f"{_paren(left, prec)}{sign}{_paren(right, prec + 1)}", prec

    return _fold(node, leaf, app)[0]


def _paren(rendered: tuple[str, int], floor: int) -> str:
    text, prec = rendered
    return f"({text})" if prec < floor else text


# -- evaluation -------------------------------------------------------------------


def vars_used(node: Node) -> frozenset[str]:
    return frozenset(n.name for n in _preorder(node) if isinstance(n, Var))


def ops_used(node: Node) -> frozenset[OpSymbol]:
    return frozenset(n for n in _preorder(node) if isinstance(n, OpSymbol))


def evaluate(
    node: Node, env: dict[str, PadicInt], linear_g: LinearG | None = None
) -> PadicInt:
    def leaf(n: Node) -> PadicInt:
        if isinstance(n, Lit):
            return n.value
        try:
            return env[n.name]
        except KeyError:
            raise UnboundVariableError(f"variable {n.name!r} is not bound") from None

    return _fold(node, leaf, lambda op, x, y: op_apply(op, x, y, linear_g))


# -- key compatibility --------------------------------------------------------------

_GLIN = OpSymbol("G")


def _bind(op: OpSymbol, key: CipherKey) -> OpSymbol | None:
    """The operation ``op`` stands for under ``key``; None if the key does not
    respect it.

    An unbound GLIN is the key's own G if that G is linear.  A key that
    respects + respects every linear G as well: a map that respects + on
    Z/p^K is x -> f(1)*x, which commutes with every a*x + b*y.
    """
    laws = key.laws
    if op == _GLIN:
        return next((law for law in laws if isinstance(law.g, LinearG)), None)
    if op in laws or (isinstance(op.g, LinearG) and ADD in laws):
        return op
    return None


def compatibility_check(node: Node, key: CipherKey) -> None:
    """Raise IncompatibleFormulaError naming the first unusable operation,
    in pre-order (an App before its operands)."""
    unusable = next((n for n in _preorder(node)
                     if isinstance(n, OpSymbol) and _bind(n, key) is None), None)
    if unusable is not None:
        raise IncompatibleFormulaError(
            f"a {key.family} key does not respect {unusable.name}"
        )


def homomorphism_test(key: CipherKey, op: OpSymbol, **kwargs):
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
    compatibility_check(node, key)
    own_linear = _bind(_GLIN, key)
    linear_g = own_linear.g if own_linear is not None else None
    law_checks = {}
    for op in sorted(ops_used(node), key=lambda o: o.name):
        report = homomorphism_test(key, _bind(op, key), seed=seed, trials=law_trials)
        law_checks[op.name] = report.verdict
        if report.verdict != "pass":
            raise DomainError(
                f"law check failed for {op.name} on this key "
                f"(witness {report.witness}); refusing to continue"
            )
    plain = evaluate(node, env, linear_g)  # raises on an unbound variable
    enc_env = {name: encrypt(key, value) for name, value in env.items()}
    cipher = _fold(
        node,
        lambda n: encrypt(key, n.value) if isinstance(n, Lit) else enc_env[n.name],
        lambda op, x, y: op_apply(op, x, y, linear_g),
    )
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
