import re
import string
import sys
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_ciphers.analysis import ADD, AND, MUL, XOR, homomorphism_test
from padic_ciphers.ciphers import (
    OP_NAMES,
    AdditiveKey,
    FheKey,
    G1,
    LinearG,
    MultiplicativeKey,
    Operation,
    SeriesG,
    XorKey,
    GLIN,
    decrypt,
    encrypt,
    keygen,
    op_apply,
)
from padic_ciphers.core import (MAX_NESTING, ContextMismatchError, DomainError, FormatError,
                                PadicContext, PadicInt)
from padic_ciphers.formula import (
    App,
    ArityError,
    DEMO_FORMULA,
    FormulaSyntaxError,
    IncompatibleFormulaError,
    Lit,
    UnboundVariableError,
    UnknownOperationError,
    Var,
    _CALL_NAMES,
    _bind,
    _tape,
    _tokenize,
    compatibility_check,
    encrypted_eval_demo,
    evaluate,
    ops_used,
    parse,
    to_text,
    vars_used,
)
from test_fuzz import formula_texts

C32 = PadicContext(3, 2)
C33 = PadicContext(3, 3)
C52 = PadicContext(5, 2)

# The tokens of ASCII text as read before NAME meant str.isidentifier.
_FORMER_TOKEN = re.compile(r"(?P<SPACE>\s+)|(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)"
                           r"|(?P<PLUS>\+)|(?P<TIMES>\*)|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<COMMA>,)")


def test_parse_precedence():
    ast = parse("x + y * z", C52)
    assert ast == App(ADD, Var("x"), App(MUL, Var("y"), Var("z")))
    ast = parse("(x + y) * z", C52)
    assert ast == App(MUL, App(ADD, Var("x"), Var("y")), Var("z"))


def test_parse_left_associative():
    ast = parse("a + b + c", C52)
    assert ast == App(ADD, App(ADD, Var("a"), Var("b")), Var("c"))
    ast = parse("a * b * c", C52)
    assert ast == App(MUL, App(MUL, Var("a"), Var("b")), Var("c"))


def test_parse_calls():
    assert parse("XOR(x, y)", C52) == App(XOR, Var("x"), Var("y"))
    assert parse("STAR(x, y)", C52) == parse("G1(x, y)", C52)
    assert parse("GLIN(x, y)", C52).op is GLIN
    nested = parse("STAR(z, STAR(x, y))", C52)
    assert nested == App(G1(), Var("z"), App(G1(), Var("x"), Var("y")))


def test_parse_literals():
    ast = parse("2 * x", C52)
    assert ast.left == Lit(C52.integer(2))
    assert parse("27", C33) == Lit(C33.integer(0))  # reduced mod 27


def test_bare_name_is_a_variable():
    assert parse("FOO + 1", C52).left == Var("FOO")


def test_parse_errors():
    for bad in ("x +", "(x + y", "", "x ) y", "x y"):
        with pytest.raises(FormulaSyntaxError):
            parse(bad, C52)
    with pytest.raises(FormulaSyntaxError) as info:
        parse("x $ y", C52)
    assert info.value.position == 2
    with pytest.raises(UnknownOperationError):
        parse("FOO(x, y)", C52)
    with pytest.raises(ArityError):
        parse("XOR(x)", C52)
    with pytest.raises(ArityError):
        parse("XOR(x, y, z)", C52)


def test_names_are_exactly_identifiers():
    with pytest.raises(FormulaSyntaxError) as info:
        parse("x²+1", C52)
    assert info.value.position == 1
    assert parse("x\u0301 + ℘", C52) == App(ADD, Var("x\u0301"), Var("℘"))
    for name in ("x\u0301", "℘", "_1", "é2"):
        assert name.isidentifier() and parse(name, C52) == Var(name)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=string.ascii_letters + string.digits + "_ +*(),", max_size=30))
def test_ascii_tokens_are_the_former_names(text):
    """On ASCII text a NAME is [A-Za-z_][A-Za-z0-9_]*, as when names were read
    with str.isalpha/str.isalnum."""
    former = [(m.lastgroup, m.group(), m.start()) for m in _FORMER_TOKEN.finditer(text)
              if m.lastgroup != "SPACE"]
    assert _tokenize(text) == former + [("END", "", len(text))]


# -- the former reader: the reference for the token pattern and the descent -------


def _former_tokenize(text: str) -> list[tuple[str, str, int]]:
    """The per-character loop that read formula text before the token pattern."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
        elif c.isidentifier():
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


class _FormerParser:
    """The descent as it was, every token read through ``peek`` and ``take``."""

    def __init__(self, text: str, ctx: PadicContext) -> None:
        self.tokens = _former_tokenize(text)
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

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "END":
            raise FormulaSyntaxError(f"unexpected {tok[1]!r} after formula", tok[2])
        return node

    def expr(self):
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(f"nesting deeper than {MAX_NESTING} levels", self.peek()[2])
        self.depth += 1
        node = self.term()
        while self.peek()[0] == "PLUS":
            self.take("PLUS")
            node = App(ADD, node, self.term())
        self.depth -= 1
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "TIMES":
            self.take("TIMES")
            node = App(MUL, node, self.factor())
        return node

    def factor(self):
        kind, text, at = self.peek()
        if kind == "INT":
            self.take("INT")
            try:
                return Lit(PadicInt(self.ctx, int(text) % self.ctx.modulus))
            except ValueError:
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


def _outcome(read, *args):
    """What ``read`` returns, or the class, message and position of what it raises."""
    try:
        return read(*args)
    except FormatError as error:
        return type(error), str(error), getattr(error, "position", None)


def test_the_token_pattern_classes_every_code_point_as_the_former_loop():
    """The facts that make one finditer pass read as the per-character loop,
    over every code point: \\s is str.isspace and \\d is str.isdecimal; a
    character that starts a name or is a decimal digit continues one; and no
    character that continues a name is whitespace or one of +*(),.  So a NAME
    run of the pattern is a former NAME token, or fails at the character
    where the loop raised."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    space, digits = set(re.findall(r"\s", chars)), set(re.findall(r"\d", chars))
    assert space == {c for c in chars if c.isspace()}
    assert digits == {c for c in chars if c.isdecimal()}
    continues = {c for c in chars if ("_" + c).isidentifier()}
    assert {c for c in chars if c.isidentifier()} <= continues
    assert digits <= continues
    assert not continues & (space | set("+*(),"))


def test_tokens_of_each_code_point_in_context_are_the_former_ones():
    rng = Random(7)
    points = [*range(0x300), *rng.sample(range(0x300, sys.maxunicode + 1), 3000)]
    for c in map(chr, points):
        for text in (c, f"x{c}y", f"{c}1", f"1{c}", f"_{c}", f"{c} +", f"X{c}(1,2)"):
            assert _outcome(_tokenize, text) == _outcome(_former_tokenize, text), text


@settings(max_examples=300, deadline=None)
@given(formula_texts)
def test_tokens_are_the_former_loops(text):
    assert _outcome(_tokenize, text) == _outcome(_former_tokenize, text)


# Texts of whole tokens, which reach the call and arity errors more often.
token_texts = st.lists(st.sampled_from(["x", "7", " + ", "*", "(", ")", ", ", "XOR", "G1", "FOO"]),
                       max_size=20).map("".join)


@settings(max_examples=300, deadline=None)
@example("x²+1", C52)
@example("x\u0301 + ℘", C52)
@example("1" * 5000, C52)
@example("x" + " + x" * 3000, C52)
@example("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, C52)
@example("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), C52)
@example("XOR(x, " * MAX_NESTING + "y" + ")" * MAX_NESTING, C52)
@example("XOR(x, " * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1), C52)
@example("XOR(x)", C52)
@example("XOR(x, y, z)", C52)
@example("XOR(x y)", C52)
@example("XOR(x, y", C52)
@example("FOO(x, y)", C52)
@example("(x + y", C52)
@example("x ) y", C52)
@example("x +", C52)
@example("", C52)
@given(formula_texts | token_texts,
       st.sampled_from([C52, PadicContext(5, 16), PadicContext(2, 1)]))
def test_parse_reads_as_the_former_descent(text, ctx):
    former = _outcome(lambda: _FormerParser(text, ctx).parse())
    assert _outcome(parse, text, ctx) == former


def test_nesting_limit():
    assert parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, C52) == Var("x")
    calls = "XOR(x, " * MAX_NESTING + "y" + ")" * MAX_NESTING
    assert to_text(parse(calls, C52)) == calls
    for depth in (MAX_NESTING + 1, 2000):
        with pytest.raises(FormulaSyntaxError, match="nesting"):
            parse("(" * depth + "x" + ")" * depth, C52)
    with pytest.raises(FormulaSyntaxError, match="nesting"):
        parse("XOR(x, " * (MAX_NESTING + 1) + "y" + ")" * (MAX_NESTING + 1), C52)


def test_long_flat_sum_walks_without_recursion():
    node = parse(" + ".join(["x"] * 3000), C52)
    assert vars_used(node) == frozenset({"x"})
    assert ops_used(node) == frozenset({ADD})
    assert to_text(node) == " + ".join(["x"] * 3000)
    names = [f"x{i}" for i in range(3000)]
    assert vars_used(parse(" + ".join(names), C52)) == frozenset(names)
    key = AdditiveKey(C52.integer(7))
    compatibility_check(node, key)
    report = encrypted_eval_demo(node, {"x": C52.integer(3)}, key)
    assert report["plain"].value == 3000 * 3 % 25
    assert report["match"] is True
    with pytest.raises(IncompatibleFormulaError, match="ADD"):
        compatibility_check(node, MultiplicativeKey(A=C52.one, s=3, a=C52.one))


def test_long_flat_sum_compares_hashes_and_prints_without_recursion():
    text = " + ".join(f"x{i % 7}" for i in range(3000))
    first, second = parse(text, C52), parse(text, C52)
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first).startswith("App(op=ADD, left=App(")
    assert first != parse(text + " + x0", C52)
    assert parse("XOR(x, 1) * y", C52) != parse("XOR(1, x) * y", C52)


def test_to_text_roundtrip():
    texts = (
        "x + y * z",
        "(x + y) * z",
        "x + (y + z)",
        "XOR(x, AND(y, z)) + 3",
        "GLIN(x, 2) * y",
        DEMO_FORMULA,
    )
    for text in texts:
        ast = parse(text, C52)
        out = to_text(ast)
        assert parse(out, C52) == ast
        assert to_text(parse(out, C52)) == out


def test_evaluate_basics():
    env = {"x": C52.integer(1), "y": C52.integer(2), "z": C52.integer(3)}
    assert evaluate(parse("x + y * z", C52), env).value == 7
    assert evaluate(parse("2 * x + 1", C52), env).value == 3
    assert evaluate(parse("XOR(y, z)", C52), env).value == 0  # digits add mod 5
    with pytest.raises(UnboundVariableError):
        evaluate(parse("w + x", C52), env)


def test_vars_and_ops_used():
    ast = parse(DEMO_FORMULA, C52)
    assert vars_used(ast) == frozenset({"x", "y", "z"})
    assert ops_used(ast) == frozenset({ADD, G1()})


def test_demo_formula_value():
    env = {"x": C52.integer(2), "y": C52.integer(3), "z": C52.integer(4)}
    assert evaluate(parse(DEMO_FORMULA, C52), env).value == 22


def _power_form(ctx, xv, yv, zv):
    p, m = ctx.p, ctx.modulus
    q = p - 1
    return (
        pow(xv, q, m) * pow(yv, q * q, m) * zv
        + pow(xv, q, m) * pow(yv, q, m) * zv
        + pow(xv, p, m) * pow(yv, p * q, m)
        + pow(xv, p, m) * pow(yv, 2 * q * q, m)
    ) % m


def test_demo_formula_matches_power_form():
    ast32 = parse(DEMO_FORMULA, C32)
    for xv in range(9):
        for yv in range(9):
            for zv in range(9):
                env = {"x": PadicInt(C32, xv), "y": PadicInt(C32, yv), "z": PadicInt(C32, zv)}
                assert evaluate(ast32, env).value == _power_form(C32, xv, yv, zv)
    assert _power_form(C52, 2, 3, 4) == 22


def test_compatibility_rules():
    add_key = AdditiveKey(C52.integer(7))
    mul_key = MultiplicativeKey(A=C52.one, s=3, a=C52.one)
    fhe_g1 = FheKey(C52.integer(7), G1())
    lin = LinearG(C52.integer(2), C52.integer(3))
    fhe_lin = FheKey(C52.integer(3), lin)

    compatibility_check(parse("x + y + 4", C52), add_key)
    compatibility_check(parse("x * y * x", C52), mul_key)
    compatibility_check(parse(DEMO_FORMULA, C52), fhe_g1)
    compatibility_check(parse("GLIN(x, y) + y", C52), fhe_lin)
    compatibility_check(App(lin, Var("x"), Var("y")), add_key)

    with pytest.raises(IncompatibleFormulaError, match="MUL"):
        compatibility_check(parse("x * y", C52), add_key)
    with pytest.raises(IncompatibleFormulaError, match="ADD"):
        compatibility_check(parse(DEMO_FORMULA, C52), mul_key)
    with pytest.raises(IncompatibleFormulaError, match="GLIN"):
        compatibility_check(parse("GLIN(x, y)", C52), add_key)
    with pytest.raises(IncompatibleFormulaError, match="GLIN"):
        compatibility_check(parse("GLIN(x, y)", C52), fhe_g1)
    with pytest.raises(IncompatibleFormulaError, match="XOR"):
        compatibility_check(parse("XOR(x, y)", C52), mul_key)


def test_compatibility_names_the_first_unusable_operation_in_preorder():
    add_key = AdditiveKey(C52.integer(7))
    for text, first in (("XOR(x, y) + x * y", "XOR"),  # left operand before right
                        ("x * y + XOR(x, y)", "MUL"),
                        ("XOR(x * y, y)", "XOR")):  # an App before its operands
        with pytest.raises(IncompatibleFormulaError) as err:
            compatibility_check(parse(text, C52), add_key)
        assert str(err.value) == f"an additive key does not respect {first}", text


@pytest.mark.parametrize("family", ["additive", "multiplicative", "xor", "and", "fhe"])
def test_compatibility_agrees_with_laws(family):
    key = keygen(C52, family, Random(11), g=G1() if family == "fhe" else None)
    for law in key.laws:
        assert homomorphism_test(key, law, exhaustive_k=2).verdict == "pass"
        compatibility_check(App(law, Var("x"), Var("y")), key)
    for op in (ADD, MUL, XOR, AND):
        if op not in key.laws:
            with pytest.raises(IncompatibleFormulaError, match=op.name):
                compatibility_check(App(op, Var("x"), Var("y")), key)


def test_encrypted_eval_fhe_showcase():
    key = FheKey(C52.integer(7), G1())
    env = {"x": C52.integer(2), "y": C52.integer(3), "z": C52.integer(4)}
    report = encrypted_eval_demo(parse(DEMO_FORMULA, C52), env, key)
    assert report["plain"].value == 22
    assert report["decrypted"] == report["plain"]
    assert report["match"] is True
    assert report["law_checks"] == {"ADD": "pass", "G1": "pass"}


def test_encrypted_eval_encrypts_literals():
    key = AdditiveKey(C52.integer(7))
    env = {"x": C52.integer(9), "y": C52.integer(16)}
    report = encrypted_eval_demo(parse("x + 2 + y", C52), env, key)
    assert report["plain"].value == 2
    assert report["match"] is True
    # the ciphertext really is the formula under encryption
    assert report["cipher"] == encrypt(key, report["plain"])


def test_encrypted_eval_glin_binding():
    lin = LinearG(C52.integer(2), C52.integer(3))
    key = FheKey(C52.integer(3), lin)
    env = {"x": C52.integer(4), "y": C52.integer(1)}
    report = encrypted_eval_demo(parse("GLIN(x, y) + x", C52), env, key)
    assert report["plain"].value == (2 * 4 + 3 * 1 + 4) % 25
    assert report["match"] is True


def test_encrypted_eval_refuses_incompatible():
    mul_key = MultiplicativeKey(A=C52.one, s=3, a=C52.one)
    env = {"x": C52.integer(2), "y": C52.integer(3), "z": C52.integer(4)}
    with pytest.raises(IncompatibleFormulaError):
        encrypted_eval_demo(parse(DEMO_FORMULA, C52), env, mul_key)
    xkey_ctx = PadicContext(3, 3)
    with pytest.raises(IncompatibleFormulaError, match="AND"):
        encrypted_eval_demo(
            App(AND, Var("x"), Var("y")),
            {"x": xkey_ctx.one, "y": xkey_ctx.one},
            XorKey(xkey_ctx, ((1,), (0, 1), (0, 0, 1))),
        )


def test_demo_refuses_to_continue_when_a_law_check_fails():
    key = keygen(C52, "additive", Random(4))
    enc, m = key.enc_int, C52.modulus
    vars(key)["enc_int"] = lambda v: (enc(v) + 1) % m  # f(x + y) != f(x) + f(y)
    witness = homomorphism_test(key, ADD, seed=0, trials=64).witness
    with pytest.raises(DomainError) as info:
        encrypted_eval_demo(parse("x + 1", C52), {"x": C52.integer(3)}, key)
    assert str(info.value) == (
        f"law check failed for ADD on this key (witness {witness}); refusing to continue")


# -- the tape against the tree walk -------------------------------------------------
#
# The reference is the evaluator the tape replaced: a tree walk in the order of
# a recursive left-to-right walk, one op_apply (and one PadicInt) per node.

NINE = list(OP_NAMES.values())  # ADD, MUL, XOR, AND, G1-G4 and GLIN


def reference_fold(node, leaf, app):
    values, stack = [], [node]
    while stack:
        n = stack.pop()
        if isinstance(n, App):
            stack += (n.op, n.right, n.left)
        elif isinstance(n, Operation):
            right = values.pop()
            values[-1] = app(n, values[-1], right)
        else:
            values.append(leaf(n))
    return values[0]


def reference_evaluate(node, env, linear_g=None):
    def leaf(n):
        if isinstance(n, Lit):
            return n.value
        try:
            return env[n.name]
        except KeyError:
            raise UnboundVariableError(f"variable {n.name!r} is not bound") from None

    return reference_fold(node, leaf, lambda op, x, y: op_apply(op, x, y, linear_g))


def reference_cipher(node, env, key, linear_g):
    """The cipher pass of encrypted_eval_demo before the tape."""
    enc_env = {name: encrypt(key, value) for name, value in env.items()}
    return reference_fold(
        node, lambda n: encrypt(key, n.value) if isinstance(n, Lit) else enc_env[n.name],
        lambda op, x, y: op_apply(op, x, y, linear_g))


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def _series(ctx, rng):
    return SeriesG(ctx.integer(0), ctx.integer(rng.randrange(ctx.modulus)), ctx.one,
                   (((1, 1), ctx.integer(rng.randrange(ctx.modulus))), ((2, 0), ctx.one)))


def random_tree(rng, ops, leaves, depth=7):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    return App(rng.choice(ops), random_tree(rng, ops, leaves, depth - 1),
               random_tree(rng, ops, leaves, depth - 1))


def _leaves(ctx, rng, names):
    return [lambda: Var(rng.choice(names)),
            lambda: Lit(ctx.integer(rng.randrange(ctx.modulus)))]


TAPE_PRIMES = [2, 3, 5, 7, 13]


@pytest.mark.parametrize("p", TAPE_PRIMES)
def test_tape_values_match_the_tree_walk(p):
    rng = Random(100 + p)
    for K in (1, 3, 6):
        ctx = PadicContext(p, K)
        env = {name: ctx.integer(rng.randrange(ctx.modulus)) for name in "xyz"}
        lin = LinearG(ctx.integer(rng.randrange(ctx.modulus)), ctx.integer(rng.randrange(ctx.modulus)))
        ops = NINE + [lin, _series(ctx, rng)]
        if p == 2:
            ops.remove(OP_NAMES["G3"])  # needs an odd p: the error cases cover it
        for _ in range(30):
            node = random_tree(rng, ops, _leaves(ctx, rng, "xyz"))
            for linear_g in (lin, None):  # GLIN bound and unbound
                want = outcome(reference_evaluate, node, env, linear_g)
                assert outcome(evaluate, node, env, linear_g) == want, to_text(node)
                tape = _tape(node)
                assert outcome(evaluate, tape, env, linear_g) == want
            if GLIN not in ops_used(node):
                assert outcome(evaluate, node, env)[0] == "value"


@pytest.mark.parametrize("p", TAPE_PRIMES)
def test_tape_raises_what_the_tree_walk_raises_first(p):
    """Random trees with faults anywhere: unbound names, leaves and coefficients
    in another context, an unbound GLIN and, at p = 2, G3."""
    rng = Random(200 + p)
    ctx, other = PadicContext(p, 3), PadicContext(p, 2)
    env = {"x": ctx.integer(1), "y": ctx.integer(rng.randrange(ctx.modulus)), "w": other.one}
    lin = LinearG(ctx.one, ctx.integer(2))
    ops = NINE + [lin, LinearG(other.one, other.one), _series(ctx, rng), _series(other, rng)]
    leaves = _leaves(ctx, rng, ["x", "y", "w", "u", "v"]) + [lambda: Lit(other.one)]
    kinds = set()
    for _ in range(300):
        node = random_tree(rng, ops, leaves, depth=5)
        for linear_g in (lin, LinearG(other.one, other.one), None):
            want = outcome(reference_evaluate, node, env, linear_g)
            assert outcome(evaluate, node, env, linear_g) == want, to_text(node)
            kinds.add(want[0])
    assert {"value", UnboundVariableError, ContextMismatchError, DomainError} <= kinds


def test_tape_errors_name_the_fault_a_recursive_walk_meets_first():
    c73 = PadicContext(7, 3)
    env = {"x": C52.integer(3), "y": C52.integer(4), "z": c73.one}
    lin = LinearG(C52.one, C52.integer(2))
    cases = [
        (parse("u + x * v", C52), None, UnboundVariableError, "variable 'u' is not bound"),
        (parse("x * v + u", C52), None, UnboundVariableError, "variable 'v' is not bound"),
        (parse("x + z", C52), None, ContextMismatchError,
         f"mixed contexts {C52} and {c73}"),
        (parse("z + (x + 1)", C52), None, ContextMismatchError,
         f"mixed contexts {c73} and {C52}"),
        (parse("G1(x, z)", C52), None, DomainError, "operands live in different contexts"),
        (parse("GLIN(x, y)", C52), None, DomainError,
         "linear operation is unbound; supply its coefficients"),
        (parse("GLIN(1, 2) + u", C52), None, DomainError,  # the GLIN node comes first
         "linear operation is unbound; supply its coefficients"),
        (parse("u + GLIN(1, 2)", C52), None, UnboundVariableError, "variable 'u' is not bound"),
        (parse("GLIN(z, z)", C52), lin, DomainError,
         "linear coefficients live in a different context"),
        (parse("(x + z) + G3(x, u)", PadicContext(2, 3)), None, ContextMismatchError,
         f"mixed contexts {C52} and {c73}"),
    ]
    for node, linear_g, kind, message in cases:
        for fn in (evaluate, reference_evaluate):
            with pytest.raises(kind) as info:
                fn(node, env, linear_g)
            assert str(info.value) == message, (to_text(node), fn.__name__)
    at2 = PadicContext(2, 3)
    for text in ("G3(x, y) + u", "u + G3(x, y)"):
        node, env2 = parse(text, at2), {"x": at2.one, "y": at2.one}
        assert outcome(evaluate, node, env2) == outcome(reference_evaluate, node, env2)


FAMILY_NAMES = ["additive", "multiplicative", "xor", "and", "fhe"]


@pytest.mark.parametrize("p, family", [(p, family) for p in TAPE_PRIMES for family in FAMILY_NAMES
                                       if (p, family) != (2, "multiplicative")])  # needs odd p
def test_cipher_pass_matches_the_tree_walk(p, family):
    """Trees over the operations each key respects; an fhe key's G is linear
    (GLIN bound) at p = 2, 5, 13 and G1 at p = 3, 7."""
    rng = Random(300 + p)
    ctx = PadicContext(p, 4)
    lin = LinearG(ctx.integer(2), ctx.one)
    key = (FheKey(ctx.one, lin) if (p, family) == (2, "fhe")  # keygen draws none at p = 2
           else keygen(ctx, family, rng, g=lin if p in (5, 13) else None))
    ops = [op for op in NINE + [lin, _series(ctx, rng)] if _bind(op, key) is not None]
    linear_g = _bind(GLIN, key)
    env = {name: ctx.integer(rng.randrange(ctx.modulus)) for name in "xy"}
    for _ in range(6):
        node = random_tree(rng, ops, _leaves(ctx, rng, "xy"), depth=5)
        report = encrypted_eval_demo(node, env, key, law_trials=4)
        assert report["plain"] == reference_evaluate(node, env, linear_g)
        assert report["cipher"] == reference_cipher(node, env, key, linear_g)
        assert report["decrypted"] == decrypt(key, report["cipher"]) and report["match"]


def test_cipher_pass_refuses_a_formula_parsed_at_another_context_as_the_tree_walk_did():
    key = AdditiveKey(C52.integer(7))
    c73 = PadicContext(7, 3)
    cases = [(parse("x + 3", c73), {"x": c73.one}),  # the environment's encrypt refuses
             (parse("3 + 4", c73), {}),  # the first literal's encrypt refuses
             (parse("x + 3", c73), {"x": C52.one})]  # the plain pass: mixed contexts
    for node, env in cases:
        def reference():
            plain = reference_evaluate(node, env)
            return plain, reference_cipher(node, env, key, None)

        want = outcome(reference)
        assert want[0] in (DomainError, ContextMismatchError)
        assert outcome(encrypted_eval_demo, node, env, key) == want
