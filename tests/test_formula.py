import re
import string
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padic_ciphers.analysis import ADD, AND, MUL, XOR, homomorphism_test
from padic_ciphers.ciphers import (
    AdditiveKey,
    FheKey,
    G1,
    LinearG,
    MultiplicativeKey,
    XorKey,
    GLIN,
    encrypt,
    keygen,
)
from padic_ciphers.core import DomainError, PadicContext, PadicInt
from padic_ciphers.formula import (
    App,
    ArityError,
    DEMO_FORMULA,
    FormulaSyntaxError,
    IncompatibleFormulaError,
    Lit,
    MAX_NESTING,
    UnboundVariableError,
    UnknownOperationError,
    Var,
    _tokenize,
    compatibility_check,
    encrypted_eval_demo,
    evaluate,
    ops_used,
    parse,
    to_text,
    vars_used,
)

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
