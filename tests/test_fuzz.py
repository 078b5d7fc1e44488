"""Fuzz tests of the entry points.  On any input, parsing text or JSON either
succeeds or raises ``FormatError``, and a CLI command on small p and K ends
quickly with a documented exit code; no other exception escapes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile
import time

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padic_ciphers.ciphers import FAMILIES, G_CHOICES, key_from_json
from padic_ciphers.cli import run_command
from padic_ciphers.core import FormatError, PadicContext, from_text
from padic_ciphers.formula import parse
from padic_ciphers.lipschitz import parse_table_text

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# Small integers and the primes below make most objects get past the context
# check, so the field loaders run too.
small_ints = st.integers(-3, 70)
numbers = small_ints | st.sampled_from([2, 3, 5, 7, 13]) | json_values
residue_texts = st.sampled_from(["1", "2", "0", "5:2:1,0", "3:2:2,1", "5:2:3,4", "1_0", "-1"])
texts = (
    st.text(max_size=40)
    | st.from_regex(r"[0-9]{1,3}:[0-9]{1,3}:[0-9, +_-]{0,12}", fullmatch=True)
    | st.from_regex(r"[ +-]?[0-9_]{0,30}", fullmatch=True)
)


def only_format_errors(fn, *args) -> None:
    try:
        fn(*args)
    except FormatError:
        pass


@FUZZ
@given(texts, st.sampled_from([None, PadicContext(3, 2), PadicContext(5, 1), PadicContext(2, 64)]))
def test_from_text(text, ctx):
    only_format_errors(from_text, text, ctx)


@FUZZ
@given(st.text(max_size=200))
def test_parse_table_text_on_any_text(text):
    only_format_errors(parse_table_text, text)


@st.composite
def table_like_texts(draw):
    p, K = draw(st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1), (11, 1)]))
    head = draw(st.sampled_from([f"{p} {K} table", f"{p} {K} vdp",
                                 f"{p} {K}", f"{p} {K + 100} table", f"{p * 2} {K} vdp",
                                 f"10{'0' * 30}7 1 table", f"{p} {K} table extra"]))
    lines = draw(st.lists(texts, min_size=p**K, max_size=p**K + 1))
    return "\n".join([head, *lines])


@FUZZ
@given(table_like_texts())
def test_parse_table_text_on_table_like_text(text):
    only_format_errors(parse_table_text, text)


@st.composite
def key_objects(draw):
    data = draw(st.dictionaries(st.text(max_size=8), json_values, max_size=3))
    data["family"] = draw(st.sampled_from(list(FAMILIES)) | json_values)
    data["p"] = draw(numbers)
    data["precision"] = draw(st.integers(-1, 4) | json_values)
    fields = {
        "A": residue_texts | json_values,
        "a": residue_texts | json_values,
        "s": small_ints | json_values,
        "rows": st.lists(st.lists(small_ints, max_size=4), max_size=4) | json_values,
        "exponents": st.lists(small_ints, max_size=4) | json_values,
        "g": st.sampled_from(G_CHOICES) | json_values,
        "ga": residue_texts | json_values,
        "gb": residue_texts | json_values,
    }
    for name in draw(st.sets(st.sampled_from(sorted(fields)))):
        data[name] = draw(fields[name])
    return data


@FUZZ
@given(key_objects())
def test_key_from_json(data):
    only_format_errors(key_from_json, data)


# Text over the formula alphabet reaches the parser's deeper branches; its
# digits are decimal ones in two scripts, which int() reads, and
# superscripts, which it does not.
formula_texts = st.text(max_size=60) | st.text(
    alphabet="xyz_09٣²¹ +*(),XORANDGLINSTA1234", max_size=60)


@FUZZ
@example("x + ²", PadicContext(5, 16))
@example("1" * 5000, PadicContext(5, 16))
@given(formula_texts, st.sampled_from([PadicContext(5, 16), PadicContext(2, 1)]))
def test_parse_formula(text, ctx):
    only_format_errors(parse, text, ctx)


# -- the CLI -------------------------------------------------------------------------------

FORMULAS = ["x + y", "x * y + 2", "XOR(x, y)", "AND(x, 3)", "G1(x, y) + x", "STAR(x, y)",
            "G2(x, G3(y, x))", "GLIN(x, y)", "x + z", "x +", "1" * 40]
OPERATIONS = ["ADD", "MUL", "XOR", "AND", "G1", "G2", "G3", "G4", "GLIN", "NAND"]


@st.composite
def cli_sessions(draw):
    """A keygen under a random family, p <= 13 and K <= 6, then one command of a
    random kind with flags from ranges that keep each run small."""
    # Mostly primes and admitted precisions, so that most keys are drawn.
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 9, 1, -3]))
    K = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 0]))
    context = ["--p", str(p), "--precision", str(K)]
    seed = ["--seed", str(draw(st.integers(-2, 99)))]
    family = draw(st.sampled_from(sorted(FAMILIES)))
    g = []
    if family == "fhe" and draw(st.booleans()):
        g = ["--g", draw(st.sampled_from(G_CHOICES))]
    keygen = ["keygen", "--family", family, *context, *seed, *g, "--out", "k.key"]
    kind = draw(st.sampled_from(["keygen", "encrypt", "decrypt", "eval", "check",
                                 "check-table", "search", "demo"]))
    if kind == "keygen":
        commands = [keygen]
    elif kind in ("encrypt", "decrypt"):
        value = draw(st.integers(-3, 10**6).map(str) | st.sampled_from(["5:2:1,4", "x"]))
        commands = [keygen, [kind, "--key", "k.key", value]]
    elif kind == "eval":
        subject = ["--key", "k.key"] if draw(st.booleans()) else context
        formula = draw(st.sampled_from(FORMULAS))
        env = [arg for name in draw(st.lists(st.sampled_from("xyz"), unique=True))
               for arg in ("--env", f"{name}={draw(st.integers(-3, 10**4))}")]
        commands = [keygen, ["eval", *subject, "--formula", formula, *env, *seed]]
    elif kind.startswith("check"):
        flags = {
            "--measure": [], "--out": ["t.txt"], "--seed": seed[1:],
            "--trials": [str(draw(st.integers(1, 2000)))],
            "--exhaustive-k": [str(draw(st.integers(0, 2)))],
        }
        chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True, max_size=3))
        commands = [keygen, ["check", "--key", "k.key",
                             *(arg for flag in chosen for arg in (flag, *flags[flag]))]]
        if kind == "check-table":
            commands.append(["check", "--table", "t.txt"])
    elif kind == "search":
        first, second = draw(st.lists(st.sampled_from(OPERATIONS), min_size=2, max_size=2))
        depth = (["--exhaustive-k", str(draw(st.integers(0, 2)))]
                 if draw(st.booleans()) else [])
        commands = [["search", first, second, *context, *seed, *depth,
                     "--keys", str(draw(st.integers(1, 3)))]]
    else:
        commands = [["demo", *context, *seed]]
    json_mode = draw(st.booleans())
    return [[*argv, *["--json"] * json_mode] for argv in commands]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cli_sessions())
def test_cli_commands_end_quickly_with_a_documented_exit_code(session):
    with tempfile.TemporaryDirectory() as directory:
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            for argv in session:
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = run_command(argv)
                assert code in (0, 2, 3, 4, 5), argv
                assert time.perf_counter() - start < 2, argv
        finally:
            os.chdir(cwd)


# Hand-written multiplicative keys at the largest admitted p and K, which keygen
# cannot draw (DRAW_BUDGET): there the kernel lifts each first digit by Newton's
# step and runs the binomial tail to full order, in well under a second a command.
BIG_PRIME = 3317044064679887385961813  # the largest prime below core.PRIME_BOUND
LARGEST_KEYS = [
    {"A": "2", "s": 1, "a": "3"},
    {"A": str(BIG_PRIME**64 - 2), "s": BIG_PRIME - 2, "a": str(BIG_PRIME**64 - 1)},
    {"A": str(7 * BIG_PRIME**40 + 5), "s": 5, "a": str(3**160 + BIG_PRIME)},
]


def _run_timed(argv: list[str], seconds: float):
    """The JSON output of a CLI command that exits 0 within the given time."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run_command([*argv, "--json"])
    assert code == 0, argv
    assert time.perf_counter() - start < seconds, argv
    return json.loads(out.getvalue())["output"]


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(LARGEST_KEYS[1], 0, BIG_PRIME**64 - 2)  # a unit: the tail runs to z^63
@example(LARGEST_KEYS[2], 1, 5**150)
@given(st.sampled_from(LARGEST_KEYS), st.integers(0, 63), st.integers(1, BIG_PRIME**64 - 1))
def test_cli_round_trips_at_the_largest_admitted_p_and_k(fields, k, x):
    x = x * BIG_PRIME**k % BIG_PRIME**64  # of valuation k or more, or zero
    key = {"family": "multiplicative", "p": BIG_PRIME, "precision": 64, **fields}
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "k.key")
        with open(path, "w") as fh:
            json.dump(key, fh)
        y = _run_timed(["encrypt", "--key", path, str(x)], 1)
        assert _run_timed(["decrypt", "--key", path, str(y)], 1) == x
