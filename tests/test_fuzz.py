"""Fuzz test of the text and JSON entry points: on any input, parsing either
succeeds or raises ``FormatError``; no other exception escapes."""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from padic_ciphers.ciphers import FAMILIES, G_CHOICES, key_from_json
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
