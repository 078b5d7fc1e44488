"""Differential test of the level-by-level ``lipschitz`` kernels against the
per-entry reference implementations they replaced.

The reference functions below are the former bodies of the table-text
writer and reader, the 1-Lipschitz table check, the series and coordinate
measure criteria and the two inverse maps: they build a ``PadicInt`` (and a
digit tuple) per entry, or compute a power of p per entry.  Each new kernel
must give the identical text, values and verdicts, or raise the identical
exception with the identical message.
"""

from __future__ import annotations

import tracemalloc
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_ciphers.ciphers import FAMILIES, encryption_table, keygen
from padic_ciphers.core import (
    DomainError,
    FormatError,
    PadicContext,
    PadicError,
    PadicInt,
)
from padic_ciphers.lipschitz import (
    CoordRep,
    NotOneLipschitzError,
    ValueTable,
    VdpSeries,
    _canonical_entries,
    check_measure_bruteforce,
    check_measure_coord,
    check_measure_vdp,
    check_one_lipschitz,
    coord_from_table,
    parse_table_text,
    random_one_lipschitz_table,
    serialize_table_text,
    table_from_coord,
    vdp_eval,
    vdp_interpolate,
    vdp_to_table,
)

# -- reference implementations ---------------------------------------------------


def ref_vdp_to_table(series: VdpSeries) -> ValueTable:
    ctx = series.ctx
    return ValueTable.from_callable(
        ctx, lambda x: vdp_eval(series, PadicInt(ctx, x)).value
    )


def ref_check_one_lipschitz(obj: ValueTable | VdpSeries) -> bool:
    """Table: x = y mod p^j implies f(x) = f(y) mod p^j for all j.
    Series: p**(digits(m)-1) divides B_m for all m."""
    if isinstance(obj, VdpSeries):
        p = obj.ctx.p
        q, pn = 1, p
        for m, coeff in enumerate(obj.B):
            if m == pn:
                q *= p
                pn *= p
            if coeff % q:
                return False
        return True
    ctx = obj.ctx
    p = ctx.p
    values = obj.values
    for j in range(1, ctx.precision):
        pj = p**j
        for x in range(ctx.modulus):
            if (values[x] - values[x % pj]) % pj:
                return False
    return True


def ref_table_from_coord(coord: CoordRep) -> ValueTable:
    ctx = coord.ctx
    p = ctx.p

    def fn(x: int) -> int:
        total, pk = 0, 1
        for k in range(ctx.precision):
            pk1 = pk * p
            total += coord.phi[k][x % pk1] * pk
            pk = pk1
        return total

    return ValueTable.from_callable(ctx, fn)


def ref_check_measure_vdp(series: VdpSeries, min_level: int = 1) -> bool:
    if min_level < 1:
        raise DomainError("min_level must be >= 1")
    ctx = series.ctx
    p = ctx.p
    nonzero = frozenset(range(1, p))
    if {series.b(m) % p for m in range(p)} != frozenset(range(p)):
        return False
    for k in range(min_level, ctx.precision):
        pk = p**k
        for m in range(pk):
            if {series.b(m + i * pk) % p for i in range(1, p)} != nonzero:
                return False
    return True


def subfn(coord: CoordRep, k: int, prefix: int) -> tuple[int, ...]:
    """phi_k restricted to a fixed length-k prefix, as a map on digits."""
    p = coord.ctx.p
    return tuple(coord.phi[k][prefix + d * p**k] for d in range(p))


def ref_check_measure_coord(coord: CoordRep) -> bool:
    """Every one-digit sub-function (phi_0 included) must be a bijection."""
    ctx = coord.ctx
    p = ctx.p
    for k in range(ctx.precision):
        for prefix in range(p**k):
            if len(set(subfn(coord, k, prefix))) != p:
                return False
    return True


def ref_vdp_interpolate(table: ValueTable) -> VdpSeries:
    ctx = table.ctx
    p, modulus = ctx.p, ctx.modulus
    B = list(table.values[:p])
    pn = p
    while pn < modulus:
        for m in range(pn, pn * p):
            B.append((table.values[m] - table.values[m % pn]) % modulus)
        pn *= p
    return VdpSeries(ctx, tuple(B))


def ref_coord_from_table(table: ValueTable) -> CoordRep:
    if not check_one_lipschitz(table):
        raise NotOneLipschitzError("coordinate form exists only for 1-Lipschitz tables")
    ctx = table.ctx
    p = ctx.p
    phi = []
    pk = 1
    for k in range(ctx.precision):
        pk1 = pk * p
        phi.append(tuple((table.values[a] // pk) % p for a in range(pk1)))
        pk = pk1
    return CoordRep(ctx, tuple(phi))


def ref_check_measure_bruteforce(table: ValueTable) -> bool:
    ctx = table.ctx
    for k in range(1, ctx.precision + 1):
        pk = ctx.p**k
        if len({table.values[x] % pk for x in range(pk)}) != pk:
            return False
    return True


def ref_serialize_table_text(obj: ValueTable | VdpSeries) -> str:
    """Line format: header ``p K kind``, then one residue per line."""
    kind = "table" if isinstance(obj, ValueTable) else "vdp"
    ctx = obj.ctx
    entries = obj.values if isinstance(obj, ValueTable) else obj.B
    lines = [f"{ctx.p} {ctx.precision} {kind}"]
    lines.extend(str(PadicInt(ctx, v)) for v in entries)
    return "\n".join(lines) + "\n"


def ref_parse_table_text(text: str) -> ValueTable | VdpSeries:
    from padic_ciphers.core import from_text

    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty table file")
    head = lines[0].split()
    if len(head) != 3 or head[2] not in ("table", "vdp"):
        raise FormatError(f"bad header {lines[0]!r}; expected 'p K table' or 'p K vdp'")
    try:
        ctx = PadicContext(int(head[0]), int(head[1]))
    except (ValueError, DomainError) as exc:
        raise FormatError(f"bad header {lines[0]!r}: {exc}") from exc
    if len(lines) - 1 != ctx.modulus:
        raise FormatError(
            f"expected {ctx.modulus} entries, found {len(lines) - 1}"
        )
    entries = tuple(from_text(ln, ctx).value for ln in lines[1:])
    if head[2] == "table":
        return ValueTable(ctx, entries)
    return VdpSeries(ctx, entries)


# -- cases -----------------------------------------------------------------------


def outcome(fn, *args):
    """The value fn returns, or the type and message of the error it raises."""
    try:
        return "ok", fn(*args)
    except PadicError as exc:
        return type(exc), str(exc)


CONTEXTS = [(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 1), (5, 3),
            (7, 1), (7, 3), (11, 1), (11, 2), (13, 1), (13, 2)]


def tables(p: int, K: int) -> list[tuple[str, ValueTable]]:
    """Measure-preserving, random 1-Lipschitz, non-Lipschitz and encryption tables."""
    ctx = PadicContext(p, K)
    rng = Random(p * 100 + K)
    out = [(f"preserving {i}", random_one_lipschitz_table(ctx, rng, 1.0)) for i in range(2)]
    out += [(f"lipschitz {i}", random_one_lipschitz_table(ctx, rng, 0.6)) for i in range(3)]
    out += [(f"arbitrary {i}", ValueTable(ctx, tuple(rng.randrange(ctx.modulus)
                                                     for _ in range(ctx.modulus))))
            for i in range(2)]
    for family in FAMILIES:
        if p == 2 and family in ("multiplicative", "fhe"):
            continue  # both families need odd p
        out.append((family, encryption_table(keygen(ctx, family, rng))))
    return out


def corrupted(series: VdpSeries, rng: Random, n: int) -> VdpSeries:
    """The series with n coefficients redrawn: mixes early False with late raises."""
    B = list(series.B)
    for _ in range(n):
        B[rng.randrange(len(B))] = rng.randrange(series.ctx.modulus)
    return VdpSeries(series.ctx, tuple(B))


@pytest.mark.parametrize("p,K", CONTEXTS)
def test_kernels_match_the_per_entry_reference(p, K):
    rng = Random(K * 1000 + p)
    for what, table in tables(p, K):
        series = vdp_interpolate(table)
        for obj in (table, series):
            text = serialize_table_text(obj)
            assert text == ref_serialize_table_text(obj), what
            assert parse_table_text(text) == ref_parse_table_text(text) == obj, what
            assert check_one_lipschitz(obj) == ref_check_one_lipschitz(obj), what
        assert vdp_to_table(series) == ref_vdp_to_table(series) == table, what
        for s in (series, corrupted(series, rng, 1), corrupted(series, rng, 3)):
            assert vdp_to_table(s) == ref_vdp_to_table(s), what
            for min_level in (1, 2):
                got = outcome(check_measure_vdp, s, min_level)
                assert got == outcome(ref_check_measure_vdp, s, min_level), (what, min_level)
        if check_one_lipschitz(table):
            coord = coord_from_table(table)
            assert check_measure_coord(coord) == ref_check_measure_coord(coord), what
            assert table_from_coord(coord) == ref_table_from_coord(coord) == table, what


@pytest.mark.parametrize("p,K", CONTEXTS)
def test_level_slices_match_the_per_entry_reference(p, K):
    rng = Random(K * 1000 + p + 1)
    for what, table in tables(p, K):
        values = list(table.values)
        values[0] = values[rng.randrange(1, len(values))]  # a collision at x = 0
        for t in (table, ValueTable(table.ctx, tuple(values))):
            assert vdp_interpolate(t) == ref_vdp_interpolate(t), what
            assert outcome(coord_from_table, t) == outcome(ref_coord_from_table, t), what
            assert check_measure_bruteforce(t) == ref_check_measure_bruteforce(t), what


def test_measure_vdp_raises_or_returns_in_visiting_order():
    ctx = PadicContext(3, 3)
    B = list(vdp_interpolate(random_one_lipschitz_table(ctx, Random(4), 1.0)).B)
    B[9 + 4] += 1  # level 2, column m = 4: not divisible by 9
    late_break = list(B)
    late_break[9 + 5] = late_break[9 + 5 + 9]  # column m = 5 repeats a value
    early_break = list(B)
    early_break[9 + 2] = early_break[9 + 2 + 9]  # column m = 2 repeats a value
    late = VdpSeries(ctx, tuple(late_break))
    assert outcome(check_measure_vdp, late) == outcome(ref_check_measure_vdp, late) == (
        NotOneLipschitzError, f"B_13 = {B[13]} is not divisible by 9")
    early = VdpSeries(ctx, tuple(early_break))
    assert outcome(check_measure_vdp, early) == outcome(ref_check_measure_vdp, early) == (
        "ok", False)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 4), (3, 3), (5, 2), (11, 2)]), st.data())
def test_random_coordinate_forms_match(pk, data):
    p, K = pk
    ctx = PadicContext(p, K)
    phi = tuple(
        tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=p ** (k + 1),
                                 max_size=p ** (k + 1))))
        for k in range(K)
    )
    coord = CoordRep(ctx, phi)
    assert table_from_coord(coord) == ref_table_from_coord(coord)
    assert check_measure_coord(coord) == ref_check_measure_coord(coord)


@pytest.mark.parametrize("p,K", [(2, 3), (3, 2), (5, 2)])
def test_coordinate_criterion_sees_each_single_broken_subfunction(p, K):
    coord = coord_from_table(random_one_lipschitz_table(PadicContext(p, K), Random(p), 1.0))
    assert check_measure_coord(coord)
    for k, row in enumerate(coord.phi):
        pk = p**k
        for prefix in range(pk):
            broken = list(row)
            broken[prefix + pk] = broken[prefix]  # sub-function maps digits 0 and 1 alike
            phi = coord.phi[:k] + (tuple(broken),) + coord.phi[k + 1:]
            one_broken = CoordRep(coord.ctx, phi)
            assert check_measure_coord(one_broken) is ref_check_measure_coord(one_broken) is False


# Levels of more than 4096 digits, which the criteria decide a block of
# columns at a time: one sub-function or band column broken in the first or
# the last block.
@pytest.mark.parametrize("p,K", [(2, 13), (3, 9)])
def test_measure_criteria_match_the_reference_across_blocks(p, K):
    ctx = PadicContext(p, K)
    table = random_one_lipschitz_table(ctx, Random(K), 1.0)
    coord, series = coord_from_table(table), vdp_interpolate(table)
    assert check_measure_coord(coord) and check_measure_vdp(series)
    pk = p ** (K - 1)
    for column in (0, pk - 1):
        row = list(coord.phi[-1])
        row[column + pk] = row[column]
        broken = CoordRep(ctx, coord.phi[:-1] + (tuple(row),))
        assert check_measure_coord(broken) is ref_check_measure_coord(broken) is False
        zero, repeat = list(series.B), list(series.B)
        zero[pk + column] = 0  # b = 0: divisible, but not a nonzero residue
        repeat[pk + column] = repeat[pk + column + pk] if p > 2 else 0
        for B in (zero, repeat):
            s = VdpSeries(ctx, tuple(B))
            assert check_measure_vdp(s) is ref_check_measure_vdp(s) is False, column


def test_measure_vdp_min_level_below_one_is_refused():
    series = vdp_interpolate(random_one_lipschitz_table(PadicContext(3, 2), Random(1)))
    assert outcome(check_measure_vdp, series, 0) == outcome(ref_check_measure_vdp, series, 0)


# -- the one-pass reading of canonical text ------------------------------------


def near_canonical(text: str, p: int, K: int) -> list[tuple[str, str]]:
    """Variants of a canonical text whose entry lines the one-pass reading
    must refuse."""
    head, _, body = text.partition("\n")
    lines = body.splitlines()
    prefix = f"{p}:{K}:"
    return [
        ("crlf", text.replace("\n", "\r\n")),
        ("leading space", head + "\n " + body),
        ("trailing space", text[:-1] + " \n"),
        ("blank line", head + "\n\n" + body),
        ("no final newline", text[:-1]),
        ("one line too many", text + lines[0] + "\n"),
        ("one line too few", head + "\n" + "\n".join(lines[1:]) + "\n"),
        ("line swapped for a decimal", head + "\n" + "\n".join(["0"] + lines[1:]) + "\n"),
        ("K + 1 digits", head + "\n" + "\n".join([lines[0] + ",0"] + lines[1:]) + "\n"),
        ("K - 1 digits", head + "\n" + "\n".join(
            [lines[0].rpartition(",")[0] or prefix] + lines[1:]) + "\n"),
        ("form feed", text[:-1] + "\x0c\n"),
        ("text after the last newline", text + lines[0]),
        ("carriage returns only", text.replace("\n", "\r")),
        ("leading zero", head + "\n" + "\n".join(
            [prefix + "0" + lines[0][len(prefix):]] + lines[1:]) + "\n"),
        ("digit p", head + "\n" + "\n".join(
            [prefix + ",".join([str(p)] + ["0"] * (K - 1))] + lines[1:]) + "\n"),
        # One character, as wide as the digit it replaces, but two UTF-8 bytes.
        ("non-ascii digit", text[:-2] + "٠١٢٣٤٥٦٧٨٩"[int(text[-2])] + "\n"),
    ] + [(what, head + "\n" + "\n".join(off) + "\n") for what, off in one_line_off(lines, p, K)]


def one_line_off(lines: list[str], p: int, K: int) -> list[tuple[str, list[str]]]:
    """The entry lines with one of them, as wide as a canonical one, given
    another prefix (digits below p where the prefix's were, where there are
    such, so only the column check sees it), a digit p, a comma moved, or a
    carriage return for its newline."""
    prefix, i = f"{p}:{K}:", (len(lines) - 1) // 2
    digits = lines[i][len(prefix):]
    other_k = min(range(1, 10), key=lambda k: (k == K, k >= p)) if K < 10 else K + 1
    off = {"prefix of another K": f"{p}:{other_k}:{digits}",
           "prefix of another p": f"{3 if p == 2 else p - 2}:{K}:{digits}",
           "digit p at a line's end": lines[i][:-1] + str(p),
           "carriage return line end": lines[i] + "\r" + lines[i + 1]}
    if K > 1 and p <= 10:  # one-character digits: d0,d1 -> d0d1, and d0 0 d1
        c = len(prefix) + 1
        off["comma moved"] = lines[i][:c] + lines[i][c + 1] + "," + lines[i][c + 2:]
        off["digit in a comma's place"] = lines[i][:c] + "0" + lines[i][c + 1:]
    return [(what, lines[:i] + [line] + lines[i + (2 if what.startswith("carriage") else 1):])
            for what, line in off.items()]


# The contexts with p >= 11 write two-character digits, which only from_text reads.
@pytest.mark.parametrize("p,K", CONTEXTS)
def test_one_pass_reading_matches_the_per_line_path(p, K):
    for what, table in tables(p, K)[:3]:
        for obj in (table, vdp_interpolate(table)):
            text = serialize_table_text(obj)
            body = text.partition("\n")[2]
            values = obj.values if isinstance(obj, ValueTable) else obj.B
            assert _canonical_entries(body, obj.ctx) == (list(values) if p <= 10 else None)
            assert outcome(parse_table_text, text) == outcome(ref_parse_table_text, text)
            for variant, other in near_canonical(text, p, K):
                other_body = other.partition("\n")[2]
                assert _canonical_entries(other_body, obj.ctx) is None, variant
                got = outcome(parse_table_text, other)
                assert got == outcome(ref_parse_table_text, other), (what, variant)
            # Off-spelled headers over canonical entry lines.
            head = text.partition("\n")[0]
            for other in (text.replace("\n", "\r\n", 1), text.replace("\n", "\r", 1),
                          text.replace("\n", "\x0c", 1), "  " + text,
                          "\n \n" + text, "\x0c" + text, head + "\x0c" + text[len(head):]):
                assert outcome(parse_table_text, other) == outcome(ref_parse_table_text, other)


def test_a_line_of_another_precision_is_read_as_the_reference_reads_it():
    """In a 7 5 table the digits 3 and 5 both read as 0 in the template check,
    so only the prefix check refuses a line that starts 7:3:."""
    ctx = PadicContext(7, 5)
    lines = serialize_table_text(random_one_lipschitz_table(ctx, Random(75), 0.5)).split("\n")
    for i in (1, 2401, len(lines) - 2):
        text = "\n".join(lines[:i] + ["7:3:" + lines[i][4:]] + lines[i + 1:])
        assert _canonical_entries(text.partition("\n")[2], ctx) is None
        assert outcome(parse_table_text, text) == outcome(ref_parse_table_text, text)


def test_reading_canonical_text_encodes_it_a_chunk_at_a_time():
    text = serialize_table_text(random_one_lipschitz_table(PadicContext(2, 16), Random(16), 1.0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        table = parse_table_text(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(table.values) == 2**16
    # The body and the parsed values take about 2.3 times the text; a reader
    # that encoded the whole body at once would take about 3.1 times.
    assert peak <= 2.6 * len(text), peak / len(text)


# -- entry lines drawn from a grammar ------------------------------------------


LINE_KINDS = ("canonical", "decimal", "leading-zero", "space", "sign", "underscore",
              "non-ascii", "wrong-context", "digit-count", "two-char")


def _entry_line(draw, p: int, K: int, kinds: list[str]) -> str:
    kind = draw(st.sampled_from(kinds))
    digits = draw(st.lists(st.integers(0, p - 1), min_size=K, max_size=K))
    text = [str(d) for d in digits]
    i = draw(st.integers(0, K - 1))
    if kind == "decimal":
        return str(draw(st.integers(0, 3 * p**K)))
    if kind == "leading-zero":
        text[i] = "0" + text[i]
    elif kind == "space":
        text[i] = draw(st.sampled_from([" ", "\t", " "])) + text[i]
    elif kind == "sign":
        text[i] = draw(st.sampled_from(["+", "-"])) + text[i]
    elif kind == "underscore":
        text[i] = "1_0"
    elif kind == "non-ascii":
        text[i] = "٠١٢٣٤٥٦٧٨٩"[digits[i] % 10]
    elif kind == "digit-count":
        text = text[:-1] if draw(st.booleans()) else text + ["0"]
    elif kind == "two-char":
        text[i] = str(draw(st.integers(10, 13)))
    head = f"{p}:{K}:"
    if kind == "wrong-context":
        head = draw(st.sampled_from([f"{p}:{K + 1}:", f"{p + 2}:{K}:", f"0{p}:{K}:",
                                     f"{p}:{K}", f"{p}::{K}:"]))
    return head + ",".join(text)


@st.composite
def table_texts(draw):
    p, K = draw(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 1), (5, 2), (11, 1), (13, 1)]))
    kind = draw(st.sampled_from(["table", "vdp"]))
    # Most lines canonical, the rest of a few kinds: many texts parse, mixing
    # canonical lines with ones only from_text reads.
    kinds = ["canonical"] * 4 + sorted(draw(st.sets(st.sampled_from(LINE_KINDS), max_size=3)))
    lines = [_entry_line(draw, p, K, kinds) for _ in range(p**K)]
    return f"{p} {K} {kind}\n" + "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(table_texts())
# Every line as wide as a canonical one, the last holding a two-byte digit.
@example("2 3 table\n" + "".join(f"2:3:{x % 2},{x // 2 % 2},{x // 4}\n" for x in range(7))
         + "2:3:1,1,٠\n")
def test_parse_matches_reference_on_grammar_lines(text):
    assert outcome(parse_table_text, text) == outcome(ref_parse_table_text, text)
