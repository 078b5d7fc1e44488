import random

import pytest

from padic_ciphers.core import DomainError, PadicContext, valuation
from padic_ciphers.lipschitz import (
    CoordRep,
    NotOneLipschitzError,
    ValueTable,
    VdpSeries,
    check_measure_bruteforce,
    check_measure_coord,
    check_measure_vdp,
    check_one_lipschitz,
    chi,
    coord_from_table,
    digit_length,
    parse_table_text,
    random_one_lipschitz_table,
    serialize_table_text,
    table_from_coord,
    vdp_eval,
    vdp_interpolate,
    vdp_to_table,
)
from test_lipschitz_kernels import subfn

C32 = PadicContext(3, 2)
C33 = PadicContext(3, 3)
C34 = PadicContext(3, 4)
C52 = PadicContext(5, 2)
C53 = PadicContext(5, 3)


def identity_table(ctx):
    return ValueTable.from_callable(ctx, lambda x: x)


def affine_table(ctx, a, b=0):
    return ValueTable.from_callable(ctx, lambda x: a * x + b)


def test_chi_examples():
    x13, x7, x9, x1 = (C34.integer(v) for v in (13, 7, 9, 1))
    assert chi(4, x13) == 1  # 13 = 4 mod 9
    assert chi(4, x7) == 0
    # m = 0 has digit length 1: chi(0, x) tests the first digit only
    assert chi(0, x9) == 1
    assert chi(0, x1) == 0
    assert digit_length(0, 3) == 1 and digit_length(8, 3) == 2 and digit_length(9, 3) == 3


def test_chi_marks_exactly_the_prefixes():
    for xv in C33.residues():
        x = C33.integer(xv)
        prefixes = {xv % 3, xv % 9, xv % 27}
        marked = {m for m in C33.residues() if chi(m, x) == 1}
        assert marked == prefixes


def test_vdp_interpolate_identity_example():
    series = vdp_interpolate(identity_table(C32))
    assert series.B == (0, 1, 2, 3, 3, 3, 6, 6, 6)
    assert vdp_eval(series, C32.integer(5)).value == 5  # B_2 + B_5 = 2 + 3


def test_vdp_interpolate_doubling_coefficient():
    series = vdp_interpolate(affine_table(C32, 2))
    assert series.B[3] == 6


def test_vdp_constant_function():
    c = 7
    series = vdp_interpolate(ValueTable.from_callable(C33, lambda x: c))
    assert series.B[:3] == (c, c, c) and set(series.B[3:]) == {0}
    for xv in C33.residues():
        assert vdp_eval(series, C33.integer(xv)).value == c


def test_vdp_roundtrip_exhaustive():
    rng = random.Random(3)
    tables = [identity_table(C32), affine_table(C32, 2), affine_table(C33, 5, 4)]
    tables += [random_one_lipschitz_table(C33, rng) for _ in range(20)]
    for t in tables:
        assert vdp_to_table(vdp_interpolate(t)).values == t.values


def test_check_one_lipschitz():
    assert check_one_lipschitz(identity_table(C33))
    assert check_one_lipschitz(affine_table(C33, 7, 2))
    # digit shift down x -> floor(x/p) is not 1-Lipschitz: witness x=0, y=p
    shift_down = ValueTable.from_callable(C33, lambda x: x // 3)
    assert shift_down.values[0] == 0 and shift_down.values[3] == 1
    assert not check_one_lipschitz(shift_down)
    # series form of the same verdicts
    assert check_one_lipschitz(vdp_interpolate(identity_table(C33)))
    assert not check_one_lipschitz(vdp_interpolate(shift_down))


def test_lipschitz_verdict_matches_through_interpolation():
    rng = random.Random(5)
    for _ in range(30):
        values = tuple(rng.randrange(27) for _ in range(27))
        t = ValueTable(C33, values)
        assert check_one_lipschitz(t) == check_one_lipschitz(vdp_interpolate(t))


def test_normalized_coefficient_accessor():
    series = vdp_interpolate(identity_table(C32))
    assert [series.b(m) for m in range(9)] == [0, 1, 2, 1, 1, 1, 2, 2, 2]
    bad = VdpSeries(C32, (0, 1, 2, 1, 3, 3, 6, 6, 6))  # B_3 = 1 not divisible by 3
    with pytest.raises(NotOneLipschitzError):
        bad.b(3)


def test_coord_roundtrip_and_example():
    t = affine_table(C32, 2)
    coord = coord_from_table(t)
    # phi_0 is x0 -> 2*x0 mod 3
    assert subfn(coord, 0, 0) == (0, 2, 1)
    assert table_from_coord(coord).values == t.values
    rng = random.Random(9)
    for _ in range(20):
        t = random_one_lipschitz_table(C52, rng)
        assert table_from_coord(coord_from_table(t)).values == t.values
    with pytest.raises(NotOneLipschitzError):
        coord_from_table(ValueTable.from_callable(C33, lambda x: x // 3))


def test_coord_digit_depends_only_on_prefix():
    # delta_k of any output depends only on input digits 0..k
    rng = random.Random(13)
    t = random_one_lipschitz_table(C33, rng)
    for xv in range(27):
        for k in range(3):
            pk1 = 3 ** (k + 1)
            for other in range(27):
                if other % pk1 == xv % pk1:
                    assert (t.values[other] // 3**k) % 3 == (t.values[xv] // 3**k) % 3


def test_measure_checks_examples():
    ident = identity_table(C33)
    assert check_measure_bruteforce(ident)
    assert check_measure_vdp(vdp_interpolate(ident))
    assert check_measure_coord(coord_from_table(ident))

    # f(x) = 3x at p=3 collapses everything mod 3
    tripling = affine_table(C33, 3)
    assert not check_measure_bruteforce(tripling)
    assert not check_measure_vdp(vdp_interpolate(tripling))
    assert not check_measure_coord(coord_from_table(tripling))

    doubling5 = affine_table(C53, 2)
    assert check_measure_bruteforce(doubling5)
    assert check_measure_vdp(vdp_interpolate(doubling5))
    assert check_measure_coord(coord_from_table(doubling5))

    # f(x) = p*x fails the complete-residue-system condition (1)
    times_p = affine_table(C33, 3)
    series = vdp_interpolate(times_p)
    assert {series.b(m) % 3 for m in range(3)} != {0, 1, 2}


def test_three_criteria_agree_on_random_tables():
    rng = random.Random(21)
    seen = {True: 0, False: 0}
    for ctx in (C33, C52):
        for _ in range(120):
            t = random_one_lipschitz_table(ctx, rng, permutation_bias=0.7)
            brute = check_measure_bruteforce(t)
            assert check_measure_vdp(vdp_interpolate(t)) == brute
            assert check_measure_coord(coord_from_table(t)) == brute
            seen[brute] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_weak_level2_reading_disagrees_with_bruteforce():
    # permutations everywhere except one broken level-1 sub-function: the
    # min_level=2 variant is blind to the break, brute force is not
    phi0 = (0, 1, 2)
    phi1 = [0] * 9
    for prefix in range(3):
        sub = (0, 0, 0) if prefix == 0 else (0, 1, 2)
        for d in range(3):
            phi1[prefix + 3 * d] = sub[d]
    phi2 = tuple((a // 9) % 3 for a in range(27))  # identity on the last digit
    coord = CoordRep(C33, (phi0, tuple(phi1), phi2))
    t = table_from_coord(coord)
    series = vdp_interpolate(t)
    assert not check_measure_bruteforce(t)
    assert not check_measure_vdp(series, min_level=1)
    assert check_measure_vdp(series, min_level=2)


def test_permutation_bias_one_is_measure_preserving():
    rng = random.Random(2)
    for _ in range(25):
        t = random_one_lipschitz_table(C33, rng, permutation_bias=1.0)
        assert check_measure_bruteforce(t)


def test_vdp_eval_is_one_lipschitz():
    rng = random.Random(31)
    for _ in range(10):
        t = random_one_lipschitz_table(C34, rng)
        series = vdp_interpolate(t)
        for _ in range(40):
            xv, yv = rng.randrange(81), rng.randrange(81)
            x, y = C34.integer(xv), C34.integer(yv)
            fx, fy = vdp_eval(series, x), vdp_eval(series, y)
            assert valuation(fx - fy) >= valuation(x - y)


def test_serialization_roundtrip():
    rng = random.Random(17)
    t = random_one_lipschitz_table(C32, rng)
    text = serialize_table_text(t)
    assert text.splitlines()[0] == "3 2 table"
    back = parse_table_text(text)
    assert isinstance(back, ValueTable) and back == t

    series = vdp_interpolate(t)
    b2 = parse_table_text(serialize_table_text(series))
    assert isinstance(b2, VdpSeries) and b2 == series

    # plain integers are accepted entry-wise
    plain = "3 2 table\n" + "\n".join(str(v) for v in t.values) + "\n"
    assert parse_table_text(plain) == t

    from padic_ciphers.core import FormatError

    with pytest.raises(FormatError):
        parse_table_text("")
    with pytest.raises(FormatError):
        parse_table_text("3 2 soup\n0\n")
    with pytest.raises(FormatError):
        parse_table_text("3 2 table\n0\n1\n")


# -- shape and range refusals, to the letter -----------------------------------------


@pytest.mark.parametrize("build, message", [
    (lambda: ValueTable(C32, (0,) * 8), "table needs 9 entries, got 8"),
    (lambda: ValueTable(C32, (0,) * 8 + (9,)), "table entry 9 out of range"),
    (lambda: ValueTable(C32, (-1,) + (0,) * 8), "table entry -1 out of range"),
    (lambda: ValueTable(PadicContext(2, 21), ()),
     "table of size p**K = 2097152 exceeds the limit 1048576"),
    (lambda: VdpSeries(C32, (0,) * 10), "series needs 9 coefficients, got 10"),
    (lambda: VdpSeries(C32, (0,) * 8 + (9,)), "coefficient 9 out of range"),
    (lambda: VdpSeries(PadicContext(2, 21), ()),
     "table of size p**K = 2097152 exceeds the limit 1048576"),
    (lambda: CoordRep(C32, ((0, 1, 2),)), "need 2 digit functions, got 1"),
    (lambda: CoordRep(C32, ((0, 1, 2), (0,) * 8)), "phi_1 needs 9 entries"),
    (lambda: CoordRep(C32, ((0, 3, 2), (0,) * 9)), "phi_0 value 3 is not a digit"),
], ids=range(10))
def test_representations_refuse_a_wrong_shape_or_range(build, message):
    with pytest.raises(DomainError) as info:
        build()
    assert str(info.value) == message
