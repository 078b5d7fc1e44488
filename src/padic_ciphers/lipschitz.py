"""Three interchangeable representations of 1-Lipschitz maps on Z_p at
precision K, with measure-preservation checks.

* ``ValueTable``: the full value table on residues mod p**K; it and a
  ``VdpSeries`` refuse any entries but p**K residues with one check.
* ``VdpSeries``: interpolation coefficients B_m over the indicator basis
  chi(m, .), where chi(m, x) = 1 iff the first n digits of x spell m
  (n = number of digits of m; n = 1 for m = 0).  A table is 1-Lipschitz
  exactly when p**(digits(m) - 1) divides B_m for every m.
* ``CoordRep``: digit functions phi_k with f(x) = sum p^k phi_k(x mod p^(k+1));
  the restriction of phi_k to a fixed length-k prefix is a one-digit
  sub-function, and f preserves Haar measure exactly when every sub-function
  is a bijection of the digit alphabet.

Measure preservation can be decided three ways (brute-force reductions,
series coefficient criterion, sub-function bijectivity); the criteria agree
on 1-Lipschitz inputs.  The series criterion is stated in its corrected form
with level-1 coefficient bands included; ``min_level=2`` reproduces a weaker
published variant that the tests demonstrate to disagree with brute force.

Every check and conversion works on plain residues, one level at a time:
level n of a table is the block of residues [p^n, p^(n+1)), compared with
the level below as whole slices (the 1-Lipschitz check compares each block
values[i:i+p^n] with values[:p^n] mod p^n), the series criterion reads level
k's band as B[p^k:p^(k+1)][m::p^k], and a coordinate sub-function is
phi_k[prefix::p^k].  A criterion decides a level with builtin passes over
whole slices (a set of the level's values, or of keys that make each
column's or sub-function's values distinct), and walks entries one at a
time only to name the first bad one or, in the series criterion, to keep
the order in which it raises or returns False.

The table text writes each canonical entry line from the digit texts of the
residue's low and high halves, built once per call.  For p <= 10 every digit
is one character, so canonical lines have one width and are read back by
digit columns: a chunk of lines is checked with one ``translate`` against a
template line, and its columns are summed as packed byte and 32-bit slots
of one integer.  For p >= 11 a digit may take two characters, and a regular
expression finds each line's halves among the same digit texts.  Any other
text goes to ``core.from_text`` line by line.
"""

from __future__ import annotations

import re
import sys
from operator import add
from random import Random
from typing import Callable

from .core import (DomainError, FormatError, PadicContext, PadicInt, PadicError, Record,
                   check_table_size, from_text)


class NotOneLipschitzError(PadicError):
    """A 1-Lipschitz table/series was required."""


def _check_residues(ctx: PadicContext, values: tuple[int, ...], needs: str, entry: str) -> None:
    """A table or series within the table limit, of p**K residues."""
    check_table_size(ctx)
    if len(values) != ctx.modulus:
        raise DomainError(f"{needs.format(ctx.modulus)}, got {len(values)}")
    if min(values) < 0 or max(values) >= ctx.modulus:
        v = next(v for v in values if not 0 <= v < ctx.modulus)
        raise DomainError(f"{entry} {v} out of range")


def digit_length(m: int, p: int) -> int:
    """Number of base-p digits of m; by convention 1 for m = 0."""
    if m < 0:
        raise DomainError("index must be non-negative")
    n = 1
    while m >= p:
        m //= p
        n += 1
    return n


class ValueTable(Record):
    """Residue-indexed value table of a map on Z/p**K."""

    ctx: PadicContext
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_residues(self.ctx, self.values, "table needs {} entries", "table entry")

    @classmethod
    def from_callable(cls, ctx: PadicContext, fn: Callable[[int], int]) -> "ValueTable":
        check_table_size(ctx)
        return cls(ctx, tuple(fn(x) % ctx.modulus for x in ctx.residues()))

    def __getitem__(self, x: int) -> int:
        return self.values[x]


class VdpSeries(Record):
    """Interpolation coefficients B_m, m in [0, p**K)."""

    ctx: PadicContext
    B: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_residues(self.ctx, self.B, "series needs {} coefficients", "coefficient")

    def b(self, m: int) -> int:
        """Normalized coefficient B_m / p**(digits(m)-1); raises when not divisible."""
        q = self.ctx.p ** (digit_length(m, self.ctx.p) - 1)
        if self.B[m] % q:
            raise NotOneLipschitzError(
                f"B_{m} = {self.B[m]} is not divisible by {q}"
            )
        return self.B[m] // q


class CoordRep(Record):
    """Digit functions phi_k indexed by the first k+1 input digits."""

    ctx: PadicContext
    phi: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        check_table_size(self.ctx)
        if len(self.phi) != self.ctx.precision:
            raise DomainError(
                f"need {self.ctx.precision} digit functions, got {len(self.phi)}"
            )
        for k, row in enumerate(self.phi):
            if len(row) != self.ctx.p ** (k + 1):
                raise DomainError(f"phi_{k} needs {self.ctx.p ** (k + 1)} entries")
            if min(row) < 0 or max(row) >= self.ctx.p:
                v = next(v for v in row if not 0 <= v < self.ctx.p)
                raise DomainError(f"phi_{k} value {v} is not a digit")


# -- indicator basis ----------------------------------------------------------


def chi(m: int, x: PadicInt) -> int:
    """The van der Put indicator basis: 1 iff x = m mod p**n, where n is the
    digit length of m (1 for m = 0)."""
    p = x.ctx.p
    if not 0 <= m < x.ctx.modulus:
        raise DomainError(f"index {m} out of range [0, {x.ctx.modulus})")
    n = digit_length(m, p)
    return 1 if (x.value - m) % p**n == 0 else 0


def vdp_eval(series: VdpSeries, x: PadicInt) -> PadicInt:
    """The van der Put series sum of B_m chi(m, x) at x: B summed over the
    distinct digit prefixes of x, the indices with chi = 1."""
    if series.ctx is not x.ctx and series.ctx != x.ctx:
        raise DomainError("series and argument contexts differ")
    ctx = series.ctx
    p = ctx.p
    total = series.B[x.value % p]
    pj = p
    for _ in range(2, ctx.precision + 1):
        prev, pj = pj, pj * p
        m = x.value % pj
        if m >= prev:  # leading digit nonzero: a new prefix value
            total += series.B[m]
    return PadicInt(ctx, total % ctx.modulus)


def vdp_interpolate(table: ValueTable) -> VdpSeries:
    """Coefficients with B_m = t[m] for m < p and
    B_m = t[m] - t[m without its leading digit] otherwise."""
    ctx, values = table.ctx, table.values
    p, modulus = ctx.p, ctx.modulus
    B = list(values[:p])
    pn = p
    while pn < modulus:
        B += [(v - a) % modulus for v, a in zip(values[pn:pn * p], values[:pn] * (p - 1))]
        pn *= p
    return VdpSeries(ctx, tuple(B))


def vdp_to_table(series: VdpSeries) -> ValueTable:
    """Inverse of ``vdp_interpolate``: t[m] = B_m for m < p, and level by level
    t[m] = B_m + t[m mod p^n] for m in [p^n, p^(n+1))."""
    ctx = series.ctx
    p, modulus, B = ctx.p, ctx.modulus, series.B
    t = list(B[:p])
    pn = p
    while pn < modulus:
        t += [(b + a) % modulus for b, a in zip(B[pn:pn * p], t * (p - 1))]
        pn *= p
    return ValueTable(ctx, tuple(t))


# -- 1-Lipschitz checks --------------------------------------------------------


def check_one_lipschitz(obj: ValueTable | VdpSeries) -> bool:
    """Table: x = y mod p^j implies f(x) = f(y) mod p^j for all j.  A series
    is checked as its table: B_m = t[m] - t[m without its lead digit], so
    p**(digits(m)-1) divides B_m exactly when the table passes that level."""
    if isinstance(obj, VdpSeries):
        obj = vdp_to_table(obj)
    # Comparing each level with its parent suffices: given f(x) = f(x mod p^n)
    # mod p^n for every n and every x < p^(n+1), the congruences chain from x
    # down through x mod p^(K-1), ..., x mod p^j for every j.
    p, modulus = obj.ctx.p, obj.ctx.modulus
    values = obj.values
    pn = p
    while pn < modulus:
        base = [v % pn for v in values[:pn]]
        for i in range(pn, pn * p, pn):
            if [v % pn for v in values[i:i + pn]] != base:
                return False
        pn *= p
    return True


# -- coordinate representation --------------------------------------------------


def coord_from_table(table: ValueTable) -> CoordRep:
    if not check_one_lipschitz(table):
        raise NotOneLipschitzError("coordinate form exists only for 1-Lipschitz tables")
    ctx = table.ctx
    p = ctx.p
    phi = []
    pk = 1
    for k in range(ctx.precision):
        pk1 = pk * p
        phi.append(tuple([v // pk % p for v in table.values[:pk1]]))
        pk = pk1
    return CoordRep(ctx, tuple(phi))


def table_from_coord(coord: CoordRep) -> ValueTable:
    """f(x) = sum p^k phi_k(x mod p^(k+1)), built level by level: the table mod
    p^(k+1) is the table mod p^k, repeated p times, plus p^k phi_k."""
    p = coord.ctx.p
    t, pk = [0], 1
    for row in coord.phi:
        t = [a + d * pk for a, d in zip(t * p, row)]
        pk *= p
    return ValueTable(coord.ctx, tuple(t))


# -- measure preservation --------------------------------------------------------

_BLOCK_KEYS = 4096  # keys _columns_distinct holds at once


def _columns_distinct(digits: list[int] | tuple[int, ...], pk: int, p: int) -> bool:
    """Whether every column m, the entries digits[m::pk], holds distinct digits
    (each below p).  A block of w columns is decided by one set: its keys
    m * p + digit, m counted from the block's first column, are distinct
    exactly when its columns are.  w is a power of p, so blocks tile the
    columns, and a block holds at most _BLOCK_KEYS keys unless one column does."""
    rows = len(digits) // pk
    width = pk
    while width > 1 and width * rows > _BLOCK_KEYS:
        width //= p
    offsets = [*range(0, width * p, p)] * rows
    for a in range(0, pk, width):
        block = []
        for r in range(a, len(digits), pk):
            block += digits[r:r + width]
        if len(set(map(add, offsets, block))) != len(block):
            return False
    return True


def check_measure_bruteforce(table: ValueTable) -> bool:
    """Bijectivity of every reduction mod p^k, k = 1..K (input must be 1-Lipschitz)."""
    ctx, values = table.ctx, table.values
    if len(set(values)) != ctx.modulus:  # level K: the entries are residues already
        return False
    for k in range(1, ctx.precision):
        pk = ctx.p**k
        if len({v % pk for v in values[:pk]}) != pk:
            return False
    return True


def check_measure_vdp(series: VdpSeries, min_level: int = 1) -> bool:
    """Coefficient criterion on normalized b_m:

    (1) b_0..b_{p-1} form a complete residue system mod p, and
    (2) for every level k >= min_level with p^(k+1) <= p^K and every
        m in [0, p^k), the values {b_{m + i p^k} : i = 1..p-1} are exactly
        the nonzero residues mod p.

    ``min_level=1`` is the corrected criterion used everywhere in this
    package; ``min_level=2`` reproduces a weaker published variant (it leaves
    the level-1 band unconstrained and disagrees with brute force).
    """
    if min_level < 1:
        raise DomainError("min_level must be >= 1")
    ctx = series.ctx
    p, B = ctx.p, series.B
    nonzero = set(range(1, p))
    if {c % p for c in B[:p]} != set(range(p)):  # b_m = B_m for m < p
        return False
    for k in range(min_level, ctx.precision):
        pk = p**k
        # Level k's band: b_(m + i p^k) for i = 1..p-1 is band[m::pk][i - 1].
        band = B[pk:pk * p]
        b = [c // pk % p for c in band]
        if {c % pk for c in band} == {0}:
            # No b() can raise: the level holds exactly when every column
            # holds p - 1 distinct nonzero digits.
            if 0 in b or not _columns_distinct(b, pk, p):
                return False
            continue
        # The first coefficient b() would reject, visiting m then i: columns
        # before it are still checked, and may return False first.
        first = min((j for j, c in enumerate(band) if c % pk), key=lambda j: (j % pk, j))
        for m in range(first % pk):
            if set(b[m::pk]) != nonzero:
                return False
        series.b(pk + first)  # raises NotOneLipschitzError
    return True


def check_measure_coord(coord: CoordRep) -> bool:
    """Every one-digit sub-function (phi_0 included) must be a bijection."""
    p = coord.ctx.p
    pk = 1
    for row in coord.phi:  # the sub-function of phi_k at a prefix is row[prefix::pk]
        if not _columns_distinct(row, pk, p):  # p distinct digits are all p of them
            return False
        pk *= p
    return True


# -- random generation ------------------------------------------------------------


def random_one_lipschitz_table(
    ctx: PadicContext, rng: Random, permutation_bias: float = 0.5
) -> ValueTable:
    """A random 1-Lipschitz map in the coordinate form of the p-adic model:
    draw each one-digit sub-function independently and compose.

    Each sub-function is a random permutation of the digit alphabet with
    probability ``permutation_bias`` and an arbitrary random digit map
    otherwise; bias 1.0 therefore yields exactly the measure-preserving
    tables, while intermediate values mix verdicts.
    """
    check_table_size(ctx)
    p = ctx.p
    alphabet = list(range(p))
    phi = []
    pk = 1
    for k in range(ctx.precision):
        row = [0] * (pk * p)
        for prefix in range(pk):
            if rng.random() < permutation_bias:
                sub = alphabet[:]
                rng.shuffle(sub)
            else:
                sub = [rng.randrange(p) for _ in range(p)]
            row[prefix::pk] = sub
        phi.append(tuple(row))
        pk *= p
    return table_from_coord(CoordRep(ctx, tuple(phi)))


# -- text serialization --------------------------------------------------------------


def _half_texts(p: int, K: int) -> tuple[int, list[str], list[str]]:
    """h = K // 2 and the digit texts of the two halves of a canonical entry,
    in residue order: "d0,...,d(h-1)," for each residue mod p**h and
    "dh,...,d(K-1)" for each residue mod p**(K-h).  A table's text costs
    p**h + p**(K-h) strings of these, not one per residue."""
    h, texts = K // 2, [[""]]
    while len(texts) <= K - h:  # texts[n]: "d0,...,d(n-1)," of each residue mod p**n
        texts.append([f"{d},{t}" for t in texts[-1] for d in range(p)])
    return h, texts[h], [t[:-1] for t in texts[-1]]


def serialize_table_text(obj: ValueTable | VdpSeries) -> str:
    """Line format: header ``p K kind``, then one residue per line in the
    canonical form ``p:K:d0,...,d(K-1)`` of ``core.to_text``, joined from
    the texts of its low and high digits (``_half_texts``).
    """
    kind = "table" if isinstance(obj, ValueTable) else "vdp"
    ctx = obj.ctx
    p, K = ctx.p, ctx.precision
    entries = obj.values if isinstance(obj, ValueTable) else obj.B
    h, low, high = _half_texts(p, K)
    ph = p**h
    low = [f"{p}:{K}:{t}" for t in low]
    lines = [f"{p} {K} {kind}"]
    lines += [low[v % ph] + high[v // ph] for v in entries]
    return "\n".join(lines) + "\n"


def _canonical_entries(body: str, ctx: PadicContext) -> list[int] | None:
    """The values of a body of exactly p**K canonical lines, each ending in a
    newline, read by digit columns for p <= 10 and through ``_half_texts``
    above; None for any other body."""
    p, K, n = ctx.p, ctx.precision, ctx.modulus
    prefix = f"{p}:{K}:"
    if p <= 10 and sys.byteorder == "little":  # the packed slots are read little-endian
        # n lines of one width that match the template (digits below p read as
        # 0) and hold the prefix, which fits only at a line's start, are canonical.
        width = len(prefix) + 2 * K
        if len(body) != n * width or not body.isascii():
            return None
        zero, lines = bytes.maketrans(b"0123456789"[:p], b"0" * p), (1 << 16) // width + 1
        template = ((prefix + "0," * K)[:-1] + "\n").encode().translate(zero) * lines
        g, entries = next(g for g in range(8, 0, -1) if p**g <= 256), []  # g digits sum < p**g
        for i in range(0, n * width, lines * width):
            chunk = body[i:i + lines * width].encode()
            c = len(chunk) // width
            if chunk.translate(zero) != template[:len(chunk)] or chunk.count(prefix.encode()) != c:
                return None
            # Digit j of each line is the byte 48 + d of column len(prefix) + 2j:
            # g columns at a time sum in byte slots, which spread to 32-bit ones.
            ones, slots, total = int.from_bytes(b"\1" * c, "little"), bytearray(4 * c), 0
            for j0 in range(0, K, g):
                col, weights = len(prefix) + 2 * j0, [p**j for j in range(min(g, K - j0))]
                group = sum(int.from_bytes(chunk[col + 2 * j::width], "little") * w
                            for j, w in enumerate(weights)) - 48 * sum(weights) * ones
                slots[::4] = group.to_bytes(c, "little")
                total += int.from_bytes(slots, "little") * p**j0
            entries += memoryview(total.to_bytes(4 * c, "little")).cast("I")
        return entries
    if body.count("\n") != n or not body.endswith("\n"):
        return None
    h, low, high = _half_texts(p, K)
    low = {t: v for v, t in enumerate(low)}
    high = {t: v * p**h for v, t in enumerate(high)}
    # A match spans one whole line, so n matches cover all n lines.
    halves = re.finditer(rf"^{prefix}((?:[^,\n]*,){{{h}}})([^\n]*)\n", body, re.M)
    try:
        entries = [low[a] + high[b] for a, b in map(re.Match.groups, halves)]
    except KeyError:
        return None
    return entries if len(entries) == n else None


def parse_table_text(text: str) -> ValueTable | VdpSeries:
    """Inverse of ``serialize_table_text``.  An entry may be any text that
    ``core.from_text`` reads in the header's context.  A size over the table
    limit is refused right after the header.  Canonical entry lines, as they
    stand or stripped, are read by ``_canonical_entries``; a line in any
    other form sends every line to ``from_text``."""
    text = text.lstrip()  # blank lines before the header; line breaks are spaces
    if not text:
        raise FormatError("empty table file")
    first, _, body = text.partition("\n")
    line, *rest = first.splitlines()  # the header ends at the first line break
    line, body = line.rstrip(), "".join(ln + "\n" for ln in rest) + body
    head = line.split()
    if len(head) != 3 or head[2] not in ("table", "vdp"):
        raise FormatError(f"bad header {line!r}; expected 'p K table' or 'p K vdp'")
    try:
        ctx = PadicContext(int(head[0]), int(head[1]))
    except (ValueError, DomainError) as exc:
        raise FormatError(f"bad header {line!r}: {exc}") from exc
    check_table_size(ctx)
    entries = _canonical_entries(body, ctx)
    if entries is None:
        lines = [ln.strip() for ln in body.splitlines() if ln.strip()]
        if len(lines) != ctx.modulus:
            raise FormatError(f"expected {ctx.modulus} entries, found {len(lines)}")
        entries = (_canonical_entries("".join(ln + "\n" for ln in lines), ctx)
                   or [from_text(ln, ctx).value for ln in lines])
    if head[2] == "table":
        return ValueTable(ctx, tuple(entries))
    return VdpSeries(ctx, tuple(entries))
