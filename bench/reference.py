"""Plain-integer reference computations the benchmark checks the package against.

Nothing here imports ``padic_ciphers``: every value is recomputed from the
definitions on Python ints, so a fault in the package cannot hide behind a
copy of itself.  Keys are read as the JSON objects the package writes
(``key_to_json`` and the CLI's key files).
"""

from __future__ import annotations

import math
from random import Random

# -- key material -------------------------------------------------------------


def parse_residue(text: str, p: int, K: int) -> int:
    """Read the ``p:K:d0,d1,...`` text form (little-endian digits)."""
    head_p, head_k, body = text.split(":")
    if (int(head_p), int(head_k)) != (p, K):
        raise ValueError(f"literal {text!r} is not in context {p}:{K}")
    digits = [int(d) for d in body.split(",")]
    if len(digits) != K or any(not 0 <= d < p for d in digits):
        raise ValueError(f"bad digits in {text!r}")
    return sum(d * p**i for i, d in enumerate(digits))


def digits_of(x: int, p: int, K: int) -> list[int]:
    out = []
    for _ in range(K):
        x, d = divmod(x, p)
        out.append(d)
    return out


def from_digits(digits: list[int], p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


class RefKey:
    """A key read from its JSON object, with the family constraints checked."""

    def __init__(self, data: dict) -> None:
        self.family = data["family"]
        self.p = p = int(data["p"])
        self.K = K = int(data["precision"])
        self.m = p**K
        fam = self.family
        if fam in ("additive", "fhe", "multiplicative"):
            self.A = parse_residue(data["A"], p, K)
            if self.A % p == 0:
                raise ValueError("multiplier is not a unit")
        if fam == "fhe":
            self.g = data["g"]
            d = exponent_gcd(self.g, p)
            if d is not None and pow(self.A, d, self.m) != 1:
                raise ValueError(f"A^{d} != 1 for {self.g}")
        if fam == "multiplicative":
            self.s = int(data["s"])
            self.a = parse_residue(data["a"], p, K)
            if self.a % p == 0 or math.gcd(self.s, p - 1) != 1 or not 1 <= self.s < p:
                raise ValueError("bad multiplicative parameters")
        if fam == "xor":
            self.rows = [list(map(int, r)) for r in data["rows"]]
            if [len(r) for r in self.rows] != list(range(1, K + 1)):
                raise ValueError("xor rows are not triangular")
            if any(r[-1] % p == 0 or not all(0 <= c < p for c in r) for r in self.rows):
                raise ValueError("bad xor coefficient")
        if fam == "and":
            self.exps = list(map(int, data["exponents"]))
            if len(self.exps) != K or any(
                not 1 <= s < p or math.gcd(s, p - 1) != 1 for s in self.exps
            ):
                raise ValueError("bad and exponents")

    def encrypt(self, x: int) -> int:
        """Encryption from the family definitions (see the package README)."""
        p, K, m = self.p, self.K, self.m
        fam = self.family
        if fam in ("additive", "fhe"):
            return self.A * x % m
        if fam == "multiplicative":
            if x == 0:
                return 0
            k = 0
            while x % p**(k + 1) == 0:
                k += 1
            u = x // p**k
            w = pow(u % p, p ** (K - 1), m)  # Teichmuller lift, closed form
            principal = u * pow(w, -1, m) % m
            unit = pow(self.A, k, m) * pow(w, self.s, m) * pow(principal, self.a, m)
            return unit * p**k % m
        xd = digits_of(x, p, K)
        if fam == "xor":
            return from_digits(
                [sum(c * xd[j] for j, c in enumerate(row)) % p for row in self.rows], p
            )
        if fam == "and":
            return from_digits([pow(d, s, p) for d, s in zip(xd, self.exps)], p)
        raise ValueError(f"unknown family {fam!r}")


# -- operations ------------------------------------------------------------------


def exponent_gcd(g: str, p: int) -> int | None:
    return {"G1": p - 1, "G2": p - 1, "G3": p - 2, "G4": p - 1}.get(g)


def apply_op(name: str, x: int, y: int, p: int, K: int) -> int:
    """ADD, MUL, XOR, AND and G1..G4 on residues mod p^K."""
    m = p**K
    if name == "ADD":
        return (x + y) % m
    if name == "MUL":
        return x * y % m
    if name in ("XOR", "AND"):
        xd, yd = digits_of(x, p, K), digits_of(y, p, K)
        if name == "XOR":
            return from_digits([(a + b) % p for a, b in zip(xd, yd)], p)
        return from_digits([a * b % p for a, b in zip(xd, yd)], p)
    if name in ("G1", "STAR"):
        return x * pow(y, p - 1, m) % m
    if name == "G2":
        return (pow(x, p - 1, m) * y + x * pow(y, p - 1, m)) % m
    if name == "G3":
        e = (p - 1) // 2
        return pow(x, e, m) * pow(y, e, m) % m
    if name == "G4":
        # x/(1 - p x^(p-1)) + y/(1 - p y^(p-1))
        return sum(v * pow(1 - p * pow(v, p - 1, m), -1, m) for v in (x, y)) % m
    raise ValueError(f"unknown operation {name!r}")


# -- tables ------------------------------------------------------------------------


def is_bijective_at_every_level(values, p: int, K: int) -> bool:
    """Brute force: x -> f(x) mod p^k permutes Z/p^k for k = 1..K."""
    for k in range(1, K + 1):
        pk = p**k
        seen = bytearray(pk)
        for x in range(pk):
            seen[values[x] % pk] = 1
        if not all(seen):
            return False
    return True


def random_lipschitz_table(p: int, K: int, rng: Random, preserving: bool) -> list[int]:
    """Compose random one-digit sub-functions into a 1-Lipschitz value table.

    Every sub-function is a permutation of the digit alphabet, except, when
    ``preserving`` is false, one collapsed sub-function at a random prefix of
    the top level; the table then fails measure preservation at level K only.
    """
    pk = p ** (K - 1)
    broken = None if preserving else rng.randrange(pk)
    values = [0] * p**K
    digit_maps = []
    for k in range(K):
        level = []
        for prefix in range(p**k):
            sub = list(range(p))
            rng.shuffle(sub)
            if k == K - 1 and prefix == broken:
                sub = _collapse(sub, rng)
            level.append(sub)
        digit_maps.append(level)
    for x in range(p**K):
        out, prefix, pj = 0, 0, 1
        for k in range(K):
            d = x // pj % p
            out += digit_maps[k][prefix][d] * pj
            prefix += d * pj
            pj *= p
        values[x] = out
    return values


def _collapse(sub: list[int], rng: Random) -> list[int]:
    """Make a digit map non-injective: send two inputs to the same output."""
    i, j = rng.sample(range(len(sub)), 2)
    sub = sub[:]
    sub[j] = sub[i]
    return sub


# -- formulas ----------------------------------------------------------------------

INFIX = {"ADD": "+", "MUL": "*"}


class Formula:
    """A generated formula: its text, node count, depth and expected value."""

    def __init__(self, text: str, nodes: int, depth: int, expected: int):
        self.text, self.nodes, self.depth, self.expected = text, nodes, depth, expected


def _render(node) -> str:
    if isinstance(node, str):
        return node
    op, left, right = node
    if op in INFIX:
        return f"({_render(left)} {INFIX[op]} {_render(right)})"
    return f"{op}({_render(left)}, {_render(right)})"


def formula_value(node, env: dict, p: int, K: int) -> int:
    """Value of an (op, left, right) tree whose leaves are names or literals."""
    if isinstance(node, str):
        return env[node] if node in env else int(node) % p**K
    op, left, right = node
    return apply_op(op, formula_value(left, env, p, K), formula_value(right, env, p, K), p, K)


def make_formula(ops: list[str], env: dict, rng: Random, p: int, K: int,
                 spine: int, side_leaves: int) -> Formula:
    """A spine of ``spine`` operations, each with a balanced side subtree.

    The depth is about ``spine`` plus the side subtrees' height, the node
    count about ``spine * 2 * side_leaves``; leaves are variables of ``env``
    or small integer literals.
    """
    names = sorted(env)

    def leaf() -> str:
        return rng.choice(names) if rng.random() < 0.8 else str(rng.randrange(1, 50))

    def subtree(n: int):
        if n == 1:
            return leaf()
        half = n // 2
        return (rng.choice(ops), subtree(half), subtree(n - half))

    while True:  # every operation of ``ops`` appears, so each law is spot-checked
        node = subtree(side_leaves)
        for _ in range(spine):
            side = subtree(side_leaves)
            node = (rng.choice(ops), node, side) if rng.random() < 0.5 else (rng.choice(ops), side, node)
        nodes, depth, used = _shape(node)
        if used == set(ops):
            return Formula(_render(node), nodes, depth, formula_value(node, env, p, K))


def _shape(node):
    if isinstance(node, str):
        return 1, 1, set()
    ln, ld, lu = _shape(node[1])
    rn, rd, ru = _shape(node[2])
    return ln + rn + 1, max(ld, rd) + 1, lu | ru | {node[0]}
