"""Each bound in ``core`` is read where it is used, when it is used: set to a
small value, it moves every refusal or skip that uses it, and each refusal
names the value set."""

import json
from random import Random

import pytest

from padic_ciphers import analysis, core
from padic_ciphers.analysis import (
    SearchReport,
    counterexample_search,
    homomorphism_test,
    intersection_scan,
    vdp_coefficient_probe,
)
from padic_ciphers.ciphers import (
    ADD,
    MUL,
    XOR,
    AdditiveKey,
    MultiplicativeKey,
    encryption_table,
    is_identity_key,
    key_to_json,
    keygen,
    roots_of_unity,
)
from padic_ciphers.cli import run_command
from padic_ciphers.core import DomainError, PadicContext, _is_prime
from padic_ciphers.formula import FormulaSyntaxError, parse
from padic_ciphers.lipschitz import (
    CoordRep,
    ValueTable,
    VdpSeries,
    parse_table_text,
    random_one_lipschitz_table,
)

C32, C33 = PadicContext(3, 2), PadicContext(3, 3)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_context_bounds_move_with_core(monkeypatch):
    monkeypatch.setattr(core, "MAX_PRECISION", 3)
    assert PadicContext(3, 3).modulus == 27
    with pytest.raises(DomainError, match=r"^precision must be in \[1, 3\], got 4$"):
        PadicContext(3, 4)
    monkeypatch.setattr(core, "PRIME_BOUND", 100)
    assert _is_prime(97)
    with pytest.raises(DomainError, match="decided exactly only below 100$"):
        _is_prime(101)


@pytest.mark.parametrize("budget, levels", [(80, [1]), (81, [1, 2])])
def test_one_pair_budget_moves_check_the_tests_and_the_scan(
        tmp_path, capsys, monkeypatch, budget, levels):
    """At p = 3 a level k takes 3^(2k) pairs: 9, then 81."""
    monkeypatch.setattr(core, "PAIR_BUDGET", budget)
    path = str(tmp_path / "k.json")
    run(capsys, "keygen", "--family", "additive", "--p", "3", "--precision", "3",
        "--seed", "1", "--out", path)
    # check --key's default depth is the deepest of levels 1 and 2 in the budget.
    code, out, err = run(capsys, "check", "--key", path, "--trials", "8", "--json")
    assert (code, err) == (0, "")
    modes = [f"exhaustive:k={k}" for k in levels] + ["random:K=3"]
    assert [law["mode"] for law in json.loads(out)["laws"]] == modes
    refusal = f"error: level 2 has 3^4 = 81 pairs, over the budget of {budget}\n"
    code, out, err = run(capsys, "check", "--key", path, "--exhaustive-k", "2", "--trials", "8")
    assert (code, err) == ((0, "") if budget == 81 else (5, refusal))
    code, out, err = run(capsys, "check", "--key", path, "--trials", str(budget + 1))
    assert (code, out) == (5, "")
    assert err == f"error: {budget + 1} random pairs are over the budget of {budget}\n"

    key = AdditiveKey(C33.integer(13))
    assert homomorphism_test(key, ADD, trials=budget).verdict == "pass"
    with pytest.raises(DomainError, match=f"^{budget + 1} random pairs are over the "
                                          f"budget of {budget}$"):
        homomorphism_test(key, ADD, trials=budget + 1)
    if budget == 80:
        with pytest.raises(DomainError, match=r"^level 2 has 3\^4 = 81 pairs, over the "
                                              r"budget of 80$"):
            counterexample_search(key, MUL, max_k=2)
    # A scan at level 1 counts n_keys * (9 + random_trials) pairs.
    assert len(intersection_scan(ADD, MUL, C32, n_keys=1, max_k=1,
                                 random_trials=budget - 9)) == 1
    with pytest.raises(DomainError, match=f"^a scan of 1 keys takes up to {budget + 1} "
                                          f"pairs, over the budget of {budget}$"):
        intersection_scan(ADD, MUL, C32, n_keys=1, max_k=1, random_trials=budget - 8)


def _table_sites(ctx: PadicContext):
    """Every library site that refuses a table of p^K entries over TABLE_LIMIT."""
    m = ctx.modulus
    identity = tuple(range(m))
    phi = tuple(tuple(x % ctx.p for x in range(ctx.p ** (k + 1))) for k in range(ctx.precision))
    text = f"{ctx.p} {ctx.precision} table\n" + "".join(f"{x}\n" for x in range(m))
    return {
        "ValueTable": lambda: ValueTable(ctx, identity),
        "ValueTable.from_callable": lambda: ValueTable.from_callable(ctx, lambda x: x),
        "VdpSeries": lambda: VdpSeries(ctx, (0,) * m),
        "CoordRep": lambda: CoordRep(ctx, phi),
        "parse_table_text": lambda: parse_table_text(text),
        "random_one_lipschitz_table": lambda: random_one_lipschitz_table(ctx, Random(0)),
        "encryption_table": lambda: encryption_table(AdditiveKey(ctx.one)),
        "is_identity_key": lambda: is_identity_key(AdditiveKey(ctx.one)),
    }


@pytest.mark.parametrize("site", list(_table_sites(C33)))
def test_one_table_limit_moves_every_table_site(monkeypatch, site):
    monkeypatch.setattr(core, "TABLE_LIMIT", 27)
    _table_sites(C33)[site]()  # 27 entries are within the limit
    monkeypatch.setattr(core, "TABLE_LIMIT", 26)
    with pytest.raises(DomainError, match=r"^table of size p\*\*K = 27 exceeds the limit 26$"):
        _table_sites(C33)[site]()
    _table_sites(C32)[site]()


def test_one_table_limit_moves_check_table(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.txt"
    path.write_text("3 3 table\n" + "".join(f"{x}\n" for x in range(27)))
    monkeypatch.setattr(core, "TABLE_LIMIT", 26)
    code, out, err = run(capsys, "check", "--table", str(path))
    assert (code, out, err) == (5, "", "error: table of size p**K = 27 exceeds the limit 26\n")
    monkeypatch.setattr(core, "TABLE_LIMIT", 27)
    assert run(capsys, "check", "--table", str(path))[0] == 0


@pytest.mark.parametrize("family", ["multiplicative", "and", "fhe"])
def test_one_draw_budget_moves_every_key_draw(monkeypatch, family):
    """A draw at p enumerates p - 1 digits: 4 at p = 5, 6 at p = 7."""
    monkeypatch.setattr(core, "DRAW_BUDGET", 4)
    keygen(PadicContext(5, 2), family, Random(0))
    with pytest.raises(DomainError, match="^a key draw at p = 7 enumerates 6 digits, "
                                          "over the budget of 4$"):
        keygen(PadicContext(7, 2), family, Random(0))


def test_one_draw_budget_moves_roots_of_unity(monkeypatch):
    monkeypatch.setattr(core, "DRAW_BUDGET", 4)
    assert len(roots_of_unity(PadicContext(5, 2), 4)) == 4
    with pytest.raises(DomainError, match="^a key draw at p = 7 enumerates 6 digits, "
                                          "over the budget of 4$"):
        roots_of_unity(PadicContext(7, 2), 3)


def test_one_probe_limit_moves_the_coefficient_probe(monkeypatch):
    key = MultiplicativeKey(C33.integer(2), 1, C33.integer(1))
    monkeypatch.setattr(core, "PROBE_LIMIT", 27)
    assert vdp_coefficient_probe(key).verdict == "pass"
    monkeypatch.setattr(core, "PROBE_LIMIT", 26)
    with pytest.raises(DomainError, match=r"^table of size p\*\*K = 27 exceeds the limit 26$"):
        vdp_coefficient_probe(key)
    assert vdp_coefficient_probe(MultiplicativeKey(C32.integer(2), 1, C32.integer(1))).trials


def test_one_nesting_limit_moves_the_parser(capsys, monkeypatch):
    monkeypatch.setattr(core, "MAX_NESTING", 3)
    for nest in (lambda d: "(" * d + "x" + ")" * d, lambda d: "XOR(x, " * d + "y" + ")" * d):
        parse(nest(3), C33)
        with pytest.raises(FormulaSyntaxError, match="^nesting deeper than 3 levels"):
            parse(nest(4), C33)
    code, out, err = run(capsys, "eval", "--formula", "((((1))))")
    assert (code, out) == (3, "")
    assert "nesting deeper than 3 levels" in err


def test_one_file_limit_moves_every_file_read(tmp_path, capsys, monkeypatch):
    key, table = tmp_path / "k.json", tmp_path / "t.txt"
    key.write_text(json.dumps(key_to_json(AdditiveKey(C32.integer(1)))))
    table.write_text("3 2 table\n" + "".join(f"{x}\n" for x in range(9)))
    for path, argv in ((key, ("encrypt", "--key", str(key), "1")),
                       (key, ("check", "--key", str(key))),
                       (table, ("check", "--table", str(table)))):
        monkeypatch.setattr(core, "FILE_LIMIT", len(path.read_text()) - 1)
        message = f"error: {path} holds more than {core.FILE_LIMIT} characters\n"
        assert run(capsys, *argv) == (3, "", message)
        monkeypatch.setattr(core, "FILE_LIMIT", len(path.read_text()))
        assert run(capsys, *argv)[0] == 0


def _counting(monkeypatch, name: str, calls: list, stand_in=None):
    """Replace analysis.<name> by a function that records each call, then runs
    stand_in, or the original when none is given."""
    real = getattr(analysis, name)
    monkeypatch.setattr(analysis, name,
                        lambda *args: calls.append(args) or (stand_in or real)(*args))


@pytest.mark.parametrize("limit", [1, 3])
def test_one_key_draw_limit_moves_the_search_for_a_non_identity_key(monkeypatch, limit):
    monkeypatch.setattr(core, "KEY_DRAW_LIMIT", limit)
    drawn = []
    _counting(monkeypatch, "keygen", drawn)
    monkeypatch.setattr(analysis, "is_identity_key", lambda key: True)
    with pytest.raises(DomainError, match="^could not draw a non-identity additive key$"):
        analysis._nonidentity_key(C33, "additive", Random(0))
    assert len(drawn) == limit


@pytest.mark.parametrize("probes", [1, 5])
def test_one_identity_probe_limit_moves_the_test_of_a_large_key(monkeypatch, probes):
    monkeypatch.setattr(core, "KEY_DRAW_LIMIT", 2)
    monkeypatch.setattr(core, "IDENTITY_PROBE_LIMIT", probes)
    tested = []
    _counting(monkeypatch, "encrypt", tested, stand_in=lambda key, x: x)
    ctx = PadicContext(3, 8)  # 6561 residues, over MEASURE_LIMIT: tested on random ones
    with pytest.raises(DomainError, match="^could not draw a non-identity additive key$"):
        analysis._nonidentity_key(ctx, "additive", Random(0))
    assert len(tested) == 2 * probes


@pytest.mark.parametrize("base, per_key", [(2, 1), (0, 3)])
def test_the_scan_draw_limits_move_the_stalled_scan(monkeypatch, base, per_key):
    """A key whose whole level exhausts is redrawn, up to base + per_key * n_keys draws."""
    monkeypatch.setattr(core, "SCAN_DRAW_LIMIT", base)
    monkeypatch.setattr(core, "SCAN_DRAWS_PER_KEY", per_key)
    drawn = []
    _counting(monkeypatch, "_nonidentity_key", drawn)
    monkeypatch.setattr(analysis, "counterexample_search",
                        lambda *args, **kwargs: SearchReport("exhausted", None, 0, "stub"))
    with pytest.raises(DomainError, match="^sampling stalled: additive keys keep "
                                          "satisfying MUL$"):
        intersection_scan(ADD, MUL, C32, n_keys=3)
    assert len(drawn) == base + per_key * 3


@pytest.mark.parametrize("budget", [1000, 10**4])
def test_a_scan_runs_no_more_pairs_than_the_budget(monkeypatch, budget):
    """At (2, 2) a xor key's search of ADD exhausts both levels, so the scan
    redraws it; each search takes 2^2 + 2^4 + 256 = 276 pairs, and every one
    counts against the budget, the redrawn ones too."""
    monkeypatch.setattr(core, "PAIR_BUDGET", budget)
    pairs = []
    search = analysis.counterexample_search
    monkeypatch.setattr(analysis, "counterexample_search", lambda *args, **kwargs: (
        pairs.append((rep := search(*args, **kwargs)).trials) or rep))
    runs = budget // 276
    with pytest.raises(DomainError, match=f"^a scan that has run {276 * runs} pairs takes up to "
                                          f"276 more, over the budget of {budget}$"):
        intersection_scan(XOR, ADD, PadicContext(2, 2), n_keys=1)
    assert pairs == [276] * runs
