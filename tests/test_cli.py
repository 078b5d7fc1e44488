import hashlib
import json
import os
import subprocess
import sys
import time
from random import Random

import pytest

from padic_ciphers import analysis, cli, core
from padic_ciphers.cli import run_command
from padic_ciphers.ciphers import (
    GLIN,
    AdditiveKey,
    key_from_json,
    key_to_json,
    keygen,
    encryption_table,
)
from padic_ciphers.core import PadicContext, PadicInt
from padic_ciphers.lipschitz import (
    ValueTable,
    parse_table_text,
    serialize_table_text,
    vdp_interpolate,
)


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_keygen_writes_key_file(tmp_path, capsys):
    path = tmp_path / "k.json"
    code, out, err = run(
        capsys, "keygen", "--family", "additive", "--p", "5",
        "--precision", "3", "--seed", "1", "--out", str(path),
    )
    assert code == 0
    assert "wrote additive key" in out
    key = key_from_json(json.loads(path.read_text()))
    assert key.family == "additive"
    assert key.ctx == PadicContext(5, 3)
    # no stray temp files from the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["k.json"]


def test_keygen_prints_key_without_out(capsys):
    code, out, err = run(
        capsys, "keygen", "--family", "xor", "--p", "3",
        "--precision", "4", "--seed", "2",
    )
    assert code == 0
    key = key_from_json(json.loads(out))
    assert key.family == "xor"


def test_keygen_warns_on_thin_fhe_keyspace(tmp_path, capsys):
    path = tmp_path / "k.json"
    code, out, err = run(
        capsys, "keygen", "--family", "fhe", "--g", "G1", "--p", "3",
        "--precision", "3", "--seed", "0", "--out", str(path),
    )
    assert code == 0
    assert "warning" in err


def test_keygen_fhe_g3_has_no_usable_keys(capsys):
    code, out, err = run(
        capsys, "keygen", "--family", "fhe", "--g", "G3", "--p", "5",
        "--precision", "2", "--seed", "0",
    )
    assert code == 5
    assert "error" in err


# The thin-key-space cases, taken before the CLI counted the multipliers as
# gcd(d, p - 1) - 1 instead of enumerating them.  GLIN at p = 2 is refused as
# G1 is, with no warning first.
THIN_KEYGEN = {
    **{(2, g): (5, "error: admissible multipliers are computed for odd p\n")
       for g in ("G1", "GLIN")},
    (3, "G1"): (0, "warning: only 1 non-trivial multiplier(s) commute with G1 at p = 3; "
                   "the key space is tiny\n"),
    **{(p, "G3"): (5, f"warning: only 0 non-trivial multiplier(s) commute with G3 at p = {p}; "
                      "the key space is tiny\nerror: only the trivial multiplier A = 1 "
                      f"commutes with this operation at p = {p}; pick a different operation "
                      "or a larger prime\n")
       for p in (5, 7)},
}


@pytest.mark.parametrize("p,g", THIN_KEYGEN)
def test_keygen_thin_fhe_keyspace_transcript(capsys, p, g):
    code, out, err = run(capsys, "keygen", "--family", "fhe", "--g", g, "--p", str(p),
                         "--precision", "3", "--seed", "0")
    assert (code, err) == THIN_KEYGEN[p, g]


@pytest.mark.parametrize("family, p, K, warned", [
    ("and", 2, 5, True), ("and", 3, 4, True), ("and", 5, 4, False),
    ("additive", 2, 1, True), ("additive", 2, 2, False), ("xor", 2, 1, True),
    ("multiplicative", 3, 1, True), ("multiplicative", 3, 2, False), ("xor", 3, 1, False),
])
def test_keygen_warns_when_the_identity_is_the_only_key(capsys, family, p, K, warned):
    """The warning goes to stderr alone: the key on stdout and exit 0 stay
    those of the library's keygen, which returns the identity there."""
    code, out, err = run(capsys, "keygen", "--family", family, "--p", str(p),
                         "--precision", str(K), "--seed", "4")
    assert code == 0
    assert err == (f"warning: the identity is the only {family} key at p = {p}, K = {K}\n"
                   if warned else "")
    key = keygen(PadicContext(p, K), family, Random(4))
    assert json.loads(out) == key_to_json(key)
    if warned:
        assert all(key.enc_int(x) == x for x in key.ctx.residues())


GLIN_GRID = [(p, K, seed) for p, K in ((5, 3), (7, 3), (13, 2)) for seed in (0, 1, 11)]


def test_seeded_glin_keys_are_pinned(capsys):
    digest = hashlib.sha256()
    for p, K, seed in GLIN_GRID:
        code, out, err = run(capsys, "keygen", "--family", "fhe", "--g", "GLIN",
                             "--p", str(p), "--precision", str(K), "--seed", str(seed))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == (
        "c4a00e612829876ed7ab501041211ad7a4a0dd9eac6018914645200893ca3c1b")


def test_library_keygen_binds_glin_as_the_cli_does(capsys):
    for p, K, seed in GLIN_GRID:
        code, out, err = run(capsys, "keygen", "--family", "fhe", "--g", "GLIN",
                             "--p", str(p), "--precision", str(K), "--seed", str(seed))
        key = keygen(PadicContext(p, K), "fhe", Random(seed), g=GLIN)
        assert (code, json.loads(out)) == (0, key_to_json(key)), (p, K, seed)


def test_fhe_keygen_at_a_large_prime_is_fast(capsys):
    # p - 1 = 2^16 roots of unity, lifted to 16 digits
    start = time.perf_counter()
    code, out, err = run(capsys, "keygen", "--family", "fhe", "--p", "65537",
                         "--precision", "16", "--seed", "1")
    assert time.perf_counter() - start < 2
    assert code == 0 and err == ""
    A = key_from_json(json.loads(out)).A
    assert A.value != 1 and pow(A.value, 65536, A.ctx.modulus) == 1


def test_encrypt_decrypt_roundtrip(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "xor", "--p", "3", "--precision", "3",
        "--seed", "2", "--out", str(path))
    code, out, err = run(capsys, "encrypt", "--key", str(path), "7", "--json")
    assert code == 0
    cipher = json.loads(out)["output"]
    code, out, err = run(capsys, "decrypt", "--key", str(path), str(cipher), "--json")
    assert code == 0
    assert json.loads(out)["output"] == 7


def test_encrypt_accepts_digit_text(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "3", "--precision", "3",
        "--seed", "3", "--out", str(path))
    code_a, out_a, _ = run(capsys, "encrypt", "--key", str(path), "3:3:1,0,0", "--json")
    code_b, out_b, _ = run(capsys, "encrypt", "--key", str(path), "1", "--json")
    assert code_a == code_b == 0
    assert json.loads(out_a)["output"] == json.loads(out_b)["output"]
    # digit text for the wrong context is refused
    code, out, err = run(capsys, "encrypt", "--key", str(path), "5:2:1,0")
    assert code == 3


def test_malformed_key_file_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "encrypt", "--key", str(path), "1")
    assert code == 3
    code, out, err = run(capsys, "encrypt", "--key", str(tmp_path / "nope.json"), "1")
    assert code == 3
    path.write_text(json.dumps({"family": "banana", "p": 5, "precision": 2}))
    code, out, err = run(capsys, "encrypt", "--key", str(path), "1")
    assert code == 3


def test_fhe_key_file_with_g3_at_p_2_exits_3(tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(
        {"family": "fhe", "p": 2, "precision": 3, "A": "2:3:1,1,0", "g": "G3"}))
    code, out, err = run(capsys, "check", "--key", str(path))
    assert code == 3
    assert err == "error: invalid key material: this operation needs an odd p (exponent (p-1)/2)\n"


LONG_INTEGER_KEY = b'{"family": "additive", "p": ' + b"1" * 5000 + b', "precision": 2, "A": "1"}'


@pytest.mark.parametrize("json_mode", (False, True))
@pytest.mark.parametrize("argv, content", [
    (("check", "--table", "FILE"), b"\xff"),
    (("check", "--key", "FILE"), b"\xff{}"),
    (("encrypt", "--key", "FILE", "1"), b"{\xff}"),
    (("check", "--key", "FILE"), LONG_INTEGER_KEY),
    (("encrypt", "--key", "FILE", "1"), LONG_INTEGER_KEY),
    (("encrypt", "--key", "FILE", "1"), b"[" * 100000 + b"]" * 100000),
], ids=["table-ff", "check-key-ff", "encrypt-key-ff", "check-key-long", "encrypt-key-long",
        "encrypt-key-deep"])
def test_unreadable_input_file_exits_3(tmp_path, capsys, argv, content, json_mode):
    path = tmp_path / "input"
    path.write_bytes(content)
    argv = [str(path) if a == "FILE" else a for a in argv] + ["--json"] * json_mode
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    if json_mode:
        assert json.loads(line)["kind"] == "FormatError"
    else:
        assert line.startswith(f"error: {path}") or line.startswith(f"error: key file {path}")


@pytest.mark.parametrize(
    "fields",
    [
        {"family": "additive", "A": ["x"]},
        {"family": "multiplicative", "A": "1", "s": 1, "a": 7},
        {"family": "xor", "rows": "1"},
        {"family": "xor", "rows": ["1"]},
        {"family": "and", "exponents": "1"},
        {"family": "fhe", "A": "1", "g": "GLIN", "ga": ["x"]},
        {"family": "additive", "A": "1", "p": 5.9},
        {"family": "additive", "A": "1", "p": "5"},
        {"family": "additive", "A": "1", "precision": 1.0},
        {"family": "additive", "A": "1", "precision": True},
        {"family": "multiplicative", "A": "1", "s": 3.2, "a": "1"},
        {"family": "multiplicative", "A": "1", "s": "3", "a": "1"},
        {"family": "and", "exponents": [3.7]},
        {"family": "and", "exponents": [True]},
        {"family": "xor", "rows": [[1.0]]},
        {"family": "xor", "rows": [["1"]]},
    ],
)
def test_key_field_of_wrong_type_exits_3(tmp_path, capsys, fields):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 5, "precision": 1} | fields))
    code, out, err = run(capsys, "encrypt", "--key", str(path), "1")
    assert code == 3
    assert "must be a" in err


def test_eval_plain(capsys):
    code, out, err = run(
        capsys, "eval", "--p", "5", "--precision", "2",
        "--formula", "x + y * z",
        "--env", "x=1", "--env", "y=2", "--env", "z=3", "--json",
    )
    assert code == 0
    assert json.loads(out)["value"] == 7


def test_eval_with_key_round_trip(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "fhe", "--g", "G1", "--p", "5",
        "--precision", "2", "--seed", "3", "--out", str(path))
    code, out, err = run(
        capsys, "eval", "--key", str(path),
        "--formula", "STAR(x, y) + x",
        "--env", "x=2", "--env", "y=3", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["plain"] == (2 * 3**4 + 2) % 25


def test_eval_incompatible_formula_exits_4(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "5", "--precision", "2",
        "--seed", "4", "--out", str(path))
    code, out, err = run(
        capsys, "eval", "--key", str(path), "--formula", "x * y",
        "--env", "x=1", "--env", "y=2",
    )
    assert code == 4
    assert "MUL" in err


def test_eval_long_flat_sum(tmp_path, capsys):
    formula = " + ".join(["x"] * 3000)
    code, out, err = run(capsys, "eval", "--formula", formula, "--env", "x=7",
                         "--p", "5", "--precision", "4", "--json")
    assert code == 0
    assert json.loads(out)["value"] == 3000 * 7 % 625
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "5", "--precision", "4",
        "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "eval", "--key", str(path), "--formula", formula,
                         "--env", "x=7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["plain"] == 3000 * 7 % 625
    assert data["match"] is True


def test_eval_deep_nesting_exits_3(capsys):
    deep = "(" * 2000 + "x" + ")" * 2000
    code, out, err = run(capsys, "eval", "--formula", deep, "--env", "x=1")
    assert code == 3
    assert "nesting" in err


def test_eval_syntax_error_exits_3(capsys):
    code, out, err = run(capsys, "eval", "--formula", "x +", "--env", "x=1")
    assert code == 3


@pytest.mark.parametrize("formula, at", [("x + ²", 4), ("1" * 5000, 0), ("x * ٣" + "1" * 4300, 4)],
                         ids=["superscript", "5000-digits", "4301-digits-from-arabic-indic"])
def test_eval_literal_int_cannot_read_exits_3(capsys, formula, at):
    code, out, err = run(capsys, "eval", "--formula", formula, "--env", "x=1")
    assert code == 3
    assert err.startswith("error: ") and err.endswith(f"(at position {at})\n")


@pytest.mark.parametrize("env", [[], ["--env", "x²=3"]], ids=["unbound", "bound"])
def test_eval_name_that_is_no_identifier_exits_3(capsys, env):
    """A formula names variables as --env does, so ``x²`` is refused at the ``²``."""
    code, out, err = run(capsys, "eval", "--formula", "x²+1", *env)
    assert code == 3
    assert err.startswith("error: ") and err.endswith("(at position 1)\n")


def test_eval_binds_any_identifier(capsys):
    code, out, err = run(capsys, "eval", "--formula", "x\u0301 + ℘", "--env", "x\u0301=3",
                         "--env", "℘=4", "--p", "5", "--precision", "2")
    assert (code, out) == (0, "7  (5:2:2,1)\n")


def test_eval_unbound_variable_exits_5(capsys):
    code, out, err = run(capsys, "eval", "--formula", "x + y", "--env", "x=1")
    assert code == 5


def test_eval_bad_env_syntax_exits_3(capsys):
    code, out, err = run(capsys, "eval", "--formula", "x", "--env", "x:1")
    assert code == 3


def test_check_key_full_report(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "multiplicative", "--p", "5",
        "--precision", "2", "--seed", "4", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["overall"] == "pass"
    assert data["measure"] == {"bruteforce": True, "vdp": True, "coordinate": True}
    assert len(data["laws"]) == 3  # k=1, k=2, random
    assert all(entry["verdict"] == "pass" for entry in data["laws"])
    assert data["coefficient_probe"]["verdict"] == "pass"


def test_check_with_no_exhaustive_levels(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "5", "--precision", "2",
        "--seed", "4", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--exhaustive-k", "0",
                         "--trials", "1", "--json")
    assert code == 0
    assert [entry["mode"] for entry in json.loads(out)["laws"]] == ["random:K=2"]


def test_exhaustive_levels_over_the_pair_budget_exit_5(tmp_path, capsys):
    # 7^(2k) pairs pass 2^24 at k = 5: both refuse before scanning any level.
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "multiplicative", "--p", "7", "--precision", "10",
        "--seed", "1", "--out", str(path))
    for argv in (("check", "--key", str(path), "--exhaustive-k", "9"),
                 ("search", "ADD", "MUL", "--p", "7", "--precision", "10",
                  "--exhaustive-k", "5")):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert code == 5
        assert "over the budget" in err
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p, modes", [
    (67, ["exhaustive:k=1", "random:K=3"]),  # 67^4 pairs are over the budget, 67^2 are not
    (4099, ["random:K=3"]),  # 4099^2 pairs are over the budget
])
def test_default_check_scans_only_levels_within_the_pair_budget(tmp_path, capsys, p, modes):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", str(p), "--precision", "3",
        "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--json")
    assert code == 0
    assert [entry["mode"] for entry in json.loads(out)["laws"]] == modes


def test_an_explicit_level_over_the_pair_budget_still_exits_5(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "67", "--precision", "3",
        "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--exhaustive-k", "2")
    assert code == 5
    assert err == ("error: level 2 has 67^4 = 20151121 pairs, "
                   "over the budget of 16777216\n")


@pytest.mark.parametrize("mode", [(), ("--json",)])
def test_trial_and_key_counts_over_the_pair_budget_exit_5(tmp_path, capsys, mode):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "5", "--precision", "3",
        "--seed", "1", "--out", str(path))
    for argv in (("check", "--key", str(path), "--trials", str(10**12)),
                 ("search", "ADD", "MUL", "--keys", str(10**9))):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, *mode)
        assert time.perf_counter() - start < 1
        assert code == 5
        assert "over the budget" in err
        if mode:
            assert json.loads(err)["kind"] == "DomainError"


def test_check_scans_a_level_of_531441_pairs(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "multiplicative", "--p", "3", "--precision", "6",
        "--seed", "2", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--exhaustive-k", "6",
                         "--json")
    assert code == 0
    laws = json.loads(out)["laws"]
    assert [entry["trials"] for entry in laws][-2] == 3**12


def test_check_key_human_output(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "and", "--p", "5", "--precision", "2",
        "--seed", "6", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path))
    assert code == 0
    assert "overall: pass" in out
    assert "law AND" in out


def test_check_key_skips_measure_at_scale(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "5", "--precision", "16",
        "--seed", "7", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path))
    assert code == 0
    assert "skipped" in out


def test_skipped_measure_names_the_limit_not_the_modulus(tmp_path, capsys):
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "1000003", "--precision", "30",
        "--seed", "7", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--measure")
    assert code == 0
    assert "measure: skipped (p^K exceeds the measure limit of 4096)\n" in out
    code, out, err = run(capsys, "check", "--key", str(path), "--measure", "--json")
    assert code == 0
    assert json.loads(out)["measure"] == "skipped"


@pytest.mark.parametrize("limit, precision, measured", [
    (4096, 2, True), (8, 2, False), (4096, 8, False), (3**8, 8, True)])
def test_one_measure_limit_moves_check_and_the_scans_exhaustive_key_test(
        tmp_path, capsys, monkeypatch, limit, precision, measured):
    """core.MEASURE_LIMIT decides both whether check --key measures the whole
    map and whether a scan tests a drawn key over every residue."""
    monkeypatch.setattr(core, "MEASURE_LIMIT", limit)
    path = tmp_path / "k.json"
    run(capsys, "keygen", "--family", "additive", "--p", "3", "--precision", str(precision),
        "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "check", "--key", str(path), "--measure")
    assert code == 0
    skipped = f"measure: skipped (p^K exceeds the measure limit of {limit})\n"
    assert (skipped in out) == (not measured)
    assert ("measure: bruteforce=yes vdp=yes coordinate=yes\n" in out) == measured
    tested = []
    real = analysis.is_identity_key
    monkeypatch.setattr(analysis, "is_identity_key", lambda key: tested.append(key) or real(key))
    key = analysis._nonidentity_key(PadicContext(3, precision), "additive", Random(1))
    assert bool(tested) == measured and not real(key)


@pytest.mark.parametrize("argv, family", [
    (["search", "AND", "XOR", "--p", "2", "--precision", "12", "--keys", "1"], "and"),
    (["search", "AND", "ADD", "--p", "3", "--precision", "7", "--keys", "1"], "and"),
    (["search", "ADD", "MUL", "--p", "2", "--precision", "1"], "additive"),
    (["search", "XOR", "AND", "--p", "2", "--precision", "1"], "xor"),
    (["search", "MUL", "ADD", "--p", "3", "--precision", "1"], "multiplicative"),
])
def test_search_refuses_a_space_whose_only_key_is_the_identity_before_any_draw(
        capsys, monkeypatch, argv, family):
    drawn = []
    real = analysis.keygen
    monkeypatch.setattr(analysis, "keygen", lambda *args: drawn.append(args) or real(*args))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 5 and out == ""
    assert err == f"error: could not draw a non-identity {family} key\n"
    assert drawn == []


def test_check_exports_table(tmp_path, capsys):
    key_path, table_path = tmp_path / "k.json", tmp_path / "t.txt"
    run(capsys, "keygen", "--family", "xor", "--p", "3", "--precision", "2",
        "--seed", "8", "--out", str(key_path))
    code, out, err = run(capsys, "check", "--key", str(key_path), "--measure",
                         "--out", str(table_path))
    assert code == 0
    key = key_from_json(json.loads(key_path.read_text()))
    table = parse_table_text(table_path.read_text())
    assert table == encryption_table(key)


def test_check_table_file(tmp_path, capsys):
    ctx = PadicContext(3, 2)
    good = tmp_path / "good.txt"
    good.write_text(serialize_table_text(ValueTable.from_callable(ctx, lambda x: x)))
    code, out, err = run(capsys, "check", "--table", str(good))
    assert code == 0
    assert "one-lipschitz: yes" in out

    bad = tmp_path / "bad.txt"
    bad.write_text(serialize_table_text(ValueTable.from_callable(ctx, lambda x: x // 3)))
    code, out, err = run(capsys, "check", "--table", str(bad))
    assert code == 5
    assert "one-lipschitz: no" in out


@pytest.mark.parametrize("json_mode", (False, True))
def test_check_table_reads_a_vdp_series(tmp_path, capsys, json_mode):
    # A series file is checked as the table it interpolates.
    ctx = PadicContext(3, 2)
    flags = ("--json",) if json_mode else ()
    for values, want in ((tuple(range(9)), 0), (tuple(x // 3 for x in range(9)), 5)):
        table = ValueTable(ctx, values)
        as_table, as_series = tmp_path / "t.txt", tmp_path / "s.txt"
        as_table.write_text(serialize_table_text(table))
        as_series.write_text(serialize_table_text(vdp_interpolate(table)))
        start = time.perf_counter()
        code, out, err = run(capsys, "check", "--table", str(as_series), *flags)
        assert time.perf_counter() - start < 1
        assert (code, err) == (want, "")
        assert (code, out, err) == run(capsys, "check", "--table", str(as_table), *flags)


def test_table_over_the_size_limit_exits_5_before_its_lines_are_read(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("2 21 table\n" + "0\n" * (1 << 21))
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--table", str(path))
    assert time.perf_counter() - start < 1
    assert code == 5
    assert "exceeds the limit" in err


@pytest.mark.parametrize("argv", (("check", "--key", "k.json", "--json"),
                                  ("search", "ADD", "MUL", "--json")))
def test_closed_stdout_ends_without_a_traceback(tmp_path, capsys, argv):
    run(capsys, "keygen", "--family", "additive", "--p", "3", "--precision", "2",
        "--seed", "1", "--out", str(tmp_path / "k.json"))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "padic_ciphers.cli", *argv],
                            cwd=tmp_path, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # before the child writes anything
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=30) == 141
    assert "Traceback" not in err and "Error" not in err


@pytest.mark.parametrize("family", ("multiplicative", "and", "fhe"))
def test_keygen_over_the_draw_budget_exits_5(capsys, family):
    start = time.perf_counter()
    code, out, err = run(capsys, "keygen", "--family", family,
                         "--p", "1000000007", "--precision", "2")
    assert time.perf_counter() - start < 1
    assert code == 5
    assert "over the budget of 65536" in err


def test_check_requires_exactly_one_subject(tmp_path, capsys):
    code, out, err = run(capsys, "check")
    assert code == 3
    code, out, err = run(capsys, "check", "--key", "a", "--table", "b")
    assert code == 3


def test_g_for_a_family_other_than_fhe_exits_5(capsys):
    code, out, err = run(capsys, "keygen", "--family", "additive", "--g", "G1",
                         "--p", "5", "--precision", "2")
    assert (code, out, err) == (5, "", "error: --g only applies to the fhe family\n")


@pytest.mark.parametrize("content", ["[1, 2]", '"additive"', "7"])
def test_a_key_file_holding_no_json_object_exits_3(tmp_path, capsys, content):
    path = tmp_path / "k.json"
    path.write_text(content)
    code, out, err = run(capsys, "encrypt", "--key", str(path), "3")
    assert (code, out, err) == (3, "", "error: a key file must hold a single JSON object\n")


def test_check_of_a_key_that_breaks_its_law_prints_the_witnesses_and_exits_5(
        tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "k.json")
    run(capsys, "keygen", "--family", "additive", "--p", "5", "--precision", "2",
        "--seed", "1", "--out", path)
    # A shifted multiplication: still a measure-preserving map, but f(0) = 1.
    monkeypatch.setattr(AdditiveKey, "enc_int", property(
        lambda key: lambda v: (key.A.value * v + 1) % key.ctx.modulus))
    code, out, err = run(capsys, "check", "--key", path)
    assert (code, err) == (5, "")
    assert out == (
        "key: additive p=5 K=2\n"
        "measure: bruteforce=yes vdp=yes coordinate=yes\n"
        "law ADD exhaustive:k=1: counterexample witness=(0, 0) (1 pairs)\n"
        "law ADD exhaustive:k=2: counterexample witness=(0, 0) (1 pairs)\n"
        "law ADD random:K=2: counterexample witness=(12, 24) (1 pairs)\n"
        "overall: fail\n"
    )


def test_search_reports_counterexamples(capsys):
    code, out, err = run(
        capsys, "search", "ADD", "XOR", "--p", "3", "--precision", "3",
        "--keys", "3", "--seed", "5", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["counterexamples"] == 3
    assert len(data["reports"]) == 3
    for rep in data["reports"]:
        assert rep["verdict"] == "counterexample"
        assert "key" in rep["detail"]


def test_search_rejects_unknown_op(capsys):
    code, out, err = run(capsys, "search", "ADD", "NAND")
    assert code == 3


@pytest.mark.parametrize("first,second", [("ADD", "GLIN"), ("GLIN", "ADD"), ("XOR", "GLIN")])
def test_search_refuses_glin_before_drawing_a_key(capsys, monkeypatch, first, second):
    def no_scan(*args, **kwargs):
        raise AssertionError("a key was drawn")

    monkeypatch.setattr("padic_ciphers.analysis.intersection_scan", no_scan)
    code, out, err = run(capsys, "search", first, second, "--p", "5", "--precision", "3")
    assert code == 3
    assert "search cannot bind the coefficients of GLIN" in err


def test_demo_is_deterministic(capsys):
    code_a, out_a, _ = run(capsys, "demo", "--seed", "7", "--precision", "8")
    code_b, out_b, _ = run(capsys, "demo", "--seed", "7", "--precision", "8")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "match: yes" in out_a
    code_c, out_c, _ = run(capsys, "demo", "--seed", "8", "--precision", "8")
    assert out_c != out_a


def test_demo_json(capsys):
    code, out, err = run(capsys, "demo", "--seed", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["law_checks"] == {"ADD": "pass", "G1": "pass"}
    assert sorted(data["env"]) == ["x", "y", "z"]


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "keygen")[0] == 2  # --family is required
    # counts below their minimum, before any file is read
    for argv in (
        ("check", "--key", "k.json", "--trials", "0"),
        ("check", "--key", "k.json", "--trials", "-5", "--exhaustive-k", "-1"),
        ("check", "--key", "k.json", "--exhaustive-k", "-1"),
        ("search", "ADD", "XOR", "--keys", "0"),
        ("search", "ADD", "XOR", "--keys", "-1"),
        ("search", "ADD", "XOR", "--exhaustive-k", "-1"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "must be at least" in err


def test_p_beyond_the_exact_primality_range_exits_5(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "keygen", "--family", "additive",
                         "--p", str(2**89 - 1), "--precision", "1")
    assert code == 5
    assert "primality is decided exactly only below" in err
    assert time.perf_counter() - start < 1


# -- complete reports ------------------------------------------------------------------
#
# stdout holds a command's whole report or nothing.  The golden texts pin the text
# renderers byte for byte.


@pytest.fixture
def workdir(tmp_path, monkeypatch, capsys):
    """A working directory with keys, a table that is not 1-Lipschitz and a plain file."""
    monkeypatch.chdir(tmp_path)
    for family, p, K, seed, name in (("multiplicative", 5, 2, 4, "m.key"),
                                      ("additive", 5, 16, 7, "a.key"),
                                      ("multiplicative", 7, 10, 1, "big.key")):
        assert run(capsys, "keygen", "--family", family, "--p", str(p), "--precision", str(K),
                   "--seed", str(seed), "--out", name)[0] == 0
    table = ValueTable.from_callable(PadicContext(3, 2), lambda x: x // 3)
    (tmp_path / "bad.txt").write_text(serialize_table_text(table))
    (tmp_path / "plain.txt").write_text("a file, not a directory\n")
    return tmp_path


GOLDEN = {
    "check-multiplicative": (("check", "--key", "m.key"), 0, (
        "key: multiplicative p=5 K=2\n"
        "measure: bruteforce=yes vdp=yes coordinate=yes\n"
        "law MUL exhaustive:k=1: pass (25 pairs)\n"
        "law MUL exhaustive:k=2: pass (625 pairs)\n"
        "law MUL random:K=2: pass (512 pairs)\n"
        "coefficient probe: pass (24 indices)\n"
        "overall: pass\n")),
    "check-table-fails": (("check", "--table", "bad.txt"), 5, (
        "table: p=3 K=2 (9 entries)\n"
        "one-lipschitz: no\n"
        "overall: fail\n")),
    "check-measure-skipped": (("check", "--key", "a.key"), 0, (
        "key: additive p=5 K=16\n"
        "measure: skipped (p^K exceeds the measure limit of 4096)\n"
        "law ADD exhaustive:k=1: pass (25 pairs)\n"
        "law ADD exhaustive:k=2: pass (625 pairs)\n"
        "law ADD random:K=16: pass (512 pairs)\n"
        "overall: pass\n")),
    "search": (("search", "ADD", "XOR", "--p", "3", "--precision", "3", "--keys", "3",
                "--seed", "5"), 0, (
        "scanning 3 non-identity ADD keys for XOR violations (p=3, K=3, seed=5)\n"
        "key 1: counterexample x=1 y=1 via exhaustive:k=2 (20 pairs)\n"
        "key 2: counterexample x=4 y=1 via exhaustive:k=3 (122 pairs)\n"
        "key 3: counterexample x=4 y=1 via exhaustive:k=3 (122 pairs)\n"
        "counterexamples: 3/3\n")),
    "keygen-out": (("keygen", "--family", "additive", "--p", "5", "--precision", "3",
                    "--seed", "11", "--out", "add.key"), 0,
                   "wrote additive key (p=5, K=3) to add.key\n"),
}


@pytest.mark.parametrize("name", GOLDEN)
def test_text_reports_are_pinned(workdir, capsys, name):
    argv, code, text = GOLDEN[name]
    assert run(capsys, *argv) == (code, text, "")


def _no_match(monkeypatch):
    """Make the encrypted round trip decrypt one off, so eval reports no match."""
    from padic_ciphers import formula

    real = formula.decrypt
    monkeypatch.setattr(formula, "decrypt", lambda key, c: real(key, c) + PadicInt(c.ctx, 1))


REPORTS = {
    # name: (argv, exit code, (last text line, JSON field, its value)) or None for no report
    "failing-table": (("check", "--table", "bad.txt"), 5, ("overall: fail", "overall", "fail")),
    "eval-no-match": (("eval", "--key", "m.key", "--formula", "x * y", "--env", "x=2",
                       "--env", "y=3"), 5, ("match:     no", "match", False)),
    "trials-over-budget": (("check", "--key", "m.key", "--trials", str(10**12)), 5, None),
    "incompatible-formula": (("eval", "--key", "m.key", "--formula", "x + y", "--env", "x=2",
                              "--env", "y=3"), 4, None),
    "malformed-key": (("encrypt", "--key", "bad.txt", "1"), 3, None),
}


@pytest.mark.parametrize("json_mode", (False, True))
@pytest.mark.parametrize("name", REPORTS)
def test_stdout_holds_the_whole_report_or_nothing(workdir, capsys, monkeypatch, name, json_mode):
    argv, want, report = REPORTS[name]
    if name == "eval-no-match":
        _no_match(monkeypatch)
    code, out, err = run(capsys, *argv, *["--json"] * json_mode)
    assert code == want
    if report is None:
        assert out == "" and len(err.splitlines()) == 1
    elif json_mode:
        assert json.loads(out)[report[1]] == report[2]
    else:
        assert out.endswith(report[0] + "\n")


@pytest.mark.parametrize("json_mode", (False, True))
@pytest.mark.parametrize("argv", [
    ("encrypt", "--key", "plain.txt/k.json", "1"),
    ("encrypt", "--key", "k" * 5000, "1"),
    ("check", "--table", "plain.txt/t.txt"),
    ("keygen", "--family", "additive", "--out", "plain.txt/k.json"),
    ("check", "--key", "m.key", "--measure", "--out", "plain.txt/t.txt"),
], ids=["key-under-a-file", "key-name-too-long", "table-under-a-file", "keygen-out-under-a-file",
        "check-out-under-a-file"])
def test_unusable_paths_exit_3(workdir, capsys, argv, json_mode):
    code, out, err = run(capsys, *argv, *["--json"] * json_mode)
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    if json_mode:
        assert json.loads(line)["kind"] in ("NotADirectoryError", "OSError")
    else:
        assert line.startswith("error: [Errno ")


@pytest.mark.parametrize("json_mode", (False, True))
@pytest.mark.parametrize("target, kind, message", [
    ("adir", "IsADirectoryError", "[Errno 21] Is a directory: 'adir'"),
    ("plain.txt/out", "NotADirectoryError", "[Errno 20] Not a directory: 'plain.txt/out'"),
], ids=["directory", "under-a-file"])
@pytest.mark.parametrize("argv", [
    ("keygen", "--family", "additive", "--out"),
    ("check", "--key", "m.key", "--out"),
], ids=["keygen", "check"])
def test_unwritable_out_names_the_given_path(workdir, capsys, argv, target, kind, message,
                                             json_mode):
    (workdir / "adir").mkdir()
    want = (json.dumps({"error": message, "kind": kind}) if json_mode
            else f"error: {message}") + "\n"
    for _ in range(2):  # the same stderr on every run
        code, out, err = run(capsys, *argv, target, *["--json"] * json_mode)
        assert (code, out, err) == (3, "", want)
    assert not list(workdir.rglob(".key-*"))


@pytest.mark.parametrize("json_mode", (False, True))
@pytest.mark.parametrize("key, flags, message", [
    ("m.key", ("--trials", str(10**12)), "over the budget"),
    ("big.key", ("--exhaustive-k", "9"), "over the budget"),
    ("big.key", ("--out", "t.txt"), "cannot export a table this large"),
], ids=["trials", "level", "out"])
def test_check_refuses_before_any_table_or_scan(workdir, capsys, monkeypatch, key, flags,
                                                message, json_mode):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    monkeypatch.setattr(cli, "encryption_table", no_work)
    monkeypatch.setattr("padic_ciphers.analysis.homomorphism_test", no_work)
    code, out, err = run(capsys, "check", "--key", key, *flags, *["--json"] * json_mode)
    assert (code, out) == (5, "")
    assert message in err


# -- the pinned transcript ---------------------------------------------------------------
#
# One digest over about 230 commands: every family at every context that admits it, each
# command in text and JSON, the searches, the demo and one command per error exit.  Any
# change to any byte of any output changes the digest.

TRANSCRIPT_FORMULAS = {"additive": "x + y + 3", "multiplicative": "x * y * 2",
                       "xor": "XOR(x, y)", "and": "AND(x, 3)", "fhe": "G1(x, y) + x"}


def _transcript() -> list[tuple[str, ...]]:
    commands = []
    for family, formula in TRANSCRIPT_FORMULAS.items():
        for p, K in ((3, 3), (5, 4), (7, 2), (2, 5)):
            if p == 2 and family in ("multiplicative", "fhe"):  # both need odd p
                continue
            key, table = f"{family}-{p}-{K}.key", f"{family}-{p}-{K}.txt"
            commands.append(("keygen", "--family", family, "--p", str(p),
                             "--precision", str(K), "--seed", str(p + K), "--out", key))
            for argv in (("encrypt", "--key", key, "7"), ("decrypt", "--key", key, "7"),
                         ("check", "--key", key),
                         ("eval", "--key", key, "--formula", formula,
                          "--env", "x=2", "--env", "y=5")):
                commands += [argv, (*argv, "--json")]
            commands += [("check", "--key", key, "--measure", "--out", table),
                         ("check", "--table", table), ("check", "--table", table, "--json")]
    commands += [
        ("search", "ADD", "XOR", "--p", "3", "--precision", "3", "--keys", "3", "--seed", "5"),
        ("search", "MUL", "ADD", "--p", "5", "--precision", "2", "--keys", "2", "--json"),
        ("search", "XOR", "AND", "--p", "3", "--precision", "4", "--keys", "2",
         "--exhaustive-k", "2", "--seed", "3"),
        ("search", "AND", "G1", "--p", "7", "--precision", "2", "--keys", "3", "--json"),
        ("demo", "--p", "5", "--precision", "6", "--seed", "3"),
        ("demo", "--p", "7", "--precision", "4", "--seed", "1", "--json"),
        ("demo", "--bogus"),  # 2
        ("encrypt", "--key", "missing.key", "1"),  # 3
        ("eval", "--key", "additive-5-4.key", "--formula", "x * y",
         "--env", "x=2", "--env", "y=5"),  # 4
        ("keygen", "--family", "multiplicative", "--p", "2", "--precision", "5"),  # 5
    ]
    return commands


TRANSCRIPT_DIGEST = "0fce620fcff0aad9591dcd4f191903480a4ee73a7f11fd24d964f246ad2c972b"


def test_cli_transcript_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal
    digest, codes = hashlib.sha256(), set()
    for argv in _transcript():
        code, out, err = run(capsys, *argv)
        codes.add(code)
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert codes == {0, 2, 3, 4, 5}
    assert digest.hexdigest() == TRANSCRIPT_DIGEST
