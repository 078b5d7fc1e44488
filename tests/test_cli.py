import json
import os

import pytest

from padic_ciphers.cli import run_command
from padic_ciphers.ciphers import key_from_json, encryption_table
from padic_ciphers.core import PadicContext, PadicInt
from padic_ciphers.lipschitz import (
    ValueTable,
    parse_table_text,
    serialize_table_text,
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


@pytest.mark.parametrize(
    "fields",
    [
        {"family": "additive", "A": ["x"]},
        {"family": "multiplicative", "A": "1", "s": 1, "a": 7},
        {"family": "xor", "rows": "1"},
        {"family": "xor", "rows": ["1"]},
        {"family": "and", "exponents": "1"},
        {"family": "fhe", "A": "1", "g": "GLIN", "ga": ["x"]},
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


def test_eval_syntax_error_exits_3(capsys):
    code, out, err = run(capsys, "eval", "--formula", "x +", "--env", "x=1")
    assert code == 3


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


def test_check_requires_exactly_one_subject(tmp_path, capsys):
    code, out, err = run(capsys, "check")
    assert code == 3
    code, out, err = run(capsys, "check", "--key", "a", "--table", "b")
    assert code == 3


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
