"""Command-line front end.

Subcommands::

    keygen    draw a key of one family and write it as JSON
    encrypt   encrypt one value under a key file
    decrypt   decrypt one value under a key file
    eval      evaluate a formula, in the clear or through a key
    check     verify a key or a plain value table (laws, measure, coefficients)
    search    hunt counterexamples showing two families only share the identity
    demo      seeded end-to-end encrypted evaluation of the showcase formula

Exit codes: 0 success, 2 usage, 3 malformed input file or text, 4 formula
incompatible with the key, 5 any other domain failure (law violation found
by `check`, invalid parameters, ...), 141 (128 + SIGPIPE) with no traceback
when the reader of stdout closes it early, as `| head` does.  Key files are
written atomically: a crash mid-write never leaves a partial key on disk.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from random import Random

from .ciphers import (
    FAMILIES,
    G_CHOICES,
    G1,
    LinearG,
    _random_unit,
    decrypt,
    encrypt,
    encryption_table,
    exponent_gcd,
    key_from_json,
    key_to_json,
    keygen,
    operation_from_name,
)
from .core import (
    DomainError,
    FormatError,
    IncompatibleFormulaError,
    PadicContext,
    PadicError,
    PadicInt,
    from_text,
    to_text,
)

# The analysis, formula and lipschitz layers are imported inside the commands
# that run them, so keygen, encrypt and decrypt load only core and ciphers.

_MEASURE_LIMIT = 4096


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".key-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _read_text(path: str) -> str:
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not readable text: {exc}") from None


def _load_key(path: str):
    text = _read_text(path)
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except (ValueError, RecursionError) as exc:  # a number too long for int(), or too deep
        raise FormatError(f"key file {path}: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("a key file must hold a single JSON object")
    return key_from_json(data)


def _parse_env(pairs: list[str], ctx: PadicContext) -> dict[str, PadicInt]:
    env = {}
    for pair in pairs:
        name, eq, raw = pair.partition("=")
        name = name.strip()
        if not eq or not name.isidentifier():
            raise FormatError(f"environment entries look like name=value, got {pair!r}")
        env[name] = from_text(raw, ctx)
    return env


# -- keygen ---------------------------------------------------------------------


def _cmd_keygen(args) -> int:
    ctx = PadicContext(args.p, args.precision)
    rng = Random(args.seed)
    g = None
    if args.g is not None and args.family != "fhe":
        raise DomainError("--g only applies to the fhe family")
    if args.family == "fhe":
        name = args.g or "G1"
        if name == "GLIN":
            g = LinearG(_random_unit(ctx, rng), _random_unit(ctx, rng))
        else:
            g = operation_from_name(name, ctx)
        if ctx.p == 2:  # refused before the warning, as keygen refuses it
            raise DomainError("admissible multipliers are computed for odd p")
        d = exponent_gcd(g, ctx.p)
        usable = None if d is None else math.gcd(d, ctx.p - 1) - 1  # A = 1 excluded
        if usable is not None and usable < 3:
            print(
                f"warning: only {usable} non-trivial multiplier(s) commute with "
                f"{name} at p = {ctx.p}; the key space is tiny",
                file=sys.stderr,
            )
    key = keygen(ctx, args.family, rng, g=g)
    payload = json.dumps(key_to_json(key), indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_atomic(args.out, payload)
        if args.json:
            _emit_json({"written": args.out, "family": key.family,
                        "p": ctx.p, "precision": ctx.precision})
        else:
            print(f"wrote {key.family} key (p={ctx.p}, K={ctx.precision}) to {args.out}")
    else:
        print(payload, end="")
    return 0


# -- encrypt / decrypt -------------------------------------------------------------


def _cmd_endec(args, forward: bool) -> int:
    key = _load_key(args.key)
    value = from_text(args.value, key.ctx)
    result = encrypt(key, value) if forward else decrypt(key, value)
    if args.json:
        _emit_json({
            "input": value.value,
            "output": result.value,
            "output_text": to_text(result),
        })
    else:
        print(f"{result.value}  ({to_text(result)})")
    return 0


# -- eval ---------------------------------------------------------------------------


def _plain_report(report: dict) -> dict:
    """encrypted_eval_demo's report with each residue given as its integer."""
    return report | {name: report[name].value for name in ("plain", "cipher", "decrypted")}


def _cmd_eval(args) -> int:
    from .formula import encrypted_eval_demo, evaluate, parse as parse_formula

    if args.key:
        key = _load_key(args.key)
        ctx = key.ctx
        ast = parse_formula(args.formula, ctx)
        env = _parse_env(args.env, ctx)
        out = _plain_report(encrypted_eval_demo(ast, env, key, seed=args.seed or 0))
        if args.json:
            _emit_json(out)
        else:
            print(f"plain:     {out['plain']}")
            print(f"cipher:    {out['cipher']}")
            print(f"decrypted: {out['decrypted']}")
            print(f"match:     {_yn(out['match'])}")
        return 0 if out["match"] else 5
    ctx = PadicContext(args.p, args.precision)
    ast = parse_formula(args.formula, ctx)
    env = _parse_env(args.env, ctx)
    value = evaluate(ast, env)
    if args.json:
        _emit_json({"value": value.value, "text": to_text(value)})
    else:
        print(f"{value.value}  ({to_text(value)})")
    return 0


# -- check ------------------------------------------------------------------------------


def _measure_block(table) -> dict:
    from .lipschitz import (
        check_measure_bruteforce,
        check_measure_coord,
        check_measure_vdp,
        coord_from_table,
        vdp_interpolate,
    )

    series = vdp_interpolate(table)
    return {
        "bruteforce": check_measure_bruteforce(table),
        "vdp": check_measure_vdp(series),
        "coordinate": check_measure_coord(coord_from_table(table)),
    }

def _cmd_check(args) -> int:
    from .analysis import (
        PAIR_BUDGET,
        check_pair_budget,
        homomorphism_test,
        laws_for_key,
        vdp_coefficient_probe,
    )
    from .lipschitz import (
        VdpSeries,
        check_one_lipschitz,
        parse_table_text,
        serialize_table_text,
        vdp_to_table,
    )

    if bool(args.key) == bool(args.table):
        raise FormatError("check needs exactly one of --key or --table")
    results: dict = {}
    ok = True
    if args.table:
        table = parse_table_text(_read_text(args.table))
        if isinstance(table, VdpSeries):  # check the map the series interpolates
            table = vdp_to_table(table)
        results["p"] = table.ctx.p
        results["precision"] = table.ctx.precision
        lip = check_one_lipschitz(table)
        results["one_lipschitz"] = lip
        ok &= lip
        if lip:
            measure = _measure_block(table)
            results["measure"] = measure
            ok &= all(measure.values())
        if not args.json:
            print(f"table: p={table.ctx.p} K={table.ctx.precision} "
                  f"({len(table.values)} entries)")
            print(f"one-lipschitz: {_yn(lip)}")
            if lip:
                m = results["measure"]
                print(f"measure: bruteforce={_yn(m['bruteforce'])} "
                      f"vdp={_yn(m['vdp'])} coordinate={_yn(m['coordinate'])}")
    else:
        key = _load_key(args.key)
        ctx = key.ctx
        results["family"] = key.family
        results["p"] = ctx.p
        results["precision"] = ctx.precision
        if not args.json:
            print(f"key: {key.family} p={ctx.p} K={ctx.precision}")
        if ctx.modulus <= _MEASURE_LIMIT:
            table = encryption_table(key)
            measure = _measure_block(table)
            results["measure"] = measure
            ok &= all(measure.values())
            if not args.json:
                print(f"measure: bruteforce={_yn(measure['bruteforce'])} "
                      f"vdp={_yn(measure['vdp'])} coordinate={_yn(measure['coordinate'])}")
            if args.out:
                _write_atomic(args.out, serialize_table_text(table))
                results["table_written"] = args.out
                if not args.json:
                    print(f"wrote encryption table to {args.out}")
        else:
            results["measure"] = "skipped"
            if not args.json:
                print(f"measure: skipped (p^K exceeds the table limit of {_MEASURE_LIMIT})")
            if args.out:
                raise DomainError("cannot export a table this large")
        if not args.measure:
            top = args.exhaustive_k
            if top is None:  # levels 1 and 2, as far as the pair budget allows
                top = next(k for k in (2, 1, 0) if ctx.p ** (2 * k) <= PAIR_BUDGET)
            top = min(top, ctx.precision)
            check_pair_budget(ctx, top)  # refuse before any level runs
            laws = []
            for law in laws_for_key(key):
                for k in range(1, top + 1):
                    rep = homomorphism_test(key, law, exhaustive_k=k)
                    laws.append({"law": law.name} | rep.to_json())
                rep = homomorphism_test(key, law, seed=args.seed, trials=args.trials)
                laws.append({"law": law.name} | rep.to_json())
            results["laws"] = laws
            ok &= all(entry["verdict"] == "pass" for entry in laws)
            if not args.json:
                for entry in laws:
                    line = f"law {entry['law']} {entry['mode']}: {entry['verdict']}"
                    if entry["witness"]:
                        line += f" witness={tuple(entry['witness'])}"
                    print(f"{line} ({entry['trials']} pairs)")
            if key.family == "multiplicative" and ctx.modulus <= _MEASURE_LIMIT:
                probe = vdp_coefficient_probe(key)
                results["coefficient_probe"] = probe.to_json()
                ok &= probe.verdict == "pass"
                if not args.json:
                    print(f"coefficient probe: {probe.verdict} ({probe.trials} indices)")
    results["overall"] = "pass" if ok else "fail"
    if args.json:
        _emit_json(results)
    else:
        print(f"overall: {results['overall']}")
    return 0 if ok else 5


# -- search -------------------------------------------------------------------------------


def _search_symbol(name: str):
    from .analysis import symbol_from_name

    if name == "GLIN":
        raise FormatError("search cannot bind the coefficients of GLIN; "
                          "name a fixed operation (ADD MUL XOR AND G1..G4)")
    return symbol_from_name(name)


def _cmd_search(args) -> int:
    from .analysis import intersection_scan

    first = _search_symbol(args.first)
    second = _search_symbol(args.second)
    ctx = PadicContext(args.p, args.precision)
    reports = intersection_scan(
        first, second, ctx,
        n_keys=args.keys, seed=args.seed, max_k=args.exhaustive_k,
    )
    found = sum(1 for r in reports if r.verdict == "counterexample")
    if args.json:
        _emit_json({
            "first": first.name,
            "second": second.name,
            "p": ctx.p,
            "precision": ctx.precision,
            "reports": [r.to_json() for r in reports],
            "counterexamples": found,
        })
    else:
        print(f"scanning {args.keys} non-identity {first.name} keys for "
              f"{second.name} violations (p={ctx.p}, K={ctx.precision}, seed={args.seed})")
        for i, rep in enumerate(reports, 1):
            if rep.verdict == "counterexample":
                x, y = rep.witness
                print(f"key {i}: counterexample x={x} y={y} via {rep.mode} "
                      f"({rep.trials} pairs)")
            else:
                print(f"key {i}: exhausted after {rep.trials} pairs ({rep.mode})")
        print(f"counterexamples: {found}/{len(reports)}")
    return 0


# -- demo ------------------------------------------------------------------------------------


def _cmd_demo(args) -> int:
    from .formula import DEMO_FORMULA, encrypted_eval_demo, parse as parse_formula, vars_used

    ctx = PadicContext(args.p, args.precision)
    rng = Random(args.seed)
    key = keygen(ctx, "fhe", rng, g=G1())
    ast = parse_formula(DEMO_FORMULA, ctx)
    names = sorted(vars_used(ast))
    env = {name: PadicInt(ctx, rng.randrange(ctx.modulus)) for name in names}
    report = _plain_report(encrypted_eval_demo(ast, env, key, seed=args.seed))
    if args.json:
        _emit_json({
            "p": ctx.p,
            "precision": ctx.precision,
            "seed": args.seed,
            "multiplier": key.A.value,
            "formula": DEMO_FORMULA,
            "env": {name: value.value for name, value in env.items()},
            **report,
        })
    else:
        print(f"encrypted evaluation demo (p={ctx.p}, K={ctx.precision}, seed={args.seed})")
        print(f"key: fhe multiplier A = {key.A.value}, operation G1")
        print(f"formula: {DEMO_FORMULA}")
        for name in names:
            print(f"  {name} = {env[name].value}")
        print(f"plain result:     {report['plain']}")
        print(f"cipher result:    {report['cipher']}")
        print(f"decrypted result: {report['decrypted']}")
        print(f"match: {_yn(report['match'])}")
        checks = " ".join(f"{name}={verdict}" for name, verdict
                          in sorted(report["law_checks"].items()))
        print(f"law checks: {checks}")
    return 0 if report["match"] else 5


# -- wiring -----------------------------------------------------------------------------------


def _add_context_args(sub, default_p=5, default_precision=16) -> None:
    sub.add_argument("--p", type=int, default=default_p, help="odd prime base")
    sub.add_argument("--precision", type=int, default=default_precision,
                     help="number of digits kept")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-ciphers",
        description="digit ciphers and 1-Lipschitz analysis over p-adic integers",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("keygen", help="generate a key file")
    _add_context_args(sub)
    sub.add_argument("--family", required=True, choices=FAMILIES)
    sub.add_argument("--g", choices=G_CHOICES,
                     help="operation for the fhe family (default G1)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", help="write the key here (atomic); default stdout")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_keygen)

    for name, forward in (("encrypt", True), ("decrypt", False)):
        sub = subs.add_parser(name, help=f"{name} one value")
        sub.add_argument("--key", required=True, help="key file (JSON)")
        sub.add_argument("value", help="decimal or p:K:d0,...,dK-1")
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(func=lambda a, fwd=forward: _cmd_endec(a, fwd))

    sub = subs.add_parser("eval", help="evaluate a formula")
    _add_context_args(sub)
    sub.add_argument("--key", help="run the encrypted round trip under this key")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--env", action="append", default=[], metavar="NAME=VALUE")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_eval)

    sub = subs.add_parser("check", help="verify a key or a value table")
    sub.add_argument("--key", help="key file to verify")
    sub.add_argument("--table", help="value table file to verify")
    sub.add_argument("--measure", action="store_true",
                     help="measure checks only (skip law scans)")
    sub.add_argument("--exhaustive-k", type=_at_least(0), default=None, dest="exhaustive_k")
    sub.add_argument("--trials", type=_at_least(1), default=512)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="with --key: export the encryption table")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_check)

    sub = subs.add_parser("search", help="intersection counterexample scan")
    _add_context_args(sub, default_p=3, default_precision=3)
    sub.add_argument("first", help="family operation: ADD MUL XOR AND")
    sub.add_argument("second", help="law to violate: ADD MUL XOR AND G1..G4")
    sub.add_argument("--keys", type=_at_least(1), default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--exhaustive-k", type=_at_least(0), default=None, dest="exhaustive_k")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_search)

    sub = subs.add_parser("demo", help="seeded encrypted-evaluation walkthrough")
    _add_context_args(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=_cmd_demo)

    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except IncompatibleFormulaError as exc:
        _report_error(args, exc)
        return 4
    except (FormatError, FileNotFoundError, IsADirectoryError,
            json.JSONDecodeError) as exc:
        _report_error(args, exc)
        return 3
    except PadicError as exc:
        _report_error(args, exc)
        return 5


def _report_error(args, exc: Exception) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # as the signal module's documentation advises
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
