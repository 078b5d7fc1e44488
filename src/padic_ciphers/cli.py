"""Command-line front end.

Subcommands::

    keygen    draw a key of one family and write it as JSON
    encrypt   encrypt one value under a key file
    decrypt   decrypt one value under a key file
    eval      evaluate a formula, in the clear or through a key
    check     verify a key or a plain value table (laws, measure, coefficients)
    search    hunt counterexamples showing two families only share the identity
    demo      seeded end-to-end encrypted evaluation of the showcase formula

Each command returns its exit code and its report, a dict.  `--json` prints
the dict; otherwise the command's text renderer prints the same facts from
it.  So stdout holds a command's whole report or nothing: a command that
raises prints only its error, on stderr.

Exit codes: 0 success, 2 usage, 3 malformed input file or text, or a path
that cannot be read or written, 4 formula incompatible with the key, 5 any
other domain failure (law violation found by `check`, invalid parameters,
...), 141 (128 + SIGPIPE) with no traceback when the reader of stdout closes
it early, as `| head` does.  Key files are written atomically: a crash
mid-write never leaves a partial key on disk.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from random import Random

from .ciphers import (
    FAMILIES,
    G_CHOICES,
    G1,
    GLIN,
    OP_NAMES,
    decrypt,
    encrypt,
    encryption_table,
    identity_only,
    key_from_json,
    key_to_json,
    keygen,
    multiplier_count,
)
from . import core
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


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file beside path; an OSError names path, not
    the temporary file, and keeps its errno and so its kind."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _read_text(path: str) -> str:
    # Opened without blocking, so a FIFO with no writer reads as empty at once.
    with open(path, opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as fh:
        os.set_blocking(fh.fileno(), True)
        try:
            text = fh.read(core.FILE_LIMIT + 1)  # bounded: /dev/zero reports size 0
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not readable text: {exc}") from None
    if len(text) > core.FILE_LIMIT:
        raise FormatError(f"{path} holds more than {core.FILE_LIMIT} characters")
    return text


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


def _cmd_keygen(args) -> tuple[int, dict]:
    ctx = PadicContext(args.p, args.precision)
    rng = Random(args.seed)
    g = None
    if args.g is not None and args.family != "fhe":
        raise DomainError("--g only applies to the fhe family")
    if args.family == "fhe":
        g = OP_NAMES[args.g or "G1"]
        count = None if g is GLIN else multiplier_count(ctx, g)  # keygen binds GLIN
        if count is not None and count < 4:  # A = 1 is one of them
            print(f"warning: only {count - 1} non-trivial multiplier(s) commute with "
                  f"{g.name} at p = {ctx.p}; the key space is tiny", file=sys.stderr)
    if identity_only(ctx, args.family):
        print(f"warning: the identity is the only {args.family} key at p = {ctx.p}, "
              f"K = {ctx.precision}", file=sys.stderr)
    key = keygen(ctx, args.family, rng, g=g)
    if not args.out:  # the key itself is the report
        return 0, key_to_json(key)
    _write_atomic(args.out, _json_text(key_to_json(key)) + "\n")
    return 0, {"written": args.out, "family": key.family,
               "p": ctx.p, "precision": ctx.precision}


def _keygen_text(r: dict, args) -> str:
    if not args.out:
        return _json_text(r)
    return f"wrote {r['family']} key (p={r['p']}, K={r['precision']}) to {r['written']}"


# -- encrypt / decrypt -------------------------------------------------------------


def _cmd_endec(args, forward: bool) -> tuple[int, dict]:
    key = _load_key(args.key)
    value = from_text(args.value, key.ctx)
    result = encrypt(key, value) if forward else decrypt(key, value)
    return 0, {"input": value.value, "output": result.value, "output_text": to_text(result)}


# -- eval ---------------------------------------------------------------------------


def _round_trip(ast, env: dict, key, seed: int) -> dict:
    """encrypted_eval_demo's report, with each residue given as its integer."""
    from .formula import encrypted_eval_demo

    report = encrypted_eval_demo(ast, env, key, seed=seed)
    return report | {name: report[name].value for name in ("plain", "cipher", "decrypted")}


def _cmd_eval(args) -> tuple[int, dict]:
    from .formula import evaluate, parse as parse_formula

    if args.key:
        key = _load_key(args.key)
        ast = parse_formula(args.formula, key.ctx)
        report = _round_trip(ast, _parse_env(args.env, key.ctx), key, args.seed)
        return (0 if report["match"] else 5), report
    ctx = PadicContext(args.p, args.precision)
    value = evaluate(parse_formula(args.formula, ctx), _parse_env(args.env, ctx))
    return 0, {"value": value.value, "text": to_text(value)}


def _eval_text(r: dict, args) -> str:
    if not args.key:
        return f"{r['value']}  ({r['text']})"
    return (f"plain:     {r['plain']}\ncipher:    {r['cipher']}\n"
            f"decrypted: {r['decrypted']}\nmatch:     {_yn(r['match'])}")


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


def _overall(results: dict) -> tuple[int, dict]:
    """A finished check report with its overall verdict, and the exit code."""
    measure = results.get("measure")
    scans = [*results.get("laws", ()), results.get("coefficient_probe", {"verdict": "pass"})]
    ok = (results.get("one_lipschitz", True)
          and all(measure.values() if isinstance(measure, dict) else ())
          and all(scan["verdict"] == "pass" for scan in scans))
    results["overall"] = "pass" if ok else "fail"
    return (0 if ok else 5), results


def _cmd_check(args) -> tuple[int, dict]:
    from .analysis import (
        check_pair_budget,
        check_trial_budget,
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
    if args.table:
        table = parse_table_text(_read_text(args.table))
        if isinstance(table, VdpSeries):  # check the map the series interpolates
            table = vdp_to_table(table)
        results = {"p": table.ctx.p, "precision": table.ctx.precision,
                   "one_lipschitz": check_one_lipschitz(table)}
        if results["one_lipschitz"]:
            results["measure"] = _measure_block(table)
        return _overall(results)
    key = _load_key(args.key)
    ctx = key.ctx
    small = ctx.modulus <= core.MEASURE_LIMIT
    # Every refusal comes before any table or scan.
    if args.out and not small:
        raise DomainError("cannot export a table this large")
    if not args.measure:
        top = args.exhaustive_k
        if top is None:  # levels 1 and 2, as far as the pair budget allows
            top = next(k for k in (2, 1, 0) if ctx.p ** (2 * k) <= core.PAIR_BUDGET)
        top = min(top, ctx.precision)
        check_pair_budget(ctx, top)
        check_trial_budget(args.trials)
    results = {"family": key.family, "p": ctx.p, "precision": ctx.precision,
               "measure": "skipped"}
    subject = key
    if small:
        subject = table = encryption_table(key)  # the law scans read it, not the key
        results["measure"] = _measure_block(table)
        if args.out:
            _write_atomic(args.out, serialize_table_text(table))
            results["table_written"] = args.out
    if not args.measure:
        laws = []
        for law in laws_for_key(key):
            reports = [homomorphism_test(subject, law, exhaustive_k=k) for k in range(1, top + 1)]
            reports.append(homomorphism_test(subject, law, seed=args.seed, trials=args.trials))
            laws += [{"law": law.name} | rep.to_json() for rep in reports]
        results["laws"] = laws
        if key.family == "multiplicative" and small:
            results["coefficient_probe"] = vdp_coefficient_probe(key).to_json()
    return _overall(results)


def _check_text(r: dict, args) -> str:
    if args.table:
        lines = [f"table: p={r['p']} K={r['precision']} ({r['p'] ** r['precision']} entries)",
                 f"one-lipschitz: {_yn(r['one_lipschitz'])}"]
    else:
        lines = [f"key: {r['family']} p={r['p']} K={r['precision']}"]
    m = r.get("measure")
    if m == "skipped":
        lines.append(f"measure: skipped (p^K exceeds the measure limit of {core.MEASURE_LIMIT})")
    elif m:
        lines.append(f"measure: bruteforce={_yn(m['bruteforce'])} "
                     f"vdp={_yn(m['vdp'])} coordinate={_yn(m['coordinate'])}")
    if "table_written" in r:
        lines.append(f"wrote encryption table to {r['table_written']}")
    for entry in r.get("laws", ()):
        line = f"law {entry['law']} {entry['mode']}: {entry['verdict']}"
        if entry["witness"]:
            line += f" witness={tuple(entry['witness'])}"
        lines.append(f"{line} ({entry['trials']} pairs)")
    if "coefficient_probe" in r:
        probe = r["coefficient_probe"]
        lines.append(f"coefficient probe: {probe['verdict']} ({probe['trials']} indices)")
    lines.append(f"overall: {r['overall']}")
    return "\n".join(lines)


# -- search -------------------------------------------------------------------------------


def _search_symbol(name: str):
    from .analysis import symbol_from_name

    if name == "GLIN":
        raise FormatError("search cannot bind the coefficients of GLIN; "
                          "name a fixed operation (ADD MUL XOR AND G1..G4)")
    return symbol_from_name(name)


def _cmd_search(args) -> tuple[int, dict]:
    from .analysis import intersection_scan

    first = _search_symbol(args.first)
    second = _search_symbol(args.second)
    ctx = PadicContext(args.p, args.precision)
    reports = intersection_scan(
        first, second, ctx,
        n_keys=args.keys, seed=args.seed, max_k=args.exhaustive_k,
    )
    return 0, {
        "first": first.name,
        "second": second.name,
        "p": ctx.p,
        "precision": ctx.precision,
        "reports": [r.to_json() for r in reports],
        "counterexamples": sum(r.verdict == "counterexample" for r in reports),
    }


def _search_text(r: dict, args) -> str:
    lines = [f"scanning {args.keys} non-identity {r['first']} keys for {r['second']} "
             f"violations (p={r['p']}, K={r['precision']}, seed={args.seed})"]
    for i, rep in enumerate(r["reports"], 1):
        if rep["verdict"] == "counterexample":
            x, y = rep["witness"]
            lines.append(f"key {i}: counterexample x={x} y={y} via {rep['mode']} "
                         f"({rep['trials']} pairs)")
        else:
            lines.append(f"key {i}: exhausted after {rep['trials']} pairs ({rep['mode']})")
    lines.append(f"counterexamples: {r['counterexamples']}/{len(r['reports'])}")
    return "\n".join(lines)


# -- demo ------------------------------------------------------------------------------------


def _cmd_demo(args) -> tuple[int, dict]:
    from .formula import DEMO_FORMULA, parse as parse_formula, vars_used

    ctx = PadicContext(args.p, args.precision)
    rng = Random(args.seed)
    key = keygen(ctx, "fhe", rng, g=G1())
    ast = parse_formula(DEMO_FORMULA, ctx)
    env = {name: PadicInt(ctx, rng.randrange(ctx.modulus)) for name in sorted(vars_used(ast))}
    report = _round_trip(ast, env, key, args.seed)
    return (0 if report["match"] else 5), {
        "p": ctx.p,
        "precision": ctx.precision,
        "seed": args.seed,
        "multiplier": key.A.value,
        "formula": DEMO_FORMULA,
        "env": {name: value.value for name, value in env.items()},
        **report,
    }


def _demo_text(r: dict, args) -> str:
    checks = " ".join(f"{name}={verdict}" for name, verdict in sorted(r["law_checks"].items()))
    return "\n".join([
        f"encrypted evaluation demo (p={r['p']}, K={r['precision']}, seed={r['seed']})",
        f"key: fhe multiplier A = {r['multiplier']}, operation G1",
        f"formula: {r['formula']}",
        *(f"  {name} = {value}" for name, value in sorted(r["env"].items())),
        f"plain result:     {r['plain']}",
        f"cipher result:    {r['cipher']}",
        f"decrypted result: {r['decrypted']}",
        f"match: {_yn(r['match'])}",
        f"law checks: {checks}",
    ])


# -- wiring -----------------------------------------------------------------------------------


def _add_context_args(sub, default_p=5, default_precision=16) -> None:
    sub.add_argument("--p", type=int, default=default_p, help="prime base")
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
    sub.set_defaults(func=_cmd_keygen, render=_keygen_text)

    for name, forward in (("encrypt", True), ("decrypt", False)):
        sub = subs.add_parser(name, help=f"{name} one value")
        sub.add_argument("--key", required=True, help="key file (JSON)")
        sub.add_argument("value", help="decimal or p:K:d0,...,dK-1")
        sub.set_defaults(func=lambda a, fwd=forward: _cmd_endec(a, fwd),
                         render=lambda r, a: f"{r['output']}  ({r['output_text']})")

    sub = subs.add_parser("eval", help="evaluate a formula")
    _add_context_args(sub)
    sub.add_argument("--key", help="run the encrypted round trip under this key")
    sub.add_argument("--formula", required=True)
    sub.add_argument("--env", action="append", default=[], metavar="NAME=VALUE")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_eval, render=_eval_text)

    sub = subs.add_parser("check", help="verify a key or a value table")
    sub.add_argument("--key", help="key file to verify")
    sub.add_argument("--table", help="value table file to verify")
    sub.add_argument("--measure", action="store_true",
                     help="measure checks only (skip law scans)")
    sub.add_argument("--exhaustive-k", type=_at_least(0), default=None, dest="exhaustive_k")
    sub.add_argument("--trials", type=_at_least(1), default=512)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", help="with --key: export the encryption table")
    sub.set_defaults(func=_cmd_check, render=_check_text)

    sub = subs.add_parser("search", help="intersection counterexample scan")
    _add_context_args(sub, default_p=3, default_precision=3)
    sub.add_argument("first", help="family operation: ADD MUL XOR AND")
    sub.add_argument("second", help="law to violate: ADD MUL XOR AND G1..G4")
    sub.add_argument("--keys", type=_at_least(1), default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--exhaustive-k", type=_at_least(0), default=None, dest="exhaustive_k")
    sub.set_defaults(func=_cmd_search, render=_search_text)

    sub = subs.add_parser("demo", help="seeded encrypted-evaluation walkthrough")
    _add_context_args(sub)
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_demo, render=_demo_text)

    for sub in subs.choices.values():  # last, where each command's help lists it
        sub.add_argument("--json", action="store_true")
    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, report = args.func(args)
    except BrokenPipeError:  # main ends the run quietly with 141
        raise
    except IncompatibleFormulaError as exc:
        return _report_error(args, exc, 4)
    except (FormatError, OSError, json.JSONDecodeError) as exc:
        return _report_error(args, exc, 3)
    except PadicError as exc:
        return _report_error(args, exc, 5)
    print(_json_text(report) if args.json else args.render(report, args))
    return code


def _report_error(args, exc: Exception, code: int) -> int:
    if args.json:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__}),
              file=sys.stderr)
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


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
