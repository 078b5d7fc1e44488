"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
that ``setup_s`` times), then runs whole rounds of the same operations.
Every operation is timed and its output checked against ``reference``.
In a traced run ``install`` wraps the library names the workload reaches,
and ``layer_metrics`` turns the spans into per-layer figures.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from io import StringIO
from random import Random

import reference as ref

FAMILIES = ("additive", "multiplicative", "xor", "and", "fhe")
LAWS_OF = {"additive": ("ADD",), "multiplicative": ("MUL",), "xor": ("XOR",),
           "and": ("AND",), "fhe": ("ADD", "G1")}
FORMULA_OPS = {"additive": ["ADD"], "multiplicative": ["MUL"], "xor": ["XOR"],
               "and": ["AND"], "fhe": ["ADD", "G1"]}
SMALL_TABLE = 256  # analysis keeps operation tables only for levels this small


CAL_EVERY_NS = 100_000_000
CAL_WINDOW_NS = 1_000_000_000  # the drift holds for seconds; one sample is noisier


def _calibration_keys(p: int = 7, K: int = 64) -> list:
    """Fixed reference keys of four families, written by hand so that no
    part of the package shapes the calibration."""
    unit = f"{p}:{K}:" + ",".join(str((3 * i + 1) % p) for i in range(K))
    rows = [[(i * j + 1) % p for j in range(i)] + [1 + i % (p - 1)] for i in range(K)]
    return [ref.RefKey(dict(data, p=p, precision=K)) for data in (
        {"family": "additive", "A": unit},
        {"family": "multiplicative", "A": unit, "s": 5, "a": unit},
        {"family": "xor", "rows": rows},
        {"family": "and", "exponents": [5] * K},
    )]


CAL_KEYS = _calibration_keys()
CAL_INPUTS = [7**v * (10**12 + 3 * v) % 7**64 for v in range(0, 64, 11)]


def reference_ns() -> int:
    """Time of a fixed piece of pure-Python work that uses no part of the
    package: about 3 ms of the reference's own encryption, the big-integer
    and small-object work the package does too."""
    t0 = time.perf_counter_ns()
    for key in CAL_KEYS:
        for x in CAL_INPUTS:
            key.encrypt(x)
    return time.perf_counter_ns() - t0


# Runs its arguments as a child and writes the child's wall time (ns), peak
# resident size (KiB) and exit code to stderr.  Commands start from this small
# interpreter, not from the benchmark's own, because a child's ru_maxrss
# counts the resident size of the process that spawned it.  Its own wait does
# not poll, unlike a subprocess wait with a timeout (steps of up to 50 ms).
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter_ns()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
ns = time.perf_counter_ns() - t0
sys.stderr.write(f"{ns} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
"""


def launch(argv: list[str], env=None, stdout=subprocess.DEVNULL) -> tuple[int, int, int]:
    """Run ``argv`` through LAUNCHER; return its exit code, wall time in ns and
    peak resident size in KiB.  A command still running after CHILD_TIMEOUT_S
    is killed with its launcher."""
    proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def expire(signum, frame):
        raise TimeoutError(f"{argv[1:3]} still running after {CHILD_TIMEOUT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        report = proc.communicate()[1]
    except TimeoutError:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    ns, rss_kib, rc = map(int, report.split())
    return rc, ns, rss_kib


def spawn_ns() -> int:
    """Time to start and end a bare interpreter, which imports no part of the
    package: the share of a command's time that the host's speed at starting
    processes sets."""
    return launch([sys.executable, "-c", "pass"])[1]


# The host's speed drifts by about 15% over seconds.  A calibrated time is a
# measured time times a reference time over the calibration's time at that
# moment, which cancels most of the drift.
CAL_REF_NS = 3_000_000  # of reference_ns
SPAWN_REF_NS = 50_000_000  # of spawn_ns
CHILD_TIMEOUT_S = 150  # a run must end within 180 s


class Tally:
    """Counts, timings and check results of one run."""

    def __init__(self, calibration=(reference_ns, CAL_REF_NS)) -> None:
        self.calibration, self.cal_ref_ns = calibration
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.log: list[tuple] = []  # (kind, ops, ns, end) of each timed operation or batch
        self.round_ends: list[int] = []  # len(log) at the end of each round
        self.plain_rounds: int | None = None  # in a traced run, the rounds before tracing
        self.cal: list[tuple] = []  # (time, calibration time) samples
        self.work = defaultdict(int)  # span name -> units of work (traced)
        self.samples = defaultdict(list)  # name -> seconds
        self.extra = defaultdict(int)  # exact counts read from outputs
        self.bad_ops: set[int] = set()  # trace op ids of failed operations
        self.errors: Counter = Counter()  # failure message -> times seen

    def record(self, kind: str, ops: int, ns: int) -> None:
        """Log a timed operation (or batch); calibrate between operations."""
        self.attempted += ops
        now = _now()
        self.log.append((kind, ops, ns, now))
        if not self.cal or now - self.cal[-1][0] >= CAL_EVERY_NS:
            self.calibrate()

    def calibrate(self) -> None:
        self.cal.append((_now(), self.calibration()))

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20 or what in self.errors:
            self.errors[what] += 1

    def check(self, ok: bool, what: str) -> bool:
        """A wrong output is counted as a failure and makes the run incorrect."""
        if not ok:
            self.wrong += 1
            self.fail(f"wrong output: {what}")
        return ok

    def end_round(self) -> None:
        self.round_ends.append(len(self.log))

    def _cal_at(self, t: float) -> float:
        """The calibration time at ``t``: the median of the samples within
        CAL_WINDOW_NS of it, and of at least the three nearest."""
        lo = bisect.bisect(self.cal, (t - CAL_WINDOW_NS,))
        hi = bisect.bisect(self.cal, (t + CAL_WINDOW_NS,))
        i = bisect.bisect(self.cal, (t,))
        lo, hi = min(lo, max(i - 2, 0)), max(hi, min(i + 1, len(self.cal)))
        return statistics.median(c for _, c in self.cal[lo:hi])

    def per_round(self, kinds, calibrated: bool = True) -> list:
        """(ops, ns) of the given kinds in each round."""
        out = []
        start = 0
        for end in self.round_ends:
            ops = ns = 0
            for entry in self.log[start:end]:
                if entry[0] in kinds:
                    ops += entry[1]
                    ns += self._ns(entry, calibrated)
            out.append((ops, ns))
            start = end
        return out

    def rate(self, *kinds: str, calibrated: bool = True) -> float:
        """Operations of these kinds per second of a typical round.

        Every round makes the same operations in the same order.  Each
        operation's time is its median over the rounds (in a traced run, the
        untraced ones), so a burst of noise from the rest of the machine that
        hits one operation in one round is left out of the figure."""
        ends = self.round_ends[:self.plain_rounds]
        starts = [0] + ends[:-1]
        width = ends[0]
        if any(end - start != width for start, end in zip(starts, ends)):
            raise ValueError("rounds differ in their operations")
        ops = ns = 0
        for k in range(width):
            kind, n, *_ = self.log[k]
            if kind in kinds:
                ops += n
                ns += statistics.median(self._ns(self.log[start + k], calibrated)
                                        for start in starts)
        return ops / (ns / 1e9) if ns else 0.0

    def _ns(self, entry, calibrated: bool) -> float:
        _, _, dt, t = entry
        return dt * self.cal_ref_ns / self._cal_at(t - dt / 2) if calibrated else dt


class NullTracer:
    def span(self, name):
        return nullcontext()

    def current_op(self) -> int:
        return -1


def _now() -> int:
    return time.perf_counter_ns()


def _ctx_tag(p: int, K: int) -> str:
    return f"p{p}k{K}"


def _rate(units: float, ns: int) -> float:
    return units / (ns / 1e9) if ns else 0.0


def _wrap_core(tracer, pkg, namespace) -> None:
    """Time core under its caller: the core names ``namespace`` imported, the
    PadicInt operators, and a count of PadicInt constructions."""
    for attr in ("unit_decompose", "teichmuller", "pow_nat", "pow_unit", "invert_unit",
                 "xor_p", "and_p", "from_text", "to_text"):
        if hasattr(namespace, attr):
            tracer.wrap(namespace, attr, f"core.{attr}")
    for attr in ("__add__", "__sub__", "__mul__", "__neg__"):
        tracer.wrap(pkg.core.PadicInt, attr, f"core.PadicInt.{attr}")
    tracer.count_padicints(pkg.core.PadicInt)


# -- roundtrip -------------------------------------------------------------------


class Roundtrip:
    """Encrypt then decrypt seeded plaintexts under every family."""

    name = "roundtrip"
    warmup = True
    calibration = (reference_ns, CAL_REF_NS)
    KINDS = ("encrypt", "decrypt")
    CONTEXTS = ((5, 16), (3, 64), (7, 64))
    KEYS = 2
    OPS = 130  # per family and context per round; covers valuations 0..K-1 and zero

    def __init__(self, pkg, seed: int, workdir: str) -> None:
        self.pkg = pkg
        rng = Random(seed)
        self.cases = []
        for p, K in self.CONTEXTS:
            ctx = pkg.core.PadicContext(p, K)
            for fam in FAMILIES:
                keys = [pkg.ciphers.keygen(ctx, fam, rng) for _ in range(self.KEYS)]
                xs = []
                for i in range(self.OPS):
                    v = i % (K + 1)
                    x = 0
                    if v < K:
                        u = rng.randrange(p ** (K - v))
                        x = p**v * (u - u % p + rng.randrange(1, p))
                    xs.append(pkg.core.PadicInt(ctx, x))
                pairs = [(keys[i % self.KEYS], x) for i, x in enumerate(xs)]
                self.cases.append([fam, _ctx_tag(p, K), pairs, None])

    def run_round(self, tally: Tally, tracer) -> None:
        enc, dec = self.pkg.ciphers.encrypt, self.pkg.ciphers.decrypt
        for case in self.cases:
            fam, tag, pairs, expected = case
            n = len(pairs)
            try:
                t0 = _now()
                ys = [enc(k, x) for k, x in pairs]
                t1 = _now()
                back = [dec(k, y) for (k, _), y in zip(pairs, ys)]
                t2 = _now()
            except Exception as exc:  # any fault of the package is a failed batch
                tally.record("encrypt", n, 0)
                tally.record("decrypt", n, 0)
                tally.fail(f"{fam} {tag}: {exc!r}", 2 * n)
                continue
            tally.record("encrypt", n, t1 - t0)
            tally.record("decrypt", n, t2 - t1)
            if expected is None:
                refs = {}
                for k, _ in pairs:
                    refs.setdefault(id(k), ref.RefKey(self.pkg.ciphers.key_to_json(k)))
                expected = case[3] = [refs[id(k)].encrypt(x.value) for k, x in pairs]
            for (_, x), y, b, e in zip(pairs, ys, back, expected):
                tally.check(y.value == e, f"{fam} {tag} encrypt({x.value})")
                tally.check(b.value == x.value, f"{fam} {tag} decrypt(encrypt({x.value}))")

    def install(self, tracer) -> None:
        ciphers = self.pkg.ciphers
        for attr in ("encrypt", "decrypt"):
            tracer.wrap(ciphers, attr, lambda key, _x, attr=attr: (
                f"ciphers.{attr}.{key.family}.{_ctx_tag(key.ctx.p, key.ctx.precision)}"))
        _wrap_core(tracer, self.pkg, ciphers)

    def layer_metrics(self, tracer, tally: Tally) -> dict:
        rows = tracer.by_name()
        out = {}
        for attr in ("encrypt", "decrypt"):
            for fam in FAMILIES:
                calls = built = 0
                for p, K in self.CONTEXTS:
                    count, ns, pc = rows.get(f"ciphers.{attr}.{fam}.{_ctx_tag(p, K)}", (0, 0, 0))
                    out[f"ciphers.{attr}.{fam}.{_ctx_tag(p, K)}.ops_per_s"] = _rate(count, ns)
                    calls += count
                    built += pc
                out[f"core.padicint.per_{attr}.{fam}"] = built / calls if calls else 0.0
        return out

    def detail(self, tally: Tally) -> dict:
        return {"encrypt_per_s": (tally.rate("encrypt", calibrated=False), "ops/s"),
                "decrypt_per_s": (tally.rate("decrypt", calibrated=False), "ops/s")}


# -- laws -------------------------------------------------------------------------


class Laws:
    """The work of ``check`` and ``search``, in-process: certify, tables, refute."""

    name = "laws"
    warmup = False  # every operation starts from emptied caches, as a fresh process does
    calibration = (reference_ns, CAL_REF_NS)
    KINDS = ("certify", "table", "refute")
    CERTIFY = ((3, 5), (5, 3), (7, 3))
    TABLES = ((3, 9), (5, 6), (7, 5))
    REFUTE = ((3, 3), (3, 4), (5, 2), (7, 2))
    FIRSTS = ("ADD", "MUL", "XOR", "AND")
    SECONDS = ("ADD", "MUL", "XOR", "AND", "G1", "G2", "G3", "G4")
    RANDOM_TRIALS = 512
    REFUTE_KEYS = 2
    REFUTE_SCANS = 2  # scans of each pair and context, each with its own seed

    def __init__(self, pkg, seed: int, workdir: str) -> None:
        self.pkg = pkg
        core, ciphers, lip = pkg.core, pkg.ciphers, pkg.lipschitz
        rng = Random(seed)
        ctxs = [core.PadicContext(p, K) for p, K in self.CERTIFY]
        # Key i takes context i mod 3 and family i mod 5: every pairing once
        # per round, with consecutive keys on different contexts.
        n = len(ctxs) * len(FAMILIES)
        self.keys = [ciphers.keygen(ctxs[i % len(ctxs)], FAMILIES[i % 5], rng) for i in range(n)]
        self.key_refs = [None] * len(self.keys)
        self.law_seeds = [rng.randrange(1 << 30) for _ in self.keys]
        self.tables = []
        for p, K in self.TABLES:
            for preserving in (True, False):
                values = ref.random_lipschitz_table(p, K, rng, preserving)
                table = lip.ValueTable(core.PadicContext(p, K), tuple(values))
                self.tables.append((table, preserving, []))
        self.scans = []
        for _ in range(self.REFUTE_SCANS):
            for p, K in self.REFUTE:
                ctx = core.PadicContext(p, K)
                for first in self.FIRSTS:
                    for second in self.SECONDS:
                        if first == second or excluded_pair(first, second, p, K):
                            continue
                        self.scans.append((pkg.analysis.symbol_from_name(first),
                                           pkg.analysis.symbol_from_name(second), ctx,
                                           rng.randrange(1 << 30)))

    def _measure(self, table, tally, tracer) -> tuple:
        lip = self.pkg.lipschitz
        n = len(table.values)
        with tracer.span("lipschitz.vdp_interpolate"):
            series = lip.vdp_interpolate(table)
        with tracer.span("lipschitz.measure_bruteforce"):
            bf = lip.check_measure_bruteforce(table)
        with tracer.span("lipschitz.measure_vdp"):
            vdp = lip.check_measure_vdp(series)
        with tracer.span("lipschitz.measure_coord"):
            coord = lip.check_measure_coord(lip.coord_from_table(table))
        for name in ("vdp_interpolate", "measure_bruteforce", "measure_vdp", "measure_coord"):
            tally.work[f"lipschitz.{name}"] += n
        return bf, vdp, coord

    def _certify(self, i: int, tally: Tally, tracer):
        an, ciphers = self.pkg.analysis, self.pkg.ciphers
        key = self.keys[i]
        p, K, m = key.ctx.p, key.ctx.precision, key.ctx.modulus
        what = f"certify {key.family} at {p}^{K}"
        with tracer.span("ciphers.encryption_table"):
            table = ciphers.encryption_table(key)
        tally.work["ciphers.encryption_table"] += m
        measure = self._measure(table, tally, tracer)
        reports = []
        for law in an.laws_for_key(key):
            for k in range(1, K + 1):
                span = "analysis.exhaustive_" + ("small" if p**k <= SMALL_TABLE else "large")
                with tracer.span(span):
                    rep = an.homomorphism_test(key, law, exhaustive_k=k)
                tally.work[span] += rep.trials
                reports.append((rep, p ** (2 * k)))
            with tracer.span("analysis.random_law"):
                rep = an.homomorphism_test(key, law, trials=self.RANDOM_TRIALS,
                                           seed=self.law_seeds[i])
            tally.work["analysis.random_law"] += rep.trials
            reports.append((rep, self.RANDOM_TRIALS))
        probe = None
        if key.family == "multiplicative":
            with tracer.span("analysis.coefficient_probe"):
                probe = an.vdp_coefficient_probe(key)
            tally.work["analysis.coefficient_probe"] += probe.trials

        def checks():
            if self.key_refs[i] is None:
                rk = ref.RefKey(ciphers.key_to_json(key))
                values = [rk.encrypt(x) for x in range(m)]
                self.key_refs[i] = (values, ref.is_bijective_at_every_level(values, p, K))
            values, bijective = self.key_refs[i]
            tally.check(list(table.values) == values, f"{what}: encryption table")
            tally.check(bijective and measure == (True, True, True), f"{what}: measure {measure}")
            tally.check([law.name for law in an.laws_for_key(key)] == list(LAWS_OF[key.family]),
                        f"{what}: laws")
            for rep, pairs in reports:
                tally.check(rep.verdict == "pass" and rep.trials == pairs, f"{what}: {rep.mode}")
            if probe is not None:
                tally.check(probe.verdict == "pass" and probe.trials == m - 1, f"{what}: probe")
        return checks

    def _table(self, j: int, tally: Tally, tracer):
        lip = self.pkg.lipschitz
        table, preserving, verdict = self.tables[j]
        p, K, n = table.ctx.p, table.ctx.precision, len(table.values)
        with tracer.span("lipschitz.table_text"):
            parsed = lip.parse_table_text(lip.serialize_table_text(table))
        tally.work["lipschitz.table_text"] += n
        with tracer.span("lipschitz.one_lipschitz"):
            lipschitz = lip.check_one_lipschitz(parsed)
        tally.work["lipschitz.one_lipschitz"] += n
        measure = self._measure(parsed, tally, tracer)
        what = f"table {p}^{K} preserving={preserving}"

        def checks():
            tally.check(parsed.values == table.values, f"{what}: text round trip")
            tally.check(lipschitz, f"{what}: one-lipschitz")
            if not verdict:  # the reference verdict, computed once per table
                verdict.append(ref.is_bijective_at_every_level(table.values, p, K))
            tally.check(verdict[0] == preserving and measure == (preserving,) * 3,
                        f"{what}: measure {measure}")
        return checks

    def _refute(self, j: int, tally: Tally, tracer):
        an = self.pkg.analysis
        first, second, ctx, seed = self.scans[j]
        with tracer.span("analysis.intersection_scan"):
            reports = an.intersection_scan(first, second, ctx, n_keys=self.REFUTE_KEYS, seed=seed)
        tally.work["analysis.intersection_scan"] += len(reports)
        what = f"search {first.name} {second.name} at {ctx.p}^{ctx.precision}"

        def checks():
            tally.check(len(reports) == self.REFUTE_KEYS, f"{what}: report count")
            for rep in reports:
                tally.extra["refute.pairs"] += rep.trials
                tally.extra["refute.keys"] += 1
                tally.check(rep.verdict == "counterexample"
                            and witness_holds(rep.to_json(), second.name),
                            f"{what}: witness {rep.witness}")
        return checks

    def run_round(self, tally: Tally, tracer) -> None:
        steps = ([("certify", self._certify, i) for i in range(len(self.keys))]
                 + [("table", self._table, j) for j in range(len(self.tables))]
                 + [("refute", self._refute, j) for j in range(len(self.scans))])
        for kind, step, i in steps:
            cold_caches(self.pkg)  # each step is one check or search process's work
            with tracer.span(f"bench.{kind}"):
                op = tracer.current_op()
                t0 = _now()
                try:
                    checks = step(i, tally, tracer)
                except Exception as exc:
                    checks = None
                    tally.bad_ops.add(op)
                    tally.fail(f"{kind} {i}: {exc!r}")
                t1 = _now()
            tally.record(kind, 1, t1 - t0)
            if checks is not None:  # outside the timed region
                checks()

    def install(self, tracer) -> None:
        an = self.pkg.analysis
        tracer.wrap(an, "keygen", "ciphers.keygen")  # one call per key drawn by a search
        tracer.wrap(an, "encrypt", "ciphers.encrypt")
        tracer.count_padicints(self.pkg.core.PadicInt)

    def layer_metrics(self, tracer, tally: Tally) -> dict:
        rows = tracer.by_name(exclude=tally.bad_ops)
        out = {}
        for span, unit in (("ciphers.encryption_table", "entries"),
                           ("analysis.exhaustive_small", "pairs"),
                           ("analysis.exhaustive_large", "pairs"),
                           ("analysis.random_law", "pairs"),
                           ("analysis.coefficient_probe", "indices"),
                           ("lipschitz.one_lipschitz", "entries"),
                           ("lipschitz.vdp_interpolate", "entries"),
                           ("lipschitz.measure_bruteforce", "entries"),
                           ("lipschitz.measure_vdp", "entries"),
                           ("lipschitz.measure_coord", "entries"),
                           ("lipschitz.table_text", "entries"),
                           ("analysis.intersection_scan", "keys")):
            out[f"{span}.{unit}_per_s"] = _rate(tally.work[span], rows.get(span, (0, 0, 0))[1])
        keys = tally.extra["refute.keys"]
        draws = rows.get("ciphers.keygen", (0,))[0]
        out["analysis.refute.pairs_per_key"] = tally.extra["refute.pairs"] / keys if keys else 0.0
        traced_keys = tally.work["analysis.intersection_scan"]
        out["analysis.refute.draws_per_key"] = draws / traced_keys if traced_keys else 0.0
        return out

    def detail(self, tally: Tally) -> dict:
        return {"keys_certified_per_s": (tally.rate("certify", calibrated=False), "items/s"),
                "tables_checked_per_s": (tally.rate("table", calibrated=False), "items/s"),
                "keys_refuted_per_s": (tally.rate("refute", calibrated=False) * self.REFUTE_KEYS,
                                       "items/s")}


def cold_caches(pkg) -> None:
    """Empty every cache the package keeps in a module-level function, so the
    next operation meets them as a fresh process does, whatever their sizes."""
    for module in vars(pkg).values():
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def excluded_pair(first: str, second: str, p: int, K: int) -> bool:
    """Pairs whose key sampling stalls for a mathematical reason."""
    if first == "MUL" and second in ("G1", "G3"):
        return True  # multiplicative keys respect every monomial G
    if first == "ADD" and second == "G4" and K == 2:
        return True  # every additive key respects G4 mod p^2
    if first == "AND" and p == 3:
        return True  # the only and-key at p = 3 is the identity
    return False


def witness_holds(report: dict, op: str) -> bool:
    """Recompute both sides of a reported counterexample with the reference."""
    detail = report["detail"]
    key = ref.RefKey(detail["key"])
    p = key.p
    level = detail.get("level", key.K)
    m = p**level
    x, y = report["witness"]

    def enc(v):
        return key.encrypt(v) % m

    lhs = enc(ref.apply_op(op, x, y, p, level))
    rhs = ref.apply_op(op, enc(x), enc(y), p, level)
    return lhs != rhs and (lhs, rhs) == (detail["lhs"], detail["rhs"])


# -- formula ------------------------------------------------------------------------


class Formula:
    """``encrypted_eval_demo`` on small and large formulas of each family's operations."""

    name = "formula"
    warmup = True
    calibration = (reference_ns, CAL_REF_NS)
    KINDS = ("small", "large")
    CONTEXTS = ((5, 16), (7, 16))
    SMALL = dict(spine=4, side_leaves=3, count=6)  # about DEMO_FORMULA's size
    LARGE = dict(spine=100, side_leaves=2, count=2)  # ~400 nodes, ~100 deep
    FLAT_TERMS = 3000

    def __init__(self, pkg, seed: int, workdir: str) -> None:
        self.pkg = pkg
        core, ciphers = pkg.core, pkg.ciphers
        rng = Random(seed)
        self.cases = []
        for p, K in self.CONTEXTS:
            ctx = core.PadicContext(p, K)
            for fam in FAMILIES:
                key = ciphers.keygen(ctx, fam, rng)
                env = {f"x{i}": rng.randrange(p**K) for i in range(4)}
                for kind, size in (("small", self.SMALL), ("large", self.LARGE)):
                    for _ in range(size["count"]):
                        f = ref.make_formula(FORMULA_OPS[fam], env, rng, p, K,
                                             size["spine"], size["side_leaves"])
                        self._add(kind, key, ctx, env, f, rng.randrange(1 << 30))
        # Fails today: the formula walkers recurse once per node.  The input
        # does not depend on the seed, and its time is left out of the rates
        # so that the fix, which makes it do real work, reads as no slowdown.
        ctx = core.PadicContext(5, 16)
        key = ciphers.keygen(ctx, "additive", Random(0))
        text = " + ".join(["x"] * self.FLAT_TERMS)
        flat = ref.Formula(text, 2 * self.FLAT_TERMS - 1, self.FLAT_TERMS,
                           self.FLAT_TERMS * 7 % ctx.modulus)
        self._add("fault", key, ctx, {"x": 7}, flat, 0)

    def _add(self, kind, key, ctx, env, f, seed) -> None:
        penv = {name: self.pkg.core.PadicInt(ctx, v) for name, v in env.items()}
        self.cases.append((kind, key, ctx, penv, f, seed, [None]))

    def run_round(self, tally: Tally, tracer) -> None:
        fm = self.pkg.formula
        for kind, key, ctx, env, f, seed, refkey in self.cases:
            with tracer.span("bench.eval"):
                op = tracer.current_op()
                t0 = _now()
                try:
                    with tracer.span("formula.parse"):
                        node = fm.parse(f.text, ctx)
                    report = fm.encrypted_eval_demo(node, env, key, seed=seed)
                except Exception as exc:
                    t1 = _now()
                    tally.bad_ops.add(op)
                    tally.record(kind, 1, t1 - t0)
                    tally.fail(f"formula of {f.nodes} nodes: {type(exc).__name__}")
                    continue
                t1 = _now()
            tally.record(kind, 1, t1 - t0)
            tally.work["formula.parse"] += f.nodes
            tally.work["formula.compatibility_check"] += f.nodes
            tally.work["formula.evaluate"] += 2 * f.nodes
            if refkey[0] is None:
                refkey[0] = ref.RefKey(self.pkg.ciphers.key_to_json(key))
            what = f"{key.family} formula of {f.nodes} nodes"
            tally.check(report["plain"].value == f.expected, f"{what}: plain value")
            tally.check(report["decrypted"].value == f.expected and report["match"],
                        f"{what}: decrypted value")
            tally.check(report["cipher"].value == refkey[0].encrypt(f.expected),
                        f"{what}: cipher value")
            tally.check(set(report["law_checks"].values()) == {"pass"}, f"{what}: law checks")

    def install(self, tracer) -> None:
        fm = self.pkg.formula
        tracer.wrap(fm, "evaluate", "formula.evaluate")
        tracer.wrap(fm, "compatibility_check", "formula.compatibility_check")
        tracer.wrap(fm, "homomorphism_test", "analysis.law_spot_check")
        tracer.wrap(fm, "encrypt", "ciphers.encrypt")
        tracer.wrap(fm, "decrypt", "ciphers.decrypt")
        _wrap_core(tracer, self.pkg, self.pkg.analysis)

    def layer_metrics(self, tracer, tally: Tally) -> dict:
        rows = tracer.by_name(exclude=tally.bad_ops)
        out = {}
        for name in ("parse", "evaluate", "compatibility_check"):
            span = f"formula.{name}"
            out[f"{span}.nodes_per_s"] = _rate(tally.work[span], rows.get(span, (0, 0, 0))[1])
        evals = rows.get("bench.eval", (0,))[0]
        spot_ns = rows.get("analysis.law_spot_check", (0, 0, 0))[1]
        out["analysis.law_spot_check.s_per_eval"] = spot_ns / 1e9 / evals if evals else 0.0
        return out

    def detail(self, tally: Tally) -> dict:
        return {"encrypted_evals_per_s": (tally.rate(*self.KINDS, calibrated=False), "evals/s"),
                "small_evals_per_s": (tally.rate("small", calibrated=False), "evals/s"),
                "large_evals_per_s": (tally.rate("large", calibrated=False), "evals/s")}


# -- cli ------------------------------------------------------------------------------

CLI_KINDS = ("keygen", "encrypt", "decrypt", "eval", "check", "search", "demo")
ENDEC_FAMILIES = ("multiplicative", "xor")  # the two slowest, for encrypt and decrypt
CIPHERTEXT = "<ciphertext>"  # stands in a decrypt argv until the key file exists
DEMO = ("ADD",
        ("ADD",
         ("ADD", ("G1", "z", ("G1", "x", "y")), ("G1", ("G1", "z", "x"), "y")),
         ("G1", ("G1", "x", "x"), ("G1", "y", "y"))),
        ("G1", "x", ("G1", ("G1", "x", "y"), "y")))  # DEMO_FORMULA as a tree


class Cli:
    """A fixed session of ``python -m padic_ciphers.cli`` commands, one at a time."""

    name = "cli"
    warmup = False  # every command is a fresh process
    # Commands are mostly interpreter start-up, which the host's load slows
    # unlike reference_ns; a bare interpreter's start tracks it.
    calibration = (spawn_ns, SPAWN_REF_NS)
    KINDS = ("command",)
    P, K = 5, 16

    def __init__(self, pkg, seed: int, workdir: str) -> None:
        self.pkg = pkg
        self.workdir = workdir
        self.peak_rss_kib = 0  # the largest of the commands' peak resident sizes
        os.makedirs(workdir, exist_ok=True)
        rng = Random(seed)
        self.src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        p, K = self.P, self.K

        def path(name):
            return os.path.join(workdir, name)

        s = str(rng.randrange(1 << 20))
        cmds = []
        for fam in FAMILIES:
            cmds.append(("keygen", ["keygen", "--family", fam, "--p", str(p), "--precision",
                                    str(K), "--seed", s, "--out", path(f"{fam}.key")],
                         self._keygen_ok(path(f"{fam}.key"), fam)))
        for name, ctx, fam in (("small", (5, 3), "additive"), ("k36", (3, 6), "multiplicative")):
            key = pkg.ciphers.keygen(pkg.core.PadicContext(*ctx), fam, rng)
            with open(path(f"{name}.key"), "w") as fh:
                json.dump(pkg.ciphers.key_to_json(key), fh)
        self.planted = {}  # key file -> the plaintext its decrypt command must give back
        for fam in ENDEC_FAMILIES:
            v = self.planted[path(f"{fam}.key")] = rng.randrange(1, p**K)
            cmds.append(("encrypt", ["encrypt", "--key", path(f"{fam}.key"), str(v), "--json"],
                         self._endec_ok(path(f"{fam}.key"), v, forward=True)))
            cmds.append(("decrypt", ["decrypt", "--key", path(f"{fam}.key"), CIPHERTEXT,
                                     "--json"], self._endec_ok(path(f"{fam}.key"), v, forward=False)))
        env = {name: rng.randrange(p**K) for name in ("x", "y", "z")}
        env_args = [a for name, v in env.items() for a in ("--env", f"{name}={v}")]
        plain = ref.make_formula(["ADD", "MUL", "XOR", "AND", "G1", "G2", "G3", "G4"],
                                 env, rng, p, K, spine=6, side_leaves=2)
        cmds.append(("eval", ["eval", "--formula", plain.text, "--p", str(p), "--precision",
                              str(K), "--json"] + env_args, self._eval_plain_ok(plain.expected)))
        demo_text = ("STAR(z, STAR(x, y)) + STAR(STAR(z, x), y) + "
                     "STAR(STAR(x, x), STAR(y, y)) + STAR(x, STAR(STAR(x, y), y))")
        cmds.append(("eval", ["eval", "--key", path("fhe.key"), "--formula", demo_text, "--json"]
                     + env_args, self._eval_key_ok(path("fhe.key"),
                                                   ref.formula_value(DEMO, env, p, K))))
        cmds.append(("check", ["check", "--key", path("small.key"), "--json"],
                     self._check_key_ok(path("small.key"), 2)))
        cmds.append(("check", ["check", "--key", path("k36.key"), "--exhaustive-k", "6", "--json"],
                     self._check_key_ok(path("k36.key"), 6)))
        values = ref.random_lipschitz_table(3, 6, rng, preserving=False)
        table = path("table.txt")
        with open(table, "w") as fh:
            fh.write("3 6 table\n" + "".join(
                "3:6:" + ",".join(map(str, ref.digits_of(v, 3, 6))) + "\n" for v in values))
        cmds.append(("check", ["check", "--table", table, "--json"], self._table_fails))
        cmds.append(("search", ["search", "ADD", "MUL", "--keys", "3", "--p", "3",
                                "--precision", "3", "--seed", s, "--json"], self._search_ok))
        cmds.append(("demo", ["demo", "--seed", s, "--json"], self._demo_ok))
        # Fails today with an AttributeError traceback (exit 1) instead of the
        # documented exit 3.  The input does not depend on the seed.
        with open(path("bad.key"), "w") as fh:
            json.dump({"family": "additive", "p": 5, "precision": 3, "A": ["x"]}, fh)
        cmds.append(("encrypt", ["encrypt", "--key", path("bad.key"), "5"], None))
        self.cmds = cmds

    # -- output checks: each returns an error message or None ------------------
    # (the fault probe has none: it passes when it exits 3)

    def _keygen_ok(self, path, family):
        def check(rc, out):
            if rc != 0:
                return f"exit {rc}"
            with open(path) as fh:
                key = ref.RefKey(json.load(fh))
            return None if key.family == family else f"family {key.family}"
        return check

    def _endec_ok(self, path, v, forward):
        def check(rc, out):
            with open(path) as fh:
                key = ref.RefKey(json.load(fh))
            got = json.loads(out)
            if forward:
                return None if rc == 0 and got["output"] == key.encrypt(v) else f"encrypt {got}"
            return None if rc == 0 and got["output"] == v else f"decrypt {got}"
        return check

    def _eval_plain_ok(self, expected):
        def check(rc, out):
            got = json.loads(out)
            return None if rc == 0 and got["value"] == expected else f"eval {got}"
        return check

    def _eval_key_ok(self, path, expected):
        def check(rc, out):
            with open(path) as fh:
                key = ref.RefKey(json.load(fh))
            got = json.loads(out)
            ok = (rc == 0 and got["plain"] == expected == got["decrypted"] and got["match"]
                  and got["cipher"] == key.encrypt(expected))
            return None if ok else f"eval --key {got}"
        return check

    def _check_key_ok(self, path, levels):
        def check(rc, out):
            with open(path) as fh:
                key = ref.RefKey(json.load(fh))
            values = [key.encrypt(x) for x in range(key.m)]
            got = json.loads(out)
            laws = got.get("laws", [])
            ok = (rc == 0 and got["overall"] == "pass"
                  and got.get("coefficient_probe", {"verdict": "pass"})["verdict"] == "pass"
                  and ref.is_bijective_at_every_level(values, key.p, key.K)
                  and set(got["measure"].values()) == {True}
                  and len(laws) == levels + 1
                  and all(e["verdict"] == "pass" for e in laws))
            return None if ok else f"check --key {got}"
        return check

    def _table_fails(self, rc, out):
        """The table is 1-Lipschitz and fails all three measure criteria."""
        got = json.loads(out)
        ok = rc == 5 and got["one_lipschitz"] and set(got["measure"].values()) == {False}
        return None if ok else f"check --table {got}"

    def _search_ok(self, rc, out):
        got = json.loads(out)
        reports = got["reports"]
        ok = (rc == 0 and len(reports) == 3 and got["counterexamples"] == 3
              and all(witness_holds(r, "MUL") for r in reports))
        return None if ok else f"search {got}"

    def _demo_ok(self, rc, out):
        got = json.loads(out)
        p, K = got["p"], got["precision"]
        expected = ref.formula_value(DEMO, got["env"], p, K)
        ok = (rc == 0 and got["plain"] == expected == got["decrypted"] and got["match"]
              and got["cipher"] == got["multiplier"] * expected % p**K)
        return None if ok else f"demo {got}"

    # -- running --------------------------------------------------------------------

    def _expand(self, argv):
        """Fill in a decrypt input: the reference ciphertext of the planted value
        under the key the session's keygen wrote."""
        if CIPHERTEXT not in argv:
            return argv
        key_path = argv[argv.index("--key") + 1]
        with open(key_path) as fh:
            c = ref.RefKey(json.load(fh)).encrypt(self.planted[key_path])
        return [str(c) if a == CIPHERTEXT else a for a in argv]

    def _subprocess(self, argv):
        env = dict(os.environ, PYTHONPATH=self.src)
        with open(os.path.join(self.workdir, "stdout"), "w+") as out:
            rc, ns, rss_kib = launch([sys.executable, "-m", "padic_ciphers.cli", *argv],
                                     env, out)
            out.seek(0)
            text = out.read()
        self.peak_rss_kib = max(self.peak_rss_kib, rss_kib)
        return rc, text, ns

    def _inproc(self, argv):
        out, err = StringIO(), StringIO()
        t0 = _now()
        with redirect_stdout(out), redirect_stderr(err):
            rc = self.pkg.cli.run_command(argv)
        return rc, out.getvalue(), _now() - t0

    def run_round(self, tally: Tally, tracer) -> None:
        traced = not isinstance(tracer, NullTracer)
        t_session = 0
        for kind, argv, check in self.cmds:
            argv = self._expand(argv)
            modes = [("", self._subprocess)] + ([(".inproc", self._inproc)] if traced else [])
            for suffix, run in modes:
                with tracer.span(f"cli.{kind}{suffix}"):
                    op = tracer.current_op()
                    try:
                        rc, out, ns = run(argv)
                        error = None
                    except Exception as exc:
                        rc, out, ns, error = None, "", 0, repr(exc)
                tally.record(("command" if check else "fault") + suffix, 1, ns)
                tally.samples[f"cli.{kind}{suffix}"].append(ns / 1e9)
                if not suffix:
                    t_session += ns
                    tally.samples["command"].append(ns / 1e9)
                what = " ".join(argv[:2])
                if error is not None or rc not in ((0, 3, 4, 5) if check else (3,)):
                    # a crash, or the fault probe still failing
                    tally.bad_ops.add(op)
                    tally.fail(f"{what}: exit {rc} {error or ''}")
                    continue
                if check is None:
                    continue
                try:
                    error = check(rc, out)
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable output: {exc!r}"
                tally.check(error is None, f"{what}: {error}")
        tally.samples["session"].append(t_session / 1e9)

    def install(self, tracer) -> None:
        pass  # spans come from run_round, around each command

    def layer_metrics(self, tracer, tally: Tally) -> dict:
        # the commands' own times: a span around a command also holds the
        # launcher's start
        out = {}
        for kind in CLI_KINDS:
            out[f"cli.{kind}.s"] = _median(tally.samples[f"cli.{kind}"])
            out[f"cli.{kind}.inproc_s"] = _median(tally.samples[f"cli.{kind}.inproc"])
        return out

    def detail(self, tally: Tally) -> dict:
        return {"cli_session_s": (_median(tally.samples["session"]), "s"),
                "cli_command_median_s": (_median(tally.samples["command"]), "s")}


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


WORKLOADS = {w.name: w for w in (Roundtrip, Laws, Formula, Cli)}
