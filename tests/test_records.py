"""The package's record classes: the keys, operations, contexts, residues,
formula nodes, tables, reports and machines.  Each is frozen, compares and
hashes by its fields, and has a repr that names them; contexts are cache
keys, and keys survive a JSON round trip as equal, hashable values.  No module of the package imports ``dataclasses``, so a command does
not pay for it at start-up."""

import copy
import inspect
import os
import pickle
import subprocess
import sys
from random import Random

import pytest

import padic_ciphers
from padic_ciphers import analysis, automaton, ciphers, core, formula, lipschitz
from padic_ciphers.analysis import SearchReport
from padic_ciphers.automaton import MealyMachine
from padic_ciphers.ciphers import (
    ADD,
    AND,
    GLIN,
    MUL,
    XOR,
    G1,
    G2,
    G3,
    G4,
    AdditiveKey,
    AndKey,
    FheKey,
    GOperation,
    InvalidKeyError,
    LinearG,
    MultiplicativeKey,
    SeriesG,
    XorKey,
    decrypt,
    encrypt,
    key_from_json,
    key_to_json,
    keygen,
)
from padic_ciphers.core import PadicContext, PadicInt
from padic_ciphers.formula import App, Lit, Var
from padic_ciphers.lipschitz import CoordRep, ValueTable, VdpSeries

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import spans  # noqa: E402

C52 = PadicContext(5, 2)
C22 = PadicContext(2, 2)
PI = "PadicInt(ctx=PadicContext(p=5, precision=2), value={})"

# One record of each class, its repr, and a field with another value to
# assign (which must fail) and to rebuild with (which must compare unequal).
RECORDS = [
    (lambda: PadicContext(5, 2), "PadicContext(p=5, precision=2)", "precision", 3),
    (lambda: PadicInt(C52, 7), PI.format(7), "value", 8),
    (lambda: LinearG(C52.one, C52.integer(2)), f"LinearG(a={PI.format(1)}, b={PI.format(2)})",
     "b", C52.integer(3)),
    (lambda: G1(), "G1()", None, None),
    (lambda: G2(), "G2()", None, None),
    (lambda: G3(), "G3()", None, None),
    (lambda: G4(), "G4()", None, None),
    (lambda: SeriesG(C52.integer(0), C52.one, C52.one, (((1, 1), C52.integer(2)),)),
     f"SeriesG(c={PI.format(0)}, a={PI.format(1)}, b={PI.format(1)}, "
     f"terms=(((1, 1), {PI.format(2)}),))", "a", C52.integer(2)),
    (lambda: AdditiveKey(C52.integer(7)), f"AdditiveKey(A={PI.format(7)})", "A",
     C52.integer(8)),
    (lambda: MultiplicativeKey(A=C52.integer(7), s=3, a=C52.one),
     f"MultiplicativeKey(A={PI.format(7)}, s=3, a={PI.format(1)})", "s", 1),
    (lambda: XorKey(C52, ((1,), (0, 2))),
     "XorKey(ctx=PadicContext(p=5, precision=2), rows=((1,), (0, 2)))", "rows", ((1,), (1, 2))),
    (lambda: AndKey(C52, (1, 3)), "AndKey(ctx=PadicContext(p=5, precision=2), exponents=(1, 3))",
     "exponents", (3, 3)),
    (lambda: FheKey(C52.integer(24), G1()), f"FheKey(A={PI.format(24)}, g=G1())", "g", G2()),
    (lambda: Var("x"), "Var(name='x')", "name", "y"),
    (lambda: Lit(C52.integer(3)), f"Lit(value={PI.format(3)})", "value", C52.integer(4)),
    (lambda: App(ADD, Var("x"), Lit(C52.one)),
     f"App(op=ADD, left=Var(name='x'), right=Lit(value={PI.format(1)}))", "left", Var("y")),
    (lambda: ValueTable(C22, (0, 3, 2, 1)),
     "ValueTable(ctx=PadicContext(p=2, precision=2), values=(0, 3, 2, 1))", "values",
     (0, 1, 2, 3)),
    (lambda: VdpSeries(C22, (0, 1, 2, 0)),
     "VdpSeries(ctx=PadicContext(p=2, precision=2), B=(0, 1, 2, 0))", "B", (0, 1, 0, 0)),
    (lambda: CoordRep(C22, ((0, 1), (0, 1, 1, 0))),
     "CoordRep(ctx=PadicContext(p=2, precision=2), phi=((0, 1), (0, 1, 1, 0)))", "phi",
     ((1, 0), (0, 1, 1, 0))),
    (lambda: SearchReport("pass", None, 4, "exhaustive:k=1"),
     "SearchReport(verdict='pass', witness=None, trials=4, mode='exhaustive:k=1', "
     "detail=None)", "trials", 5),
    (lambda: MealyMachine(2, 1, ((0,), (0,)), ((0,), (1,)), 0),
     "MealyMachine(p=2, n_states=1, transition=((0,), (0,)), output=((0,), (1,)), initial=0)",
     "output", ((1,), (0,))),
]


IDS = [text.partition("(")[0] for _, text, _, _ in RECORDS]
BUILDS = [build for build, *_ in RECORDS]


def _rebuilt(record, field, value):
    """The record's class built again from its fields, ``field`` set to ``value``."""
    fields = {name: getattr(record, name) for name in type(record).__match_args__}
    return type(record)(**(fields | {field: value}))


def test_every_record_class_is_pinned():
    modules = (core, ciphers, formula, lipschitz, analysis, automaton)
    classes = {cls for module in modules for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == module.__name__
               and "__match_args__" in vars(cls) and cls is not GOperation}
    # 2 in core, 11 in ciphers, 3 each in formula and lipschitz, 1 each in analysis and automaton
    assert len(classes) == 21
    assert classes == {type(build()) for build in BUILDS}


@pytest.mark.parametrize("build, text, field, other", RECORDS, ids=IDS)
def test_record_repr_equality_hash_and_immutability(build, text, field, other):
    record, twin = build(), build()
    assert repr(record) == text
    assert record == twin and not record != twin and hash(record) == hash(twin)
    assert record != object() and record != text
    if field is not None:
        changed = _rebuilt(record, field, other)
        assert changed != record and type(changed) is type(record)
        assert _rebuilt(record, field, getattr(record, field)) == record
        with pytest.raises(AttributeError):
            setattr(record, field, other)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == getattr(twin, field)


@pytest.mark.parametrize("build", BUILDS, ids=IDS)
def test_assigning_an_attribute_that_is_no_field_raises_attribute_error(build):
    record = build()
    with pytest.raises(AttributeError):
        record.no_such_field = 1  # the slotted PadicInt too, not a TypeError
    assert not hasattr(record, "no_such_field")


@pytest.mark.parametrize("build", BUILDS, ids=IDS)
def test_records_copy_and_pickle(build):
    record = build()
    assert copy.copy(record) == record
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and repr(twin) == repr(record)
        assert twin == record


def test_the_named_operations_keep_their_identity_through_copy_and_pickle():
    for op in (ADD, MUL, XOR, AND, GLIN):
        assert type(op) is ciphers.Operation  # values holding their kernel, no subclasses
        assert copy.copy(op) is op and copy.deepcopy(op) is op
        assert pickle.loads(pickle.dumps(op)) is op
    assert XOR.pair is core.digitwise
    tree = App(XOR, Var("x"), App(GLIN, Var("y"), Lit(C52.one)))
    key = FheKey(C52.integer(24), LinearG(C52.one, C52.one))
    assert copy.deepcopy(key).laws == key.laws == pickle.loads(pickle.dumps(key)).laws
    for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree and twin.op is XOR and twin.right.op is GLIN


def test_records_of_different_classes_are_unequal():
    ops = [G1(), G2(), G3(), G4()]
    assert len(set(ops)) == 4
    assert all(a != b for i, a in enumerate(ops) for b in ops[i + 1:])
    A = C52.integer(24)
    assert AdditiveKey(A) != FheKey(A, G1())
    assert Var("x") != Lit(C52.one)


def test_a_record_takes_its_fields_by_position_or_by_name():
    assert SearchReport("pass", None, 1, "m") == SearchReport(
        verdict="pass", witness=None, trials=1, mode="m", detail=None)
    assert FheKey(A=C52.one, g=G1()) == FheKey(C52.one, G1())
    for bad in (lambda: SearchReport("pass"), lambda: AdditiveKey(C52.one, C52.one),
                lambda: AdditiveKey(C52.one, A=C52.one), lambda: AdditiveKey(B=C52.one),
                lambda: PadicContext(5)):
        with pytest.raises(TypeError):
            bad()


def test_trailing_defaults_are_filled_by_position_and_refusals_keep_their_message():
    assert SearchReport("pass", None, 1, "m") == SearchReport("pass", None, 1, "m", None)
    assert SearchReport("pass", None, 1, "m").detail is None
    assert SearchReport._defaults == (None,) and PadicContext._defaults == ()
    for cls, args, kwargs in ((SearchReport, ("pass", None, 1), {}),
                              (SearchReport, ("pass", None, 1, "m", None, 2), {}),
                              (SearchReport, ("pass", None, 1), {"detail": None}),
                              (PadicContext, (5,), {}), (PadicContext, (5, 2, 1), {})):
        with pytest.raises(TypeError) as info:
            cls(*args, **kwargs)
        assert str(info.value) == f"{cls.__name__}() takes the fields {', '.join(cls.__match_args__)}"


FAMILIES = ["additive", "multiplicative", "xor", "and", "fhe"]


@pytest.mark.parametrize("family", FAMILIES)
def test_kernels_are_cached_properties_on_every_key_family(family):
    key = keygen(C52, family, Random(3))
    assert "enc_int" not in vars(key) and "dec_int" not in vars(key)
    enc, dec = key.enc_int, key.dec_int
    assert vars(key)["enc_int"] is enc and key.enc_int is enc
    assert vars(key)["dec_int"] is dec and key.dec_int is dec
    assert all(dec(enc(x)) == x for x in C52.residues())
    # a cached kernel is not a field: it leaves equality and hashing alone
    fresh = key_from_json(key_to_json(key))
    assert fresh == key and hash(fresh) == hash(key)


def _fhe_key(ctx, g, rng):
    try:
        return FheKey.draw(ctx, rng, g)
    except InvalidKeyError:  # only A = 1 commutes with g here (G3 at every p)
        return FheKey(ctx.one, LinearG(ctx.one, ctx.one) if g is GLIN else g)


@pytest.mark.parametrize("ctx", [PadicContext(5, 16), PadicContext(3, 4), PadicContext(7, 64)])
def test_keys_survive_a_json_round_trip_equal_and_with_the_same_hash(ctx):
    rng = Random(11)
    keys = [keygen(ctx, family, rng) for family in FAMILIES]
    keys += [_fhe_key(ctx, g, rng) for g in (G1(), G2(), G3(), G4(), GLIN)]
    assert {type(key.g) for key in keys[5:]} == {G1, G2, G3, G4, LinearG}
    for key in keys:
        back = key_from_json(key_to_json(key))
        assert back == key and hash(back) == hash(key) and back is not key
        assert back.ctx == key.ctx and hash(back.ctx) == hash(key.ctx)
        assert len({key, back}) == 1


def test_equal_operations_at_equal_contexts_build_the_rows_of_their_pair_form():
    ctx = PadicContext(3, 2)
    lin = LinearG(ctx.integer(2), ctx.one)
    lin_back = key_from_json(key_to_json(FheKey(ctx.one, lin))).g
    assert lin_back == lin and lin_back is not lin
    for op, twin in ((ADD, ADD), (G1(), G1()), (lin, lin_back)):
        assert hash(twin) == hash(op)
        rows, twin_rows = analysis._rows(op, ctx), analysis._rows(twin, PadicContext(3, 2))
        for y in range(9):
            assert rows(y) == twin_rows(y) == bytes(op.pair(x, y, 3, 9) for x in range(9))


@pytest.mark.parametrize("family", FAMILIES)
def test_one_padicint_per_encrypt_and_per_decrypt_under_the_benchmark_counter(family):
    """bench/spans.py counts PadicInt constructions by patching
    ``PadicInt.__post_init__``; every construction must still go through it."""
    ctx = PadicContext(5, 16)
    key = keygen(ctx, family, Random(5))
    xs = [PadicInt(ctx, v) for v in (0, 1, 5, 7, 125, ctx.modulus - 1)]
    ys = [encrypt(key, x) for x in xs]  # builds the kernels outside the count
    assert [decrypt(key, y) for y in ys] == xs
    tracer = spans.Tracer()
    tracer.count_padicints(PadicInt)
    try:
        ys = [encrypt(key, x) for x in xs]
        after_encrypt = tracer.padicints
        [decrypt(key, y) for y in ys]
        after_decrypt = tracer.padicints
    finally:
        tracer.restore()
    assert after_encrypt == len(xs)
    assert after_decrypt - after_encrypt == len(xs)
    assert "__post_init__" in vars(PadicInt) and PadicInt(ctx, 3).value == 3


@pytest.mark.parametrize("family", FAMILIES)
def test_formula_passes_build_as_many_padicints_for_3_nodes_as_for_401(family):
    """evaluate builds its result and encrypted_eval_demo the values of its
    report and the encrypted environment, under the counter above: no PadicInt
    per node (the tree walk built one per operation)."""
    ctx = PadicContext(5, 16)
    key = keygen(ctx, family, Random(7))
    op = key.laws[-1]  # G1 for fhe
    env = {"x": PadicInt(ctx, 123), "y": PadicInt(ctx, 45678)}
    leaves = [Var("x"), Var("y"), Lit(PadicInt(ctx, 7))] * 67
    large = leaves[0]
    for leaf in leaves[1:]:
        large = App(op, large, leaf)
    small = App(op, Var("x"), Lit(PadicInt(ctx, 3)))
    counts = []
    for run in (lambda node: formula.evaluate(node, env),
                lambda node: formula.encrypted_eval_demo(node, env, key, seed=3)):
        run(small), run(large)  # kernels and law-check tables built outside the count
        for node in (small, large):
            tracer = spans.Tracer()
            tracer.count_padicints(PadicInt)
            try:
                run(node)
            finally:
                tracer.restore()
            counts.append(tracer.padicints)
    assert len(formula._tape(large)) == 401
    assert counts[0] == counts[1] == 1
    assert counts[2] == counts[3]


def test_no_layer_imports_dataclasses_or_inspect():
    """Run without site (pytest itself imports dataclasses): the CLI, then the
    layers its commands load lazily, then the automaton."""
    code = ("import sys; import padic_ciphers.cli; "
            "import padic_ciphers.formula, padic_ciphers.analysis, padic_ciphers.lipschitz; "
            "import padic_ciphers.automaton; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(padic_ciphers.__file__))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
