import random
import time

import pytest

from padic_ciphers.core import DomainError, PadicContext
from padic_ciphers.automaton import (
    MealyMachine,
    check_induced_bijections,
    function_of_automaton,
    random_machine,
    run,
    transduce,
    unroll_from_function,
)
from padic_ciphers.lipschitz import (
    NotOneLipschitzError,
    ValueTable,
    check_measure_bruteforce,
    check_one_lipschitz,
    random_one_lipschitz_table,
)

C33 = PadicContext(3, 3)
C34 = PadicContext(3, 4)


def identity_machine(p):
    return MealyMachine(
        p=p,
        n_states=1,
        transition=tuple((0,) for _ in range(p)),
        output=tuple((d,) for d in range(p)),
        initial=0,
    )


def test_identity_machine():
    m = identity_machine(3)
    assert run(m, [2, 0, 1]) == [2, 0, 1]
    x = C33.integer(17)
    assert transduce(m, x) == x


def test_shift_machine_example():
    # multiply by p: emit 0 first, then echo the previous input digit.
    # states: 0 = fresh, 1+d = "last digit was d"
    p = 3
    m = MealyMachine(
        p=p,
        n_states=1 + p,
        transition=tuple(tuple(1 + d for _ in range(1 + p)) for d in range(p)),
        output=tuple(
            tuple(0 if s == 0 else s - 1 for s in range(1 + p)) for d in range(p)
        ),
        initial=0,
    )
    assert run(m, [1, 2]) == [0, 1]
    # matches multiplication by p on the table side
    table = function_of_automaton(m, 3)
    assert all(table.values[x] == (3 * x) % 27 for x in range(27))


def test_binary_increment_example():
    # carry automaton for x+1 at p=2: state is the pending carry (start 1)
    m = MealyMachine(
        p=2,
        n_states=2,
        transition=(
            (0, 0),  # input 0: carry consumed
            (0, 1),  # input 1: carry propagates only if it was set
        ),
        output=(
            (0, 1),  # 0 + carry
            (1, 0),  # 1 + carry
        ),
        initial=1,
    )
    assert run(m, [1, 1, 0]) == [0, 0, 1]
    table = function_of_automaton(m, 4)
    assert all(table.values[x] == (x + 1) % 16 for x in range(16))


def test_unroll_identity_and_replay():
    t = ValueTable.from_callable(C33, lambda x: x)
    m = unroll_from_function(t)
    assert m.n_states == 1 + 3 + 9 + 1
    assert function_of_automaton(m, 3).values == t.values


def test_unroll_affine_exhaustive():
    ctx = PadicContext(5, 3)
    t = ValueTable.from_callable(ctx, lambda x: 2 * x)
    m = unroll_from_function(t)
    assert function_of_automaton(m, 3).values == t.values


def test_unroll_rejects_non_lipschitz():
    t = ValueTable.from_callable(C33, lambda x: x // 3)
    with pytest.raises(NotOneLipschitzError):
        unroll_from_function(t)


def test_unroll_xor_constant_is_stateless_per_level():
    # f(x) = x xor c has output digits that ignore the prefix class
    c = 14  # digits (2, 1, 1)
    t = ValueTable.from_callable(
        C33, lambda x: sum(((x // 3**k + c // 3**k) % 3) * 3**k for k in range(3))
    )
    m = unroll_from_function(t)
    offsets = [0, 1, 4, 13]
    for k in range(3):
        for d in range(3):
            outs = {m.output[d][offsets[k] + a] for a in range(3**k)}
            assert len(outs) == 1
    assert function_of_automaton(m, 3).values == t.values


def test_unroll_roundtrip_random_tables():
    rng = random.Random(41)
    for _ in range(30):
        t = random_one_lipschitz_table(C34, rng)
        m = unroll_from_function(t)
        assert function_of_automaton(m, 4).values == t.values


def reference_unroll(table: ValueTable) -> MealyMachine:
    """The per-state unroll: state (k, a) on digit d emits digit k of the
    table value at a + d*p^k and moves to state (k+1, a + d*p^k), or to the
    echo sink from the last level."""
    p, K = table.ctx.p, table.ctx.precision
    offsets = [0]
    for k in range(K):
        offsets.append(offsets[-1] + p**k)
    sink = offsets[K]
    n_states = sink + 1
    transition = [[sink] * n_states for _ in range(p)]
    output = [[0] * n_states for _ in range(p)]
    for d in range(p):
        output[d][sink] = d
        for k in range(K):
            pk = p**k
            for a in range(pk):
                state = offsets[k] + a
                rep = a + d * pk
                output[d][state] = (table.values[rep] // pk) % p
                if k + 1 < K:
                    transition[d][state] = offsets[k + 1] + rep
    return MealyMachine(p=p, n_states=n_states, transition=tuple(map(tuple, transition)),
                        output=tuple(map(tuple, output)), initial=0)


UNROLL_CONTEXTS = [PadicContext(p, K) for p, Ks in (
    (2, (1, 2, 7)), (3, (1, 2, 4)), (5, (1, 3)), (7, (1, 2)), (11, (1, 2)), (13, (1, 2))
) for K in Ks]


@pytest.mark.parametrize("ctx", UNROLL_CONTEXTS, ids=lambda c: f"{c.p}^{c.precision}")
def test_unroll_matches_the_per_state_reference(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision)
    verdicts = set()
    for bias in (1.0, 0.0):  # every sub-function a permutation, then none forced to be
        for _ in range(4):
            t = random_one_lipschitz_table(ctx, rng, permutation_bias=bias)
            verdicts.add(check_measure_bruteforce(t))
            assert unroll_from_function(t) == reference_unroll(t)
    assert verdicts == {True, False}


def test_machine_functions_are_one_lipschitz():
    rng = random.Random(43)
    for _ in range(40):
        m = random_machine(3, rng.randrange(1, 6), rng)
        t = function_of_automaton(m, 3)
        assert check_one_lipschitz(t)


def test_bijectivity_bridge():
    rng = random.Random(47)
    for _ in range(40):
        m = random_machine(3, rng.randrange(1, 6), rng)
        t = function_of_automaton(m, 3)
        assert check_induced_bijections(m, 3) == check_measure_bruteforce(t)
    # the unrolled doubling map is bijective level by level
    ctx = PadicContext(5, 2)
    t = ValueTable.from_callable(ctx, lambda x: 7 * x)
    assert check_induced_bijections(unroll_from_function(t), 2)


def test_function_of_automaton_refuses_a_table_over_the_limit_before_building_it():
    start = time.perf_counter()
    with pytest.raises(DomainError, match="exceeds the limit"):
        function_of_automaton(identity_machine(2), 21)  # 2^21 entries
    assert time.perf_counter() - start < 0.5


def test_run_validates_digits():
    m = identity_machine(3)
    with pytest.raises(DomainError):
        run(m, [0, 3])


def _machine(**fields) -> MealyMachine:
    """A two-state machine over {0, 1, 2} with ``fields`` changed."""
    table = ((0, 1),) * 3
    return MealyMachine(**{"p": 3, "n_states": 2, "transition": table, "output": table,
                           "initial": 0} | fields)


@pytest.mark.parametrize("fields, message", [
    ({"p": 1}, "alphabet needs p >= 2"),
    ({"n_states": 0}, "at least one state required"),
    ({"initial": 2}, "initial state out of range"),
    ({"transition": ((0, 1),) * 2}, "transition table needs one row per input digit"),
    ({"output": ((0, 1),) * 2 + ((0,),)}, "output row needs one entry per state"),
    ({"transition": ((0, 2),) * 3}, "transition entry 2 out of range"),
    ({"output": ((0, 3),) * 3}, "output entry 3 out of range"),
], ids=range(7))
def test_a_machine_refuses_a_wrong_table(fields, message):
    _machine()
    with pytest.raises(DomainError) as info:
        _machine(**fields)
    assert str(info.value) == message


def test_transduce_refuses_an_argument_over_another_alphabet():
    with pytest.raises(DomainError) as info:
        transduce(identity_machine(3), PadicContext(5, 2).integer(7))
    assert str(info.value) == "machine and argument alphabet differ"
