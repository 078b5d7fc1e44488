"""Mealy transducers over the digit alphabet {0..p-1}.

A machine reads input digits x0, x1, ... and emits one output digit per
input digit; because the k-th output depends only on inputs 0..k, the
induced map on digit strings is always 1-Lipschitz.  Conversely every
1-Lipschitz table unrolls into a finite machine whose states are the input
prefixes seen so far (one state per residue class mod p^k at each level k,
plus an echo sink that is only reachable after the working precision is
exhausted).  Machines live in memory only; they have no file format.
"""

from __future__ import annotations

from random import Random
from typing import Iterable

from .core import DomainError, PadicContext, PadicInt, Record
from .lipschitz import (
    NotOneLipschitzError,
    ValueTable,
    check_measure_bruteforce,
    check_one_lipschitz,
)


class MealyMachine(Record):
    """Transition/output tables indexed [input digit][state]."""

    p: int
    n_states: int
    transition: tuple[tuple[int, ...], ...]
    output: tuple[tuple[int, ...], ...]
    initial: int

    def __post_init__(self) -> None:
        if self.p < 2:
            raise DomainError("alphabet needs p >= 2")
        if self.n_states < 1:
            raise DomainError("at least one state required")
        if not 0 <= self.initial < self.n_states:
            raise DomainError("initial state out of range")
        for name, table, bound in (
            ("transition", self.transition, self.n_states),
            ("output", self.output, self.p),
        ):
            if len(table) != self.p:
                raise DomainError(f"{name} table needs one row per input digit")
            for row in table:
                if len(row) != self.n_states:
                    raise DomainError(f"{name} row needs one entry per state")
                for v in row:
                    if not 0 <= v < bound:
                        raise DomainError(f"{name} entry {v} out of range")


def run(machine: MealyMachine, digits: Iterable[int]) -> list[int]:
    """One output digit per input digit, from the initial state; digits must be in [0, p)."""
    state, out = machine.initial, []
    for digit in digits:
        if not 0 <= digit < machine.p:
            raise DomainError(f"input digit {digit} out of range [0, {machine.p})")
        out.append(machine.output[digit][state])
        state = machine.transition[digit][state]
    return out


def transduce(machine: MealyMachine, x: PadicInt) -> PadicInt:
    """The 1-Lipschitz map a machine induces on Z_p, at x's precision."""
    if machine.p != x.ctx.p:
        raise DomainError("machine and argument alphabet differ")
    return x.ctx.from_digits(run(machine, x.digits))


# -- unrolling a table into a machine -----------------------------------------


def unroll_from_function(table: ValueTable) -> MealyMachine:
    """The transducer realizing a 1-Lipschitz map (acceptance criterion 8):
    one state per input-prefix class mod p^k, k < K, plus an echo sink.

    State (k, a) means: k digits consumed, their value is a.  On digit d the
    machine emits digit k of the table value at the representative a + d*p^k
    (well defined by the 1-Lipschitz property) and moves to level k+1.
    """
    if not check_one_lipschitz(table):
        raise NotOneLipschitzError("only 1-Lipschitz tables unroll into transducers")
    ctx = table.ctx
    p, K = ctx.p, ctx.precision
    offsets = [(p**k - 1) // (p - 1) for k in range(K + 1)]  # the states below level k
    sink = offsets[K]
    transition, output = [], []
    for d in range(p):
        outs, nexts = [], []
        for k in range(K):
            pk, first = p**k, offsets[k + 1] + d * p**k
            outs += [v // pk % p for v in table.values[d * pk:(d + 1) * pk]]
            nexts += range(first, first + pk) if k + 1 < K else [sink] * pk
        output.append((*outs, d))  # the sink echoes its input and loops
        transition.append((*nexts, sink))
    return MealyMachine(p=p, n_states=sink + 1, transition=tuple(transition),
                        output=tuple(output), initial=0)


def function_of_automaton(machine: MealyMachine, precision: int) -> ValueTable:
    """Value table of the induced map on the first ``precision`` digits."""
    ctx = PadicContext(machine.p, precision)
    return ValueTable.from_callable(ctx, lambda x: transduce(machine, PadicInt(ctx, x)).value)


def check_induced_bijections(machine: MealyMachine, precision: int) -> bool:
    """True iff the word map is a bijection on length-n words for all n <= precision:
    the machine's map preserves the Haar measure (acceptance criterion 8)."""
    return check_measure_bruteforce(function_of_automaton(machine, precision))


def random_machine(p: int, n_states: int, rng: Random) -> MealyMachine:
    """Uniform random tables from state 0: the random machines of acceptance criterion 8."""
    return MealyMachine(
        p=p,
        n_states=n_states,
        transition=tuple(
            tuple(rng.randrange(n_states) for _ in range(n_states)) for _ in range(p)
        ),
        output=tuple(
            tuple(rng.randrange(p) for _ in range(n_states)) for _ in range(p)
        ),
        initial=0,
    )
