"""Finite-precision p-adic arithmetic, 1-Lipschitz transducers, and
homomorphic digit ciphers over Z_p.

Each public name is imported from its defining module on first use (PEP 562),
so ``import padic_ciphers`` alone loads no submodule.
"""

from importlib import import_module

# public name -> defining module, or (module, name there) for an alias
_EXPORTS = {
    "PadicContext": "core",
    "PadicInt": "core",
    "PadicError": "core",
    "from_text": "core",
    "to_text": "core",
    "truncate": "core",
    "valuation": "core",
    "invert_unit": "core",
    "pow_nat": "core",
    "pow_unit": "core",
    "teichmuller": "core",
    "xor_p": "core",
    "and_p": "core",
    "ValueTable": "lipschitz",
    "VdpSeries": "lipschitz",
    "CoordRep": "lipschitz",
    "chi": "lipschitz",
    "vdp_eval": "lipschitz",
    "vdp_interpolate": "lipschitz",
    "check_one_lipschitz": "lipschitz",
    "check_measure_bruteforce": "lipschitz",
    "check_measure_vdp": "lipschitz",
    "check_measure_coord": "lipschitz",
    "random_one_lipschitz_table": "lipschitz",
    "MealyMachine": "automaton",
    "transduce": "automaton",
    "unroll_from_function": "automaton",
    "function_of_automaton": "automaton",
    "check_induced_bijections": "automaton",
    "random_machine": "automaton",
    "AdditiveKey": "ciphers",
    "MultiplicativeKey": "ciphers",
    "XorKey": "ciphers",
    "AndKey": "ciphers",
    "FheKey": "ciphers",
    "LinearG": "ciphers",
    "G1": "ciphers",
    "G2": "ciphers",
    "G3": "ciphers",
    "G4": "ciphers",
    "SeriesG": "ciphers",
    "g_eval": "ciphers",
    "exponent_gcd": "ciphers",
    "admissible_multipliers": "ciphers",
    "roots_of_unity": "ciphers",
    "keygen": "ciphers",
    "encrypt": "ciphers",
    "decrypt": "ciphers",
    "encryption_table": "ciphers",
    "key_to_json": "ciphers",
    "key_from_json": "ciphers",
    "ADD": "ciphers",
    "MUL": "ciphers",
    "XOR": "ciphers",
    "AND": "ciphers",
    "SearchReport": "analysis",
    "CANONICAL_PAIRS": "analysis",
    "homomorphism_test": "analysis",
    "counterexample_search": "analysis",
    "intersection_scan": "analysis",
    "vdp_coefficient_probe": "analysis",
    "parse": "formula",
    "formula_to_text": ("formula", "to_text"),
    "evaluate": "formula",
    "compatibility_check": "formula",
    "encrypted_eval_demo": "formula",
    "DEMO_FORMULA": "formula",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        where = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module, attr = where if isinstance(where, tuple) else (where, name)
    value = getattr(import_module(f".{module}", __name__), attr)
    globals()[name] = value  # later lookups find it without this hook
    return value
