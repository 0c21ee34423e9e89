"""Random instance generators for the benchmark presets."""

from __future__ import annotations

import numpy as np

from ..constraints import sat
from ..errors import ConfigError, GenerationError

REJECTION_CAP = 1000


def random_formula(num_vars: int, num_clauses: int, rng: np.random.Generator,
                   require_satisfiable: bool = True) -> sat.CnfFormula:
    """Uniform random 3-CNF with distinct variables per clause.

    With ``require_satisfiable`` the draw is rejection-sampled against an
    exhaustive satisfiability check over packed truth tables (hence the
    variable cap), which costs a few milliseconds per draw even at the cap;
    at 45 clauses over 7 variables most draws are unsatisfiable, so expect
    several rejections per instance.
    """
    if num_vars < 3:
        raise ConfigError("3-CNF needs at least 3 variables")
    if require_satisfiable and num_vars > sat.ENUM_VAR_CAP:
        raise ConfigError(
            f"satisfiability check supports at most {sat.ENUM_VAR_CAP} variables")
    for _ in range(REJECTION_CAP):
        clauses = []
        for _ in range(num_clauses):
            chosen = rng.choice(num_vars, size=3, replace=False) + 1
            signs = rng.integers(0, 2, size=3) * 2 - 1
            clauses.append(tuple(int(v * s) for v, s in zip(chosen, signs)))
        formula = sat.CnfFormula(num_vars, tuple(clauses))
        if not require_satisfiable or sat.is_satisfiable(formula):
            return formula
    raise GenerationError(
        f"no satisfiable formula after {REJECTION_CAP} draws "
        f"(clause/variable ratio {num_clauses / num_vars:.1f})")

