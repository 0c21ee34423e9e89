"""Output checks: naive recounts, leftover masks, Sudoku givens, parity.

The recounts are written from the task definitions (as the test oracles
are) and never call the package's vectorized or incremental evaluators.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np

from mdsearch.constraints.peptide import TERMINATOR, PeptideSpec
from mdsearch.constraints.sat import CnfFormula
from mdsearch.constraints.sudoku import SudokuBoard
from mdsearch.harness import runner

VALUE_TOL = 1e-12


def naive_sat(clauses, assignment) -> int:
    """Clauses whose literals are all false; assignment holds 0/1."""
    violated = 0
    for clause in clauses:
        if not any((assignment[abs(lit) - 1] == 1) == (lit > 0) for lit in clause):
            violated += 1
    return violated


def naive_sudoku(grid) -> int:
    """Sum over rows, columns and boxes of (count - 1) for each repeated digit."""
    side = len(grid)
    box = int(round(side ** 0.5))
    units = [list(row) for row in grid]
    units += [[grid[r][c] for r in range(side)] for c in range(side)]
    units += [[grid[r][c] for r in range(br, br + box) for c in range(bc, bc + box)]
              for br in range(0, side, box) for bc in range(0, side, box)]
    return sum(n - 1 for unit in units for n in Counter(unit).values())


def naive_peptide(residues: str, spec: PeptideSpec) -> tuple[float, float, float]:
    """(length, charge, hydrophobicity) hinge violations from string counts."""
    n = len(residues)
    nu_len = max(0, spec.min_length - n) + max(0, n - spec.max_length)
    charge = (sum(r in spec.positive for r in residues)
              - sum(r in spec.negative for r in residues))
    nu_charge = max(0, spec.charge_min - charge) + max(0, charge - spec.charge_max)
    fraction = sum(r in spec.hydrophobic for r in residues) / n if n else 0.0
    return (float(nu_len), float(nu_charge), max(0.0, spec.hydro_min - fraction))


def recount(instance, final) -> tuple[float, ...]:
    """Per-constraint violations of ``final``, by the naive evaluators."""
    values = [int(v) for v in final]
    data = instance.data
    if isinstance(data, CnfFormula):
        return (float(naive_sat(data.clauses, values)),)
    if isinstance(data, SudokuBoard):
        side = data.side
        digits = [v + 1 for v in values]
        return (float(naive_sudoku([digits[r * side:(r + 1) * side]
                                    for r in range(side)])),)
    if isinstance(data, PeptideSpec):
        symbols = instance.vocab.symbols
        text = "".join(symbols[v] for v in values)
        return naive_peptide(text.split(TERMINATOR, 1)[0], data)
    raise TypeError(f"no naive evaluator for {instance.name}")


def check_sample(instance, final, report) -> list[str]:
    """Problems with one finished sample; empty when it passes."""
    final = np.asarray(final)
    if final.shape != (instance.length,):
        return [f"{instance.name}: shape {final.shape} != ({instance.length},)"]
    problems = []
    size = instance.vocab.size
    if np.any(final == instance.vocab.mask_id):
        problems.append(f"{instance.name}: mask token left in the sample")
    elif np.any((final < 0) | (final >= size)):
        problems.append(f"{instance.name}: token outside the alphabet")
    else:
        expected = recount(instance, final)
        if len(expected) != len(report.values) or any(
                abs(a - b) > VALUE_TOL for a, b in zip(expected, report.values)):
            problems.append(f"{instance.name}: recount {expected} != "
                            f"aggregate_violation {report.values}")
    if isinstance(instance.data, SudokuBoard):
        grid = np.asarray(instance.data.grid).ravel()
        given = grid != 0
        if not np.array_equal(final[given], grid[given] - 1):
            problems.append(f"{instance.name}: Sudoku givens were edited")
    return problems


def check_outcomes(workload, streams, outcomes) -> list[str]:
    problems = []
    for job, outcome in zip(workload.jobs, outcomes):
        if outcome.error is None:
            instance = streams[job.stream].instances[job.instance]
            problems += check_sample(instance, outcome.final, outcome.report)
    return problems


def check_parity(workload, streams, outcomes, per_stream: int) -> list[str]:
    """Re-run the first jobs of each stream through ``run_experiment``.

    Only jobs whose instance index equals their sample index are comparable;
    every workload starts with such jobs. ``value`` and ``total`` must match
    index by index.
    """
    problems = []
    for s, stream in enumerate(streams):
        mine = {job.sample: outcome for job, outcome in zip(workload.jobs, outcomes)
                if job.stream == s and job.instance == job.sample}
        count = min(per_stream, len(mine))
        result = runner.run_experiment(replace(stream.cfg, num_samples=count, out=None))
        for record in result.records:
            outcome = mine[record.index]
            instance = stream.instances[record.index]
            if record.error is not None or outcome.error is not None:
                problems.append(f"{instance.name}: parity run raised "
                                f"{record.error or outcome.error}")
            elif (record.value != instance.render(outcome.final)
                  or record.total != outcome.report.total):
                problems.append(f"{instance.name}: run_experiment gives "
                                f"{record.value!r}/{record.total}, benchmark "
                                f"{instance.render(outcome.final)!r}/{outcome.report.total}")
    return problems
