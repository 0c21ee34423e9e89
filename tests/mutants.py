"""Mutant table: one-line mutants of ``src/`` and the test file that catches each.

    python3 tests/mutants.py            # every row
    python3 tests/mutants.py NAME ...   # the named rows

Tier-1 does not collect this file. Each run copies ``src/``, ``tests/``,
``perfbench/``, ``README.md`` and ``pyproject.toml`` to a temporary
directory, since test files read the last three. It first runs every test
file the chosen rows name once, unmutated: a file that fails there would
read ``caught`` under any mutant, so its rows are an ``error``. For each
row it then checks that the old text occurs exactly once in its file,
applies the mutant to a fresh copy and runs the row's test file. A failing
run is ``caught``, a passing one ``survived``; any other pytest exit (a
collection error, say) is an ``error``. A row with a reason in
``equivalent`` is not run: its mutant changes no output that a test could
see, for the reason given. Exits 1 if an old text is missing or repeated,
an expected catch survives, or a run errs; else 0.

A change that adds or rewrites a fast path adds at least one row here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    test: str  # the test file expected to catch it
    equivalent: str = ""  # why no test can catch it; such a row is not run


MUTANTS = (
    # scoring: each report keeps the total its scorer summed
    Mutant("pool-report-first-total", "src/mdsearch/search.py",
           "float(totals[best])), float(totals[0]))",
           "float(totals[0])), float(totals[0]))",
           "tests/test_search.py"),
    Mutant("pool-report-first-total-batched", "src/mdsearch/search.py",
           "float(totals[best])), float(totals[0]))",
           "float(totals[0])), float(totals[0]))",
           "tests/test_batched.py"),
    Mutant("aggregate-unweighted", "src/mdsearch/search.py",
           "ViolationReport(parts, weighted_total(w, parts))",
           "ViolationReport(parts, sum(parts))",
           "tests/test_search.py"),
    Mutant("refine-report-start-total", "src/mdsearch/search.py",
           "for tr in trackers), total)",
           "for tr in trackers), history[0])",
           "tests/test_search.py"),
    # the pool's token-check skip
    Mutant("drawn-violations-alphabet-below", "src/mdsearch/constraints/base.py",
           "constraint.alphabet >= num_tokens",
           "constraint.alphabet <= num_tokens",
           "tests/test_batched.py"),
    Mutant("drawn-violations-alphabet-strict", "src/mdsearch/constraints/base.py",
           "constraint.alphabet >= num_tokens",
           "constraint.alphabet > num_tokens",
           "tests/test_batched.py"),
    Mutant("drawn-violations-length-and", "src/mdsearch/constraints/base.py",
           "constraint.length is None or constraint.length",
           "constraint.length is None and constraint.length",
           "tests/test_batched.py"),
    # one hook per constraint, its output checked on every batch
    Mutant("subclass-guard-off", "src/mdsearch/constraints/base.py",
           "        if defined:\n            raise ContractError(",
           "        if False:\n            raise ContractError(",
           "tests/test_batched.py"),
    Mutant("violations-output-unchecked", "src/mdsearch/constraints/base.py",
           "        return _checked_output(self, self._violations(values), len(values))",
           "        return self._violations(values)",
           "tests/test_batched.py"),
    Mutant("drawn-output-unchecked", "src/mdsearch/constraints/base.py",
           "        return _checked_output(constraint, constraint._violations(draws), len(draws))",
           "        return constraint._violations(draws)",
           "tests/test_batched.py"),
    Mutant("peek-block-token-count-unchecked", "src/mdsearch/constraints/base.py",
           '        check_count(num_tokens, "token count", 1, error=ContractError)\n', "",
           "tests/test_batched.py"),
    # one rule for a token sequence, and the first value past each bound
    Mutant("check-sequence-no-rank-test", "src/mdsearch/errors.py",
           "    if values.ndim != 1:\n        raise ContractError(f\"{what} must be one sequence",
           "    if False:\n        raise ContractError(f\"{what} must be one sequence",
           "tests/test_denoise.py"),
    Mutant("proposal-draws-bound-one-higher", "src/mdsearch/search.py",
           'check_sequence(x_t, "x_t", mask_id + 1)',
           'check_sequence(x_t, "x_t", mask_id + 2)',
           "tests/test_search.py"),
    # the plain step's state and row count, checked by check_rows
    Mutant("vanilla-bound-one-higher", "src/mdsearch/denoise.py",
           'values = check_sequence(values, "observed tokens", vocab.mask_id + 1)\n'
           "    rows = np.asarray(rows, dtype=np.float64)",
           'values = check_sequence(values, "observed tokens", vocab.mask_id + 2)\n'
           "    rows = np.asarray(rows, dtype=np.float64)",
           "tests/test_diffusion.py"),
    Mutant("vanilla-no-row-count-test", "src/mdsearch/denoise.py",
           "if rows.shape != (len(values), vocab.size):", "if False:",
           "tests/test_diffusion.py"),
    # each denoiser call's rows checked once: in the plain step, or before the pool
    Mutant("vanilla-no-row-check", "src/mdsearch/search.py",
           "rows = check_rows(rows, x_t, vocab)", "rows = np.asarray(rows, dtype=np.float64)",
           "tests/test_search.py"),
    Mutant("search-step-no-row-check", "src/mdsearch/search.py",
           "best_of_pool(check_rows(rows, x, vocab), x,", "best_of_pool(rows, x,",
           "tests/test_search.py"),
    # positions are integers, never a bool mask; a region as long as the start
    Mutant("vanilla-bool-positions", "src/mdsearch/search.py",
           'committing = check_integers(committing, "committing positions")',
           "committing = np.asarray(committing)",
           "tests/test_diffusion.py"),
    Mutant("vanilla-index-error-leaks", "src/mdsearch/search.py",
           "except (IndexError, TypeError, ValueError) as exc:",
           "except (TypeError, ValueError) as exc:",
           "tests/test_diffusion.py"),
    Mutant("guided-bool-positions", "src/mdsearch/search.py",
           'remaining = check_integers(remaining, "remaining positions")',
           "remaining = np.asarray(remaining)",
           "tests/test_diffusion.py"),
    Mutant("vanilla-no-rank-test", "src/mdsearch/search.py",
           "    if committing.ndim != 1:", "    if committing.ndim > 2:",
           "tests/test_diffusion.py"),
    Mutant("guided-no-rank-test", "src/mdsearch/search.py",
           "    if remaining.ndim != 1:", "    if remaining.ndim > 2:",
           "tests/test_diffusion.py"),
    Mutant("refine-no-length-test", "src/mdsearch/search.py",
           "if region.length != len(current):", "if False:",
           "tests/test_search.py"),
    Mutant("alpha-bound-one-higher", "src/mdsearch/diffusion.py",
           '"step", 0, self.steps + 1,', '"step", 0, self.steps + 2,',
           "tests/test_diffusion.py"),
    Mutant("table-position-at-length", "src/mdsearch/denoise.py",
           "pos >= len(pattern)", "pos > len(pattern)",
           "tests/test_denoise.py"),
    Mutant("posterior-divides-by-support-size", "src/mdsearch/denoise.py",
           "counts.reshape(values.size, vocab.size) / n",
           "counts.reshape(values.size, vocab.size) / len(support)",
           "tests/test_denoise.py"),
    # the row contract, each tolerance loosened
    Mutant("row-sum-tolerance-1e-6", "src/mdsearch/denoise.py",
           "initial=0.0) <= ROW_TOL", "initial=0.0) <= 1e-6",
           "tests/test_denoise.py"),
    Mutant("row-entry-bound-1e-6", "src/mdsearch/denoise.py",
           "<= 0.5 + ROW_TOL", "<= 0.5 + 1e-6",
           "tests/test_denoise.py"),
    Mutant("one-hot-tolerance-1e-3", "src/mdsearch/denoise.py",
           "np.minimum.reduce(hot) < 1.0 - ROW_TOL", "np.minimum.reduce(hot) < 1.0 - 1e-3",
           "tests/test_denoise.py"),
    # random_formula's one rewind and the Lemire-risky word test
    Mutant("rewind-rereads-one-draw-more", "src/mdsearch/constraints/sat.py",
           "size=used * num_clauses * width",
           "size=(used + 1) * num_clauses * width",
           "tests/test_sat.py"),
    Mutant("risky-word-at-its-bound", "src/mdsearch/constraints/sat.py",
           "(scaled & np.uint64(0xFFFFFFFF)) < bounds",
           "(scaled & np.uint64(0xFFFFFFFF)) <= bounds",
           "tests/test_sat.py"),
    Mutant("rewind-skipped-one-draw-short", "src/mdsearch/constraints/sat.py",
           "        if used < count:\n            rng.bit_generator.state = state",
           "        if used < count - 1:\n            rng.bit_generator.state = state",
           "tests/test_sat.py"),
    # enumeration on a frontier of live words, one clause level at a time.
    # test_satisfying_assignments_match_the_chunked_oracle_at_the_cap catches
    # a widening by the wrong bit and a level one too low;
    # test_multi_block_formulas_narrow_to_the_words_each_holds a scatter into
    # the leading columns; test_enumeration_sorts_a_copy_of_the_callers_clauses
    # a sort in place; and
    # test_one_block_formulas_read_one_shared_all_words_table a writable
    # all-words table
    Mutant("frontier-widens-by-the-wrong-bit", "src/mdsearch/constraints/sat.py",
           "[:, None] << np.uint64(bits)", "[:, None] << np.uint64(bits + 1)",
           "tests/test_sat.py"),
    Mutant("clause-level-one-low", "src/mdsearch/constraints/sat.py",
           "np.abs(literals).max(axis=1) - _WORD_BITS, 0)",
           "np.abs(literals).max(axis=1) - _WORD_BITS - 1, 0)",
           "tests/test_sat.py"),
    Mutant("frontier-scatter-into-leading-columns", "src/mdsearch/constraints/sat.py",
           "full.reshape(-1, 1 << bits)[:, words] = ok",
           "full.reshape(-1, 1 << bits)[:, :len(words)] = ok",
           "tests/test_sat.py"),
    Mutant("clause-sort-in-place", "src/mdsearch/constraints/sat.py",
           "clauses, levels = literals[np.argsort(",
           "clauses = literals; clauses[:], levels = literals[np.argsort(",
           "tests/test_sat.py"),
    Mutant("all-words-table-writable", "src/mdsearch/constraints/sat.py",
           "    rows.flags.writeable = False\n", "",
           "tests/test_sat.py"),
    # value types refuse a caller's mutable containers, and a puzzle may be all blank
    Mutant("formula-takes-a-list-of-clauses", "src/mdsearch/constraints/sat.py",
           "if not (isinstance(self.clauses, tuple)\n",
           "if not (isinstance(self.clauses, (tuple, list))\n",
           "tests/test_sat.py"),
    Mutant("formula-takes-a-list-clause", "src/mdsearch/constraints/sat.py",
           "issubclass(t, tuple) for t in set(map(type, self.clauses))",
           "issubclass(t, (tuple, list)) for t in set(map(type, self.clauses))",
           "tests/test_sat.py"),
    Mutant("schedule-takes-a-list", "src/mdsearch/diffusion.py",
           "if not isinstance(self.alphas, tuple):",
           "if not isinstance(self.alphas, (tuple, list)):",
           "tests/test_diffusion.py"),
    Mutant("weights-take-a-list", "src/mdsearch/search.py",
           "isinstance(self.weights, tuple)", "isinstance(self.weights, (tuple, list))",
           "tests/test_search.py"),
    Mutant("region-takes-any-container", "src/mdsearch/vocab.py",
           "if not isinstance(self.editable, frozenset):", "if False:",
           "tests/test_vocab.py"),
    Mutant("with-frozen-takes-none", "src/mdsearch/vocab.py",
           "        if frozen is None:\n", "        if False:\n",
           "tests/test_vocab.py"),
    Mutant("puzzle-refuses-all-blank", "src/mdsearch/constraints/sudoku.py",
           '"blank count", 0, side * side + 1)', '"blank count", 0, side * side)',
           "tests/test_sudoku.py"),
    # the Sudoku tracker's in-place commit with its flags, and refine's flat mask
    Mutant("unit-slots-one-digit-short", "src/mdsearch/constraints/sudoku.py",
           "units * self.side + old", "units * (self.side - 1) + old",
           "tests/test_batched.py"),
    Mutant("unit-commit-slot-one-digit-short", "src/mdsearch/constraints/sudoku.py",
           "unit * side + old", "unit * (side - 1) + old",
           "tests/test_batched.py"),
    Mutant("unit-commit-falls-to-one", "src/mdsearch/constraints/sudoku.py",
           "if left == 0:", "if left == 1:",
           "tests/test_batched.py"),
    Mutant("unit-commit-no-copy", "src/mdsearch/constraints/sudoku.py",
           "hist, present, dup = cache[0].copy(), cache[1].copy(), cache[2].copy()",
           "hist, present, dup = cache[0], cache[1].copy(), cache[2].copy()",
           "tests/test_batched.py"),
    Mutant("unit-commit-presence-kept", "src/mdsearch/constraints/sudoku.py",
           "once[leaving] = 0", "once[leaving] = 1",
           "tests/test_batched.py"),
    Mutant("unit-commit-duplicate-at-three", "src/mdsearch/constraints/sudoku.py",
           "elif had == 1:", "elif had == 2:",
           "tests/test_batched.py"),
    Mutant("refine-mask-next-token", "src/mdsearch/search.py",
           "scores[here] = np.inf", "scores[here + 1] = np.inf",
           "tests/test_search.py"),
    Mutant("refine-index-not-moved", "src/mdsearch/search.py",
           "        here[row] = flat\n", "",
           "tests/test_search.py"),
    Mutant("refine-enters-at-zero", "src/mdsearch/search.py",
           "while total > 0 and", "while total >= 0 and",
           "tests/test_search.py"),
    # the default tracker hooks, SAT's refinement path: each edit's token and position
    Mutant("default-peek-token-one-off", "src/mdsearch/constraints/base.py",
           "= rows % num_tokens", "= (rows + 1) % num_tokens",
           "tests/test_batched.py"),
    Mutant("default-peek-next-position", "src/mdsearch/constraints/base.py",
           "edits[rows, positions.repeat(num_tokens)]",
           "edits[rows, (positions.repeat(num_tokens) + 1) % len(values)]",
           "tests/test_batched.py"),
    # one reader rule for input files, and the checks on what they hold
    Mutant("read-text-only-os-error", "src/mdsearch/errors.py",
           "    except (OSError, UnicodeDecodeError) as exc:\n"
           '        raise ConfigError(f"cannot read {what}',
           "    except OSError as exc:\n"
           '        raise ConfigError(f"cannot read {what}',
           "tests/test_entry_points.py"),
    Mutant("dimacs-second-header", "src/mdsearch/constraints/sat.py",
           "            if num_vars is not None:\n"
           '                raise ParseError(f"second header',
           "            if False:\n"
           '                raise ParseError(f"second header',
           "tests/test_sat.py"),
    Mutant("record-total-any-type", "src/mdsearch/harness/runner.py",
           '"total": lambda v: v is None or _number(v),', '"total": lambda v: True,',
           "tests/test_cli.py"),
    Mutant("first-hitting-left-side", "src/mdsearch/diffusion.py",
           'side="right"', 'side="left"', "tests/test_diffusion.py",
           equivalent="the sides differ only when a uniform equals an alpha exactly"),
)


def _pytest(test: str, mutant: Mutant | None = None) -> int:
    """The pytest exit code of ``test`` in a fresh copy of the repository,
    with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="mdsearch-mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, tmp / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", "out"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, tmp)
        if mutant is not None:
            target = tmp / mutant.file
            target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                              encoding="utf-8")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv=None) -> int:
    names = sys.argv[1:] if argv is None else argv
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unmutated = {test: _pytest(test) for test in
                 sorted({m.test for m in chosen if not m.equivalent})}
    failed = 0
    for mutant in chosen:
        found = (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)
        if found != 1:
            outcome = f"error (old text found {found} times)"
        elif mutant.equivalent:
            outcome = f"equivalent: {mutant.equivalent}"
        elif unmutated[mutant.test]:
            outcome = f"error (exit {unmutated[mutant.test]} unmutated)"
        else:
            code = _pytest(mutant.test, mutant)
            outcome = {0: "survived", 1: "caught"}.get(code, f"error (exit {code})")
        failed += not (outcome == "caught" or outcome.startswith("equivalent"))
        print(f"{mutant.name:34} {mutant.test:24} {outcome}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
