"""Acceptance criteria, one test per criterion.

Each test prints one ``criterion N: PASS`` line with its headline numbers;
assertion failures surface as the usual pytest failures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import mdsearch as m
from mdsearch.constraints.peptide import PeptideSpec, peptide_constraints, residue_vocab
from mdsearch.constraints.sat import ClauseViolations
from mdsearch.constraints.sudoku import UnitDuplicates
from mdsearch.denoise import DataDistribution, ExactPosteriorDenoiser
from mdsearch.harness import (
    paired_feasibility,
    presets,
    random_formula,
    random_puzzle,
    run_experiment,
)
from mdsearch.search import SearchConfig, best_of_pool, proposal_draws, refine
from mdsearch.tasks import Instance, peptide_instance, sat_instance, sudoku_instance
from mdsearch.vocab import EditableRegion, Vocab, masked_positions

from oracles import (
    naive_peptide_report,
    naive_sat_violation,
    naive_sudoku_violation,
    neighborhood,
    tv_distance,
)


def _rate(result):
    return sum(r.feasible for r in result.records) / len(result.records)


@pytest.fixture(scope="session")
def sat_arms():
    base = presets()["sat"]
    return {placement: run_experiment(replace(base, placement=placement))
            for placement in ("off", "last_step", "all_steps")}


def test_c01_kernel_identities():
    start = time.perf_counter()
    for steps in (1, 2, 4, 10, 20, 64):
        sched = m.linear_schedule(steps)
        for t in range(1, steps + 1):
            coeffs = m.reverse_coeffs(t, sched)
            assert abs(coeffs.stay_prob + coeffs.commit_prob - 1.0) <= 1e-12
        final = m.reverse_coeffs(1, sched)
        assert final.commit_prob == 1.0
        assert final.stay_prob == 0.0
    print(f"criterion 1: PASS (stay+commit == 1 within 1e-12, final step "
          f"commits exactly; {time.perf_counter() - start:.2f}s)")


def _tiny_instances():
    rng = np.random.default_rng(99)
    sat = [sat_instance(random_formula(5, 8, rng, require_satisfiable=False),
                        name=f"s{i}") for i in range(4)]
    sud = [sudoku_instance(random_puzzle(2, 6, rng), name=f"b{i}")
           for i in range(4)]
    pep = [peptide_instance(slots=12, name=f"p{i}") for i in range(4)]
    return {"sat": sat, "sudoku": sud, "peptide": pep}


def test_c02_monotone_unmasking_and_termination():
    start = time.perf_counter()
    instances = _tiny_instances()
    schedule = m.linear_schedule(5)
    per_combo = 1112  # 9 combos -> 10008 trajectories
    total = 0
    for task, pool in instances.items():
        denoisers = [m.UniformDenoiser(inst.vocab) for inst in pool]
        for placement in ("off", "last_step", "all_steps"):
            cfg = SearchConfig(placement=placement, candidates=3, max_rounds=2)
            for k in range(per_combo):
                inst = pool[k % len(pool)]
                final, trace = m.sample(
                    inst, denoisers[k % len(pool)], schedule, cfg,
                    np.random.default_rng(np.random.SeedSequence([5, total])),
                    collect_masks=True)
                previous = set(inst.region.positions)
                for record in trace:
                    now = set(record.masked_after)
                    assert now <= previous, "masked set must shrink"
                    previous = now
                assert not previous
                assert masked_positions(final, inst.vocab.mask_id).size == 0
                total += 1
    assert total >= 10_000
    print(f"criterion 2: PASS ({total} trajectories, monotone unmasking, "
          f"zero final masks; {time.perf_counter() - start:.1f}s)")


def test_c03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    cases = 10_000

    formulas = [random_formula(7, 45, rng, require_satisfiable=False)
                for _ in range(10)]
    evaluators = [ClauseViolations(f) for f in formulas]
    for i in range(cases):
        f, ev = formulas[i % 10], evaluators[i % 10]
        a = rng.integers(0, 2, size=7)
        assert ev.violation(a) == naive_sat_violation(f.clauses, a)

    for i in range(cases):
        f, ev = formulas[i % 10], evaluators[i % 10]
        a = rng.integers(0, 2, size=7)
        pos = int(rng.integers(7))
        token = int(rng.integers(0, 2))
        flipped = a.copy()
        flipped[pos] = token
        tracker = ev.tracker(a)
        assert tracker.peek_block([pos], 2)[0, token] - tracker.value() == (
            naive_sat_violation(f.clauses, flipped)
            - naive_sat_violation(f.clauses, a))

    sud = UnitDuplicates(2)
    for _ in range(cases):
        grid = rng.integers(1, 5, size=(4, 4))
        assert sud.violation(grid.ravel() - 1) == naive_sudoku_violation(grid)

    for _ in range(cases):
        grid = rng.integers(1, 5, size=(4, 4))
        tracker = sud.tracker(grid.ravel() - 1)
        pos = int(rng.integers(16))
        token = int(rng.integers(0, 4))
        edited = grid.copy()
        edited[pos // 4, pos % 4] = token + 1
        assert tracker.peek_block([pos], 4)[0, token] - tracker.value() == (
            naive_sudoku_violation(edited) - naive_sudoku_violation(grid))

    vocab = residue_vocab()
    constraints = peptide_constraints(PeptideSpec(), vocab)
    letters = np.array(list("ACDEFGHIKLMNPQRSTVWY"))
    for _ in range(cases):
        n = int(rng.integers(0, 60))
        residues = "".join(rng.choice(letters, size=n))
        values = vocab.parse(residues + "-")
        got = tuple(c.violation(values) for c in constraints)
        assert got == naive_peptide_report(residues)

    print(f"criterion 3: PASS (5 evaluators x {cases} randomized cases match "
          f"naive recounts exactly; {time.perf_counter() - start:.1f}s)")


def test_c04_pool_and_refinement_contracts():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    vocab = Vocab(("0", "1"))
    region = EditableRegion.all_editable(7)
    budget, cap = 32, 16
    halted_early = 0
    for case in range(1000):
        formula = random_formula(7, int(rng.integers(10, 46)), rng,
                                 require_satisfiable=False)
        constraints = (ClauseViolations(formula),)
        x_t = rng.integers(0, 2, size=7)
        masked = rng.random(7) < rng.random()
        x_t[masked] = vocab.mask_id
        raw = rng.random((7, 2)) + 1e-3
        rows = raw / raw.sum(axis=1, keepdims=True)

        seed = int(rng.integers(2**32))
        draws = proposal_draws(rows, x_t, budget,
                               np.random.default_rng(seed), vocab.mask_id)
        totals = [naive_sat_violation(formula.clauses, d) for d in draws]
        pick = best_of_pool(rows, x_t, budget, constraints, None,
                            np.random.default_rng(seed), vocab.mask_id)
        assert pick.report.total == min(totals)

        result = refine(pick.candidate, constraints, None, vocab, region, cap)
        assert all(b < a for a, b in zip(result.history, result.history[1:]))
        assert result.rounds <= cap
        if result.report.total > 0 and result.rounds < cap:
            halted_early += 1
            for _, _, edited in neighborhood(result.candidate, vocab, region):
                assert (naive_sat_violation(formula.clauses, edited)
                        >= result.report.total)
    assert halted_early > 0
    print(f"criterion 4: PASS (1000 steps: pool pick is the exact minimum, "
          f"descent strictly decreasing, {halted_early} early halts verified "
          f"locally optimal; {time.perf_counter() - start:.1f}s)")


class _CachingDenoiser:
    """Memoizes exact-posterior rows; queries repeat heavily at this scale."""

    def __init__(self, inner):
        self.inner = inner
        self.vocab = inner.vocab
        self.cache = {}

    def denoise(self, values, t):
        key = values.tobytes()
        rows = self.cache.get(key)
        if rows is None:
            rows = self.inner.denoise(values, t)
            self.cache[key] = rows
        return rows


def test_c05_distribution_recovery():
    start = time.perf_counter()
    vocab = Vocab(("A", "B", "C", "D"))
    rng = np.random.default_rng(0)
    codes = rng.choice(64, size=8, replace=False)
    support = np.stack([(codes // 16) % 4, (codes // 4) % 4, codes % 4], axis=1)
    denoiser = _CachingDenoiser(
        ExactPosteriorDenoiser(DataDistribution(support), vocab))
    instance = Instance("tv", vocab, EditableRegion.all_editable(3), ())
    config = SearchConfig(placement="off")
    schedule = m.linear_schedule(64)
    n = 50_000
    counts = {}
    for i in range(n):
        final, _ = m.sample(instance, denoiser, schedule, config,
                            np.random.default_rng(np.random.SeedSequence([7, i])))
        key = final.tobytes()
        counts[key] = counts.get(key, 0) + 1
    target = {row.tobytes(): 1 / 8 for row in support.astype(np.int64)}
    tv = tv_distance(counts, target, n)
    # pilot floor for this support/seed set is ~0.012; the bound stays at 0.05
    assert tv <= 0.05
    print(f"criterion 5: PASS (TV distance {tv:.4f} <= 0.05 over {n} samples, "
          f"T=64; {time.perf_counter() - start:.1f}s)")


def test_c06_search_improvement_ordering(sat_arms):
    start = time.perf_counter()
    rates = {placement: _rate(result) for placement, result in sat_arms.items()}
    assert rates["all_steps"] - rates["off"] >= 0.30
    assert rates["all_steps"] > rates["last_step"] > rates["off"]
    print(f"criterion 6: PASS (feasibility off={rates['off']:.3f} "
          f"last={rates['last_step']:.3f} all={rates['all_steps']:.3f}; "
          f"gap {rates['all_steps'] - rates['off']:.3f} >= 0.30; "
          f"{time.perf_counter() - start:.1f}s)")


def _paired_bootstrap_se(diffs, draws=1000, seed=13):
    rng = np.random.default_rng(seed)
    n = len(diffs)
    means = [diffs[rng.integers(0, n, size=n)].mean() for _ in range(draws)]
    return float(np.std(means))


def test_c07_pool_budget_monotonicity(sat_arms):
    start = time.perf_counter()
    base = presets()["sat"]
    results = {32: sat_arms["all_steps"]}
    for budget in (1, 128):
        results[budget] = run_experiment(replace(base, candidates=budget))
    rates = {budget: _rate(result) for budget, result in results.items()}
    for low, high in ((1, 32), (32, 128)):
        diffs = paired_feasibility(results[low], results[high])
        se = _paired_bootstrap_se(diffs)
        assert diffs.mean() >= -se, (
            f"feasibility dropped from M={low} to M={high} beyond one SE")
    print(f"criterion 7: PASS (feasibility M=1:{rates[1]:.3f} "
          f"M=32:{rates[32]:.3f} M=128:{rates[128]:.3f}, non-decreasing "
          f"within one paired-bootstrap SE; {time.perf_counter() - start:.1f}s)")


def test_c08_peptide_full_satisfaction():
    start = time.perf_counter()
    result = run_experiment(presets()["peptide"])
    assert len(result.records) == 500
    for record in result.records:
        assert record.error is None
        assert record.violations == (0.0, 0.0, 0.0)
        assert record.feasible
    print(f"criterion 8: PASS (500/500 peptides satisfy all three constraints; "
          f"{time.perf_counter() - start:.1f}s)")


def test_c09_sudoku_improvement():
    start = time.perf_counter()
    base = presets()["sudoku"]
    off = run_experiment(replace(base, placement="off"))
    allsteps = run_experiment(replace(base, placement="all_steps"))
    rate_off, rate_all = _rate(off), _rate(allsteps)
    assert rate_all >= rate_off + 0.20
    print(f"criterion 9: PASS (solve rate off={rate_off:.3f} "
          f"all={rate_all:.3f} over 200 paired puzzles; "
          f"{time.perf_counter() - start:.1f}s)")


def test_c10_determinism_byte_identical(tmp_path):
    start = time.perf_counter()
    base = presets()["sat"]
    for placement in ("off", "last_step", "all_steps"):
        first = tmp_path / f"first-{placement}.jsonl"
        second = tmp_path / f"second-{placement}.jsonl"
        run_experiment(replace(base, placement=placement, out=str(first)))
        run_experiment(replace(base, placement=placement, out=str(second)))
        assert first.read_bytes() == second.read_bytes()
    print(f"criterion 10: PASS (three arms re-run byte-identical; "
          f"{time.perf_counter() - start:.1f}s)")
