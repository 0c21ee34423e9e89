"""Independent naive reference implementations used as test oracles.

Everything here is deliberately written from the definitions, without
touching the package's vectorized or incremental code paths.
"""

from collections import Counter

import numpy as np

PEPTIDE_HYDRO = set("AVILMFWC")
PEPTIDE_POSITIVE = set("KRH")
PEPTIDE_NEGATIVE = set("DE")


def naive_sat_violation(clauses, assignment) -> int:
    """Clause-by-clause recount; assignment is a 0/1 sequence."""
    violated = 0
    for clause in clauses:
        satisfied = False
        for lit in clause:
            value = assignment[abs(lit) - 1]
            if (value == 1) == (lit > 0):
                satisfied = True
                break
        if not satisfied:
            violated += 1
    return violated


def naive_sudoku_violation(grid) -> int:
    """Per-unit duplicate recount; grid holds digits 1..side."""
    grid = [list(row) for row in grid]
    side = len(grid)
    box = int(round(side ** 0.5))
    units = []
    units += [list(row) for row in grid]
    units += [[grid[r][c] for r in range(side)] for c in range(side)]
    for br in range(0, side, box):
        for bc in range(0, side, box):
            units.append([grid[r][c]
                          for r in range(br, br + box)
                          for c in range(bc, bc + box)])
    total = 0
    for unit in units:
        for count in Counter(unit).values():
            total += max(0, count - 1)
    return total


def naive_peptide_report(residues: str, min_len=10, max_len=50,
                         charge_lo=2, charge_hi=9, hydro_min=0.30):
    """(length, charge, hydrophobicity) violations from plain string counts."""
    n = len(residues)
    nu_len = max(0, min_len - n) + max(0, n - max_len)
    charge = sum(1 for r in residues if r in PEPTIDE_POSITIVE)
    charge -= sum(1 for r in residues if r in PEPTIDE_NEGATIVE)
    nu_charge = max(0, charge_lo - charge) + max(0, charge - charge_hi)
    fraction = (sum(1 for r in residues if r in PEPTIDE_HYDRO) / n) if n else 0.0
    nu_hydro = max(0.0, hydro_min - fraction)
    return (float(nu_len), float(nu_charge), float(nu_hydro))


def forward_corrupt(values, t, schedule, region, rng, mask_id) -> np.ndarray:
    """Corrupt a clean sequence to its step-``t`` marginal.

    Each editable token is kept with probability ``alpha_t``, otherwise
    replaced by the mask id. Frozen positions are never touched. Reference
    for the forward process the reverse kernels invert.
    """
    from mdsearch.errors import ContractError

    values = np.asarray(values)
    if not 0 <= t <= schedule.steps:
        raise ContractError(f"step {t} outside schedule range 0..{schedule.steps}")
    editable = np.array(region.positions, dtype=np.int64)
    if editable.size and np.any(values[editable] == mask_id):
        raise ContractError("input must be fully specified on the editable region")
    out = np.array(values, dtype=np.int64)
    if editable.size:
        survive = rng.random(editable.size) < schedule.alpha(t)
        out[editable[~survive]] = mask_id
    return out


def neighborhood(candidate, vocab, region):
    """Every single-token replacement of ``candidate`` at a position of
    ``region``.

    Yields ``(pos, token, edited)`` in ascending (pos, token) order,
    skipping no-ops. Brute-force reference for the neighborhood that
    ``refine`` scores through ``peek_block``.
    """
    from mdsearch.errors import ContractError

    candidate = np.asarray(candidate)
    if np.any(candidate == vocab.mask_id):
        raise ContractError("neighborhood requires a fully specified candidate")
    for pos in sorted(region.editable):
        for token in range(vocab.size):
            if token == candidate[pos]:
                continue
            edited = np.array(candidate)
            edited[pos] = token
            yield pos, token, edited


def refine_by_neighborhood(start, constraints, weights, vocab, region, max_rounds):
    """Greedy descent scoring every :func:`neighborhood` edit with
    ``aggregate_violation``: (candidate, report, rounds, history).

    Takes the first strictly least edit in (position, token) order while it
    strictly improves, for at most ``max_rounds`` rounds (``None``: no cap).
    Reference for ``refine``, whose weighted totals add the constraints in
    the same order.
    """
    from mdsearch.search import aggregate_violation

    current = np.array(start, dtype=np.int64)
    report = aggregate_violation(current, constraints, weights)
    history, rounds = [report.total], 0
    while report.total > 0 and (max_rounds is None or rounds < max_rounds):
        best = None
        for _, _, edited in neighborhood(current, vocab, region):
            edit_report = aggregate_violation(edited, constraints, weights)
            if best is None or edit_report.total < best[0].total:
                best = (edit_report, edited)
        if best is None or not best[0].total < report.total:
            break
        report, current = best
        history.append(report.total)
        rounds += 1
    return current, report, rounds, tuple(history)


def satisfying_assignments_by_chunks(formula) -> np.ndarray:
    """All satisfying assignments as a (K, n) array of 0/1 tokens.

    Exhaustive enumeration, capped at ``ENUM_VAR_CAP`` variables; evaluated
    in chunks to bound memory. Reference for the packed-word enumeration in
    ``sat.satisfying_assignments``.
    """
    from mdsearch.constraints.sat import ENUM_VAR_CAP
    from mdsearch.errors import ConfigError

    n = formula.num_vars
    if n > ENUM_VAR_CAP:
        raise ConfigError(f"enumeration capped at {ENUM_VAR_CAP} variables, got {n}")
    found = []
    chunk = 1 << 14
    for start in range(0, 1 << n, chunk):
        codes = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        assignments = (codes[:, None] >> np.arange(n)) & 1
        ok = np.ones(len(codes), dtype=bool)
        for clause in formula.clauses:
            clause_sat = np.zeros(len(codes), dtype=bool)
            for lit in clause:
                clause_sat |= assignments[:, abs(lit) - 1] == (1 if lit > 0 else 0)
            ok &= clause_sat
            if not ok.any():
                break
        if ok.any():
            found.append(assignments[ok])
    if not found:
        return np.empty((0, n), dtype=np.int64)
    return np.concatenate(found, axis=0)


def enumerate_posterior(support, observed, num_tokens) -> np.ndarray:
    """Brute-force conditional marginals; ``observed`` maps pos -> token.

    Each consistent support row counts once per copy; None when none is.
    """
    support = np.asarray(support)
    length = support.shape[1]
    counts = np.zeros((length, num_tokens), dtype=np.int64)
    n = 0
    for seq in support:
        if all(seq[pos] == tok for pos, tok in observed.items()):
            n += 1
            for i, tok in enumerate(seq):
                counts[i, tok] += 1
    if n == 0:
        return None
    return counts / n


def tv_distance(counts: dict, probs: dict, n: int) -> float:
    keys = set(counts) | set(probs)
    return 0.5 * sum(abs(counts.get(k, 0) / n - probs.get(k, 0.0)) for k in keys)


def pool_by_draw(draws, constraints, weights=None):
    """The pool pick by a per-draw ``aggregate_violation`` loop.

    Returns (index of the pick, its report, total of the first draw); the
    earliest draw wins ties. Reference for the batched ``best_of_pool``.
    """
    from mdsearch.search import aggregate_violation

    best, best_report, first_total = None, None, None
    for i, draw in enumerate(draws):
        report = aggregate_violation(draw, constraints, weights)
        if first_total is None:
            first_total = report.total
        if best_report is None or report.total < best_report.total:
            best, best_report = i, report
    return best, best_report, first_total


def posterior_by_position(support, values, num_tokens, mask_id):
    """Exact posterior rows built one position at a time with ``np.add.at``.

    Rows at masked positions count each token among the support rows
    consistent with the observed tokens and divide by how many rows are
    consistent, or are uniform when none is; observed positions are one-hot.
    Reference for the one-pass ``ExactPosteriorDenoiser.denoise``.
    """
    support, values = np.asarray(support), np.asarray(values)
    length = support.shape[1]
    observed = np.flatnonzero(values != mask_id)
    consistent = np.all(support[:, observed] == values[observed], axis=1)
    sub = support[consistent]
    if len(sub):
        counts = np.zeros((length, num_tokens), dtype=np.int64)
        for i in range(length):
            np.add.at(counts[i], sub[:, i], 1)
        rows = counts / len(sub)
    else:
        rows = np.full((length, num_tokens), 1.0 / num_tokens)
    rows[observed] = 0.0
    rows[observed, values[observed]] = 1.0
    return rows


def bernoulli_chain(denoiser, alphas, values, mask_id, rng):
    """The plain reverse chain run one step at a time.

    At step t each masked position commits with probability
    ``(alpha_{t-1} - alpha_t) / (1 - alpha_t)`` to a token drawn from the
    denoiser's row at that step. Returns the final sequence and the commit
    counts of steps T..1. Reference for the first-hitting chain in ``sample``.
    """
    x = np.array(values, dtype=np.int64)
    counts = []
    for t in range(len(alphas) - 1, 0, -1):
        masked = np.flatnonzero(x == mask_id)
        commit = (alphas[t - 1] - alphas[t]) / (1.0 - alphas[t])
        chosen = [p for p in masked if rng.random() < commit]
        if chosen:
            rows = denoiser.denoise(x, t)
            for p in chosen:
                x[p] = rng.choice(rows.shape[1], p=rows[p])
        counts.append(len(chosen))
    return x, tuple(counts)


def search_by_definition(rows, x_t, config, instance, rng):
    """One search step as the README defines it: the pool's pick, then
    greedy refinement unless the pick's total is 0, capped at
    ``config.max_rounds`` except under ``last_step``. Refinement edits the
    instance's region or, with ``config.allow_unmask_edits`` off, its
    positions still masked in ``x_t``.

    Returns (candidate, first draw's total, pick's total, refined total,
    rounds). Reference for the steps of ``sample`` where search runs.
    """
    from mdsearch.search import best_of_pool, refine
    from mdsearch.vocab import EditableRegion

    pick = best_of_pool(rows, x_t, config.candidates, instance.constraints,
                        config.weights, rng, instance.vocab.mask_id)
    pool = pick.report.total
    if pool == 0:
        return pick.candidate, pick.first_total, pool, pool, 0
    cap = None if config.placement == "last_step" else config.max_rounds
    region = instance.region
    if not config.allow_unmask_edits:
        region = EditableRegion(region.length, frozenset(
            p for p in region.editable if x_t[p] == instance.vocab.mask_id))
    result = refine(pick.candidate, instance.constraints, config.weights, instance.vocab,
                    region, cap)
    return result.candidate, pick.first_total, pool, result.report.total, result.rounds


def guided_chain(instance, denoiser, schedule, config, rng):
    """The search-every-step chain run one step at a time with a per-step coin.

    At step t search refines the denoiser's proposal; each position still
    masked then commits to the refined value with probability
    ``reverse_coeffs(t).commit_prob`` and keeps the mask otherwise, while
    unmasked positions adopt the refined value. The instance has no frozen
    positions, so the chain starts fully masked. Returns the final sequence
    and the commit counts of steps T..1. Reference for ``sample`` under
    ``all_steps``, which reads the unmask steps from one up-front draw.
    """
    from mdsearch.denoise import check_rows
    from mdsearch.diffusion import reverse_coeffs

    mask_id = instance.vocab.mask_id
    x = np.full(instance.length, mask_id, dtype=np.int64)
    counts = []
    for t in range(schedule.steps, 0, -1):
        rows = check_rows(denoiser.denoise(x, t), x, instance.vocab)
        refined = search_by_definition(rows, x, config, instance, rng)[0]
        commit = reverse_coeffs(t, schedule).commit_prob
        chosen = 0
        for p in range(instance.length):
            if x[p] == mask_id:
                if rng.random() >= commit:
                    continue
                chosen += 1
            x[p] = refined[p]
        counts.append(chosen)
    return x, tuple(counts)


def sample_rows_by_sum(rows, rng, count=None) -> np.ndarray:
    """Categorical draws by counting every cumulative sum at or below the
    uniform, capped at the last token.

    The same uniforms, in the same order, as ``diffusion.sample_rows``;
    reference for its draw from the transposed CDF.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cdf = np.cumsum(rows, axis=1)
    shape = rows.shape[0] if count is None else (count, rows.shape[0])
    u = rng.random(shape) * cdf[:, -1]
    idx = (cdf <= u[..., None]).sum(axis=-1)
    return np.minimum(idx, rows.shape[1] - 1).astype(np.int64)


def sample_by_step(instance, denoiser, schedule, config, rng, collect_masks=False):
    """``sample`` walked through every step, building a fresh record at each.

    Queries the denoiser, searches and commits at the same steps and in
    the same order as ``sample``: searches through
    :func:`search_by_definition` at every step under ``all_steps`` and at
    t=1 under ``last_step``, and commits plain steps through
    :func:`sample_rows_by_sum`. Reference for ``sample``, which jumps
    between the steps where something happens.
    """
    from mdsearch.denoise import check_rows
    from mdsearch.diffusion import first_hitting_steps
    from mdsearch.search import StepRecord, guided_reverse_step
    from mdsearch.vocab import fully_masked, masked_positions

    vocab = instance.vocab
    x = fully_masked(instance.region, vocab.mask_id, instance.frozen_values)
    masked = masked_positions(x, vocab.mask_id)
    hits = first_hitting_steps(schedule, masked.size, rng)
    order = masked[np.argsort(-hits, kind="stable")]
    counts = np.bincount(hits, minlength=schedule.steps + 1).tolist()
    done = 0
    records = []
    for t in range(schedule.steps, 0, -1):
        active = (config.placement == "all_steps"
                  or (config.placement == "last_step" and t == 1))
        first = pool = refined = None
        rounds, committed = 0, counts[t]
        if active or committed:
            rows = check_rows(denoiser.denoise(x, t), x, vocab)
        if active:
            candidate, first, pool, refined, rounds = search_by_definition(
                rows, x, config, instance, rng)
            x = guided_reverse_step(candidate, order[done + committed:], vocab.mask_id)
        elif committed:
            x = np.array(x, dtype=np.int64)
            committing = order[done:done + committed]
            x[committing] = sample_rows_by_sum(rows[committing], rng)
        done += committed
        masks = (tuple(int(p) for p in masked_positions(x, vocab.mask_id))
                 if collect_masks else None)
        records.append(StepRecord(t, first, pool, refined, rounds, committed, masks))
    return x, tuple(records)


def sudoku_cell_units(box) -> np.ndarray:
    """(3, cells) ids of each cell's row, column and box unit, from the
    definition: rows are units ``0..side-1``, columns the next ``side`` and
    boxes the last ``side``, in row-major box order."""
    side = box * box
    out = np.empty((3, side * side), dtype=np.int64)
    for cell in range(side * side):
        r, c = divmod(cell, side)
        out[:, cell] = (r, side + c, 2 * side + (r // box) * box + c // box)
    return out


def random_solution_by_backtracking(box, rng) -> np.ndarray:
    """Randomized row-major backtracking over numpy unit masks.

    Shuffles each cell's free tokens, listed in ascending order, with
    ``rng.shuffle``; reference for ``sudoku.random_solution``'s grids and
    for the generator state it leaves behind.
    """
    side = box * box
    cell_units = sudoku_cell_units(box)
    tokens = np.full(side * side, -1, dtype=np.int64)
    unit_used = np.zeros(3 * side, dtype=np.int64)

    def fill(index):
        if index == side * side:
            return True
        used = 0
        for ui in cell_units[:, index]:
            used |= unit_used[ui]
        options = [tok for tok in range(side) if not used & (1 << tok)]
        if not options:
            return False
        rng.shuffle(options)
        for tok in options:
            tokens[index] = tok
            for ui in cell_units[:, index]:
                unit_used[ui] |= 1 << tok
            if fill(index + 1):
                return True
            tokens[index] = -1
            for ui in cell_units[:, index]:
                unit_used[ui] &= ~(1 << tok)
        return False

    if not fill(0):
        raise RuntimeError("backtracking failed to build a full grid")
    return (tokens + 1).reshape(side, side)


def completions_by_backtracking(box, grid, limit) -> list:
    """Completions of a digit grid (0 blank) by most-constrained-cell
    backtracking over numpy unit masks, options counted with ``bin``.

    Scans blanks in ascending order, stops a branch at the first with no
    option, takes the first with one, else the first with the fewest, and
    tries its tokens in ascending order; reference for the order of
    ``sudoku.completions``.
    """
    side = box * box
    cell_units = sudoku_cell_units(box)
    tokens = np.asarray(grid, dtype=np.int64).ravel() - 1
    unit_used = np.zeros(3 * side, dtype=np.int64)
    for cell in range(side * side):
        if tokens[cell] >= 0:
            for ui in cell_units[:, cell]:
                unit_used[ui] |= 1 << int(tokens[cell])
    full = (1 << side) - 1
    blanks = [int(p) for p in np.flatnonzero(tokens < 0)]
    out = []

    def cell_options(pos):
        used = 0
        for ui in cell_units[:, pos]:
            used |= unit_used[ui]
        return full & ~used

    def recurse():
        if len(out) >= limit:
            return
        best_pos, best_opts, best_count = -1, 0, side + 1
        for pos in blanks:
            if tokens[pos] >= 0:
                continue
            opts = cell_options(pos)
            count = bin(opts).count("1")
            if count == 0:
                return
            if count < best_count:
                best_pos, best_opts, best_count = pos, opts, count
                if count == 1:
                    break
        if best_pos < 0:
            out.append(tokens.copy())
            return
        for tok in range(side):
            if not best_opts & (1 << tok):
                continue
            tokens[best_pos] = tok
            for ui in cell_units[:, best_pos]:
                unit_used[ui] |= 1 << tok
            recurse()
            tokens[best_pos] = -1
            for ui in cell_units[:, best_pos]:
                unit_used[ui] &= ~(1 << tok)
            if len(out) >= limit:
                return

    recurse()
    return out


def random_formula_by_draw(num_vars, num_clauses, rng, require_satisfiable=True):
    """``sat.random_formula`` one rejection draw at a time, each drawn clause
    by clause with ``choice`` and ``integers``: the reference for its batched
    draws, formulas and generator state alike.

    Satisfiability is the package's single-formula check, which the
    enumeration tests hold to :func:`satisfying_assignments_by_chunks`; that
    oracle takes about half a second per formula at 20 variables.
    """
    from mdsearch.constraints.sat import REJECTION_CAP, CnfFormula, is_satisfiable
    from mdsearch.errors import GenerationError

    for _ in range(REJECTION_CAP):
        clauses = []
        for _ in range(num_clauses):
            chosen = rng.choice(num_vars, size=3, replace=False) + 1
            signs = rng.integers(0, 2, size=3) * 2 - 1
            clauses.append(tuple(int(v * s) for v, s in zip(chosen, signs)))
        formula = CnfFormula(num_vars, tuple(clauses))
        if not require_satisfiable or is_satisfiable(formula):
            return formula
    raise GenerationError(f"no satisfiable formula after {REJECTION_CAP} draws")
