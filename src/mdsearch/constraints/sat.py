"""CNF clause evaluation with vectorized flip deltas, plus DIMACS io.

Assignments are token arrays over the binary alphabet: token 1 means true.
Variable ``v`` (1-based, as in DIMACS) corresponds to position ``v - 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from ..errors import ConfigError, GenerationError, ParseError, check_count
from ..vocab import Vocab
from .base import Constraint, ViolationTracker

ENUM_VAR_CAP = 20
REJECTION_CAP = 1000


def assignment_vocab() -> Vocab:
    return Vocab(("0", "1"))


@dataclass(frozen=True)
class CnfFormula:
    """CNF over ``num_vars`` variables; literals are signed 1-based indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_count(self.num_vars, "variable count", 1)
        if not self.clauses:
            raise ConfigError("formula needs at least one clause")
        if not all(self.clauses):
            raise ConfigError("clauses must be non-empty")
        literals = list(chain.from_iterable(self.clauses))
        n = self.num_vars
        if not (all(t is int or issubclass(t, np.integer) for t in set(map(type, literals)))
                and -n <= min(literals) and max(literals) <= n and 0 not in literals):
            raise ConfigError(f"literals must be nonzero integers in -{n}..{n}")

    @cached_property
    def _literals(self) -> np.ndarray:
        """Read-only (clauses, width) int64 table of the literals: each clause
        is padded to the widest by repeating its first literal, which leaves
        its truth under every assignment unchanged."""
        width = max(map(len, self.clauses))
        table = np.array([c + c[:1] * (width - len(c)) for c in self.clauses],
                         dtype=np.int64)
        table.flags.writeable = False
        return table

    @cached_property
    def _codes(self) -> np.ndarray:
        """Read-only ascending codes of the satisfying assignments, evaluated
        once per formula for :func:`is_satisfiable` and
        :func:`satisfying_assignments`.

        Only the words of :func:`_satisfying_words` that hold a satisfying
        code are unpacked. The formula keeps the K codes rather than the
        2^n / 8 bytes of words, which at 20 variables are 128 KiB.
        """
        words = _satisfying_words(self)
        hit = np.flatnonzero(words)
        bits = np.unpackbits(words[hit].astype("<u8", copy=False).view(np.uint8),
                             bitorder="little")
        word, bit = np.nonzero(bits.reshape(-1, 64))
        codes = hit[word] << _WORD_BITS | bit
        codes.flags.writeable = False
        return codes


class ClauseViolations(Constraint):
    """Number of clauses with every literal false."""

    name = "clauses"
    alphabet = 2

    def __init__(self, formula: CnfFormula):
        self.formula = formula
        self.length = formula.num_vars
        # (clauses, width) variable position and polarity of each padded literal
        self._var_pos = np.abs(formula._literals) - 1
        self._polarity = (formula._literals > 0).astype(np.int64)

    @cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(pair of each padded literal, variable, clause) over distinct
        (variable, clause) pairs, so that a variable occurring twice in one
        clause changes that clause's count once per flip."""
        m = len(self._var_pos)
        keys = self._var_pos * m + np.arange(m)[:, None]
        pairs, pair_of_lit = np.unique(keys.ravel(), return_inverse=True)
        return (pair_of_lit, *np.divmod(pairs, m))

    def true_literal_counts(self, values) -> np.ndarray:
        """Per-clause true-literal counts (..., clauses) of checked (..., n) tokens.

        Counted over the padded table, so a pad counts its clause's first
        literal again. A count is zero exactly when its clause is false, and
        flip deltas are taken over the same padded literals, so violations,
        tracker values and tracker deltas are those of the unpadded clauses.
        """
        return (values[..., self._var_pos] == self._polarity).sum(axis=-1)

    def _violations(self, values):
        return (self.true_literal_counts(values) == 0).sum(axis=1).astype(np.float64)

    def tracker(self, values):
        return ClauseTracker(self, values)


class ClauseTracker(ViolationTracker):
    """Caches per-clause true-literal counts; ``peek_block`` derives every
    variable's flip delta from them at once."""

    def _rebuild(self, values):
        self.counts = self.constraint.true_literal_counts(values)
        return int((self.counts == 0).sum())

    def _peek_block(self, positions, num_tokens):
        """Flip deltas of all variables from one bincount over literal deltas."""
        ev = self.constraint
        pair_of_lit, pair_var, pair_clause = ev._pairs
        lit_delta = np.where(self.values[ev._var_pos] == ev._polarity, -1, 1).ravel()
        pair_delta = np.bincount(pair_of_lit, weights=lit_delta, minlength=len(pair_var))
        before = self.counts[pair_clause]
        change = (before + pair_delta == 0).astype(np.int64) - (before == 0)
        flip = np.bincount(pair_var, weights=change, minlength=len(self.values))
        out = np.full((positions.size, 2), float(self._value))
        out[np.arange(positions.size), 1 - self.values[positions]] += flip[positions]
        return out


# Truth tables of variables 0..5 inside one 64-bit word: bit c of word v is
# bit v of code c.
_WORD_BITS = 6
_IN_WORD = np.array([sum(1 << c for c in range(64) if c >> v & 1)
                     for v in range(_WORD_BITS)], dtype=np.uint64)
# Words gathered per block of clauses: the whole formula at 7 variables,
# one clause at 20, so a block stays in cache and an unsatisfiable formula
# stops after few blocks.
_BLOCK_WORDS = 1 << 15


def _satisfying_words(formula: CnfFormula) -> np.ndarray:
    """Truth table of the formula over all 2^n codes, packed into uint64 words.

    Bit ``c % 64`` of word ``c // 64`` is set when assignment ``c`` (bit ``v``
    of ``c`` is variable ``v + 1``) satisfies every clause; bits at and above
    ``2^n`` are clear.

    Clauses are evaluated in blocks of about ``_BLOCK_WORDS`` gathered words:
    each clause, a row of the formula's padded literal table, gathers its
    variables' rows of the (n, words) variable table, flips the negated
    ones, ORs them, and the block's clauses are ANDed into the result. The
    evaluation stops after the first block that leaves no code satisfying.
    """
    n = formula.num_vars
    if n > ENUM_VAR_CAP:
        raise ConfigError(f"enumeration capped at {ENUM_VAR_CAP} variables, got {n}")
    num_words = 1 << max(n - _WORD_BITS, 0)
    table = np.empty((n, num_words), dtype=np.uint64)
    table[:_WORD_BITS] = _IN_WORD[:n, None]
    # variable v >= 6 is constant within a word: negating bit v-6 of the
    # word index gives an all-ones or all-zeros word
    high = table[_WORD_BITS:]
    np.right_shift(np.arange(num_words, dtype=np.uint64),
                   np.arange(len(high), dtype=np.uint64)[:, None], out=high)
    high &= np.uint64(1)
    np.negative(high, out=high)
    literals = formula._literals
    width = literals.shape[1]
    variables = np.abs(literals) - 1
    flips = np.negative((literals < 0).astype(np.uint64))[..., None]
    # below 6 variables the one word is partial: only its low 2^n bits are codes
    ok = np.full(num_words, np.uint64((1 << min(1 << n, 64)) - 1))
    step = max(_BLOCK_WORDS // (width * num_words), 1)
    for start in range(0, len(literals), step):
        rows = table[variables[start:start + step]]
        rows ^= flips[start:start + step]
        ok &= np.bitwise_and.reduce(np.bitwise_or.reduce(rows, axis=1), axis=0)
        if not ok.any():
            break
    return ok


def satisfying_assignments(formula: CnfFormula) -> np.ndarray:
    """All satisfying assignments as an int64 (K, n) array of 0/1 tokens.

    Exhaustive enumeration, capped at ``ENUM_VAR_CAP`` variables, over packed
    truth tables with one bit per code (2^n / 8 bytes per variable), clauses
    evaluated in blocks (:func:`_satisfying_words`). The satisfying codes are
    computed once per formula and cached on it, so enumerating a formula that
    :func:`is_satisfiable` has checked evaluates no clause. The rows come out
    in ascending code order, variable 1 being the lowest bit of the code.
    """
    codes = formula._codes
    return (codes[:, None] >> np.arange(formula.num_vars, dtype=np.int64)) & 1


def is_satisfiable(formula: CnfFormula) -> bool:
    """Whether any assignment satisfies the formula; fills the formula's
    cached satisfying codes (see :func:`satisfying_assignments`)."""
    return formula._codes.size > 0


def _loop_draw(num_vars: int, num_clauses: int, rng: np.random.Generator) -> CnfFormula:
    """One random 3-CNF, drawn clause by clause with ``choice`` and ``integers``.

    The draw :func:`random_formula` makes where :func:`_block_draw` returns
    ``None``, and the reference the tests hold the block draw to.
    """
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(chosen, signs)))
    return CnfFormula(num_vars, tuple(clauses))


def _block_draw(num_vars: int, num_clauses: int,
                rng: np.random.Generator) -> CnfFormula | None:
    """:func:`_loop_draw` from one block of 32-bit generator output.

    ``choice(n, 3, replace=False)`` is Floyd's algorithm over Lemire-bounded
    32-bit draws with bounds n-2, n-1 and n (the first draws nothing at
    n=3), then a shuffle of the three picks with bounds 3 and 2; each sign is
    the top bit of one more 32-bit draw. A clause thus reads 8 words, or 7 at
    n=3, in the loop's order. Where the loop would read other words, ``None``
    is returned with the generator as it was: where Lemire's method might
    reject a draw (the low half of ``word * bound`` below the bound), and
    from 2^32 variables on, where ``choice`` draws 64-bit words.
    """
    if num_vars >= 1 << 32:
        return None
    floyd_bounds = [num_vars - 1, num_vars] if num_vars == 3 else [
        num_vars - 2, num_vars - 1, num_vars]
    bounds = np.array(floyd_bounds + [3, 2, 2, 2, 2], dtype=np.uint64)
    state = rng.bit_generator.state
    words = rng.integers(0, 1 << 32, size=(max(num_clauses, 0), len(bounds)),
                         dtype=np.uint32)
    scaled = words * bounds
    if ((scaled & np.uint64(0xFFFFFFFF)) < bounds).any():
        rng.bit_generator.state = state
        return None
    *picks, swap2, swap1 = (scaled[:, :-3] >> np.uint64(32)).astype(np.int64).T
    if num_vars == 3:
        picks.insert(0, 0)
    first, second, third = picks
    # Floyd: a pick already taken is replaced by the step's upper end
    second = np.where(second == first, num_vars - 2, second)
    third = np.where((third == first) | (third == second), num_vars - 1, third)
    # shuffle: swap slot 2 with slot swap2, then slot 1 with slot swap1
    first, second, third = (np.where(swap2 == 0, third, first),
                            np.where(swap2 == 1, third, second),
                            np.choose(swap2, (first, second, third)))
    first, second = (np.where(swap1 == 0, second, first),
                     np.where(swap1 == 0, first, second))
    signs = 2 * (words[:, -3:] >> np.uint32(31)).astype(np.int64) - 1
    literals = (np.stack([first, second, third], axis=1) + 1) * signs
    return CnfFormula(num_vars, tuple(map(tuple, literals.tolist())))


def random_formula(num_vars: int, num_clauses: int, rng: np.random.Generator,
                   require_satisfiable: bool = True) -> CnfFormula:
    """Uniform random 3-CNF with distinct variables per clause.

    Each draw takes all its clauses from one block of 32-bit generator output
    (:func:`_block_draw`). As the tests check on the installed numpy, that
    gives the same formula, and leaves the generator in the same state, as
    the per-clause ``choice``/``integers`` loop (:func:`_loop_draw`), which
    runs only where the block draw returns ``None``: where a bounded draw
    might be rejected, and from 2^32 variables on.

    With ``require_satisfiable`` the draw is rejection-sampled against an
    exhaustive satisfiability check over packed truth tables (hence the
    variable cap), which evaluates the clauses in blocks; at 45 clauses over
    7 variables most draws are unsatisfiable, so expect several rejections
    per instance. The check caches the accepted formula's satisfying codes on
    it, so :func:`satisfying_assignments` on the result evaluates no clause.
    """
    check_count(num_vars, "variable count", 3,  # 3-CNF, and the check enumerates
                ENUM_VAR_CAP + 1 if require_satisfiable else None)
    check_count(num_clauses, "clause count", 1)
    for _ in range(REJECTION_CAP):
        formula = _block_draw(num_vars, num_clauses, rng)
        if formula is None:
            formula = _loop_draw(num_vars, num_clauses, rng)
        if not require_satisfiable or is_satisfiable(formula):
            return formula
    raise GenerationError(
        f"no satisfiable formula after {REJECTION_CAP} draws "
        f"(clause/variable ratio {num_clauses / num_vars:.1f})")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: ``p cnf n m`` header, zero-terminated clauses."""
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError(f"bad header {line!r}", line_no)
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"bad header counts in {line!r}", line_no) from None
            continue
        if num_vars is None:
            raise ParseError("clause before 'p cnf' header", line_no)
        if line == "0" and not current:
            continue
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ParseError(f"bad literal {tok!r}", line_no) from None
            if lit == 0:
                if current:
                    clauses.append(tuple(current))
                    current = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} exceeds variable count", line_no)
                current.append(lit)
    if current:
        clauses.append(tuple(current))
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if num_clauses is not None and len(clauses) != num_clauses:
        raise ParseError(
            f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def load_dimacs(path) -> CnfFormula:
    with open(path, encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


def render_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in formula.clauses]
    return "\n".join(lines) + "\n"
