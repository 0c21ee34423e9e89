"""CNF clause evaluation, plus DIMACS io.

Assignments are token arrays over the binary alphabet: token 1 means true.
Variable ``v`` (1-based, as in DIMACS) corresponds to position ``v - 1``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain

import numpy as np

from ..errors import ConfigError, GenerationError, ParseError, check_count, read_text
from ..vocab import Vocab
from .base import Constraint

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
        if not (isinstance(self.clauses, tuple)
                and all(issubclass(t, tuple) for t in set(map(type, self.clauses)))):
            raise ConfigError(f"clauses {self.clauses!r} must be a tuple of tuples")
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
        :func:`satisfying_assignments` from the formula's truth table
        (:func:`_satisfying_words`).

        The formula keeps the K codes rather than the 2^n / 8 bytes of words,
        which at 20 variables are 128 KiB.
        """
        return _codes_of(_satisfying_words(self.num_vars, self._literals))


class ClauseViolations(Constraint):
    """Number of clauses with every literal false. Refinement scores it
    through :class:`Constraint`'s default tracker hooks."""

    name = "clauses"
    alphabet = 2

    def __init__(self, formula: CnfFormula):
        self.length = formula.num_vars
        # (clauses, width) variable position and polarity of each padded literal
        self._var_pos = np.abs(formula._literals) - 1
        self._polarity = (formula._literals > 0).astype(np.int64)

    def _violations(self, values):
        """Clauses whose literals are all false, which a pad (a repeat of its
        clause's first literal) does not change. One gather through the
        transposed literal table, a view, gives each literal slot's
        (M, clauses) falsities; one AND across the slots marks the violated
        clauses."""
        false = values[:, self._var_pos.T] != self._polarity.T
        violated = np.logical_and.reduce(false, axis=1)
        return np.add.reduce(violated, axis=1, dtype=np.float64)


# Truth tables of variables 0..5 inside one 64-bit word: bit c of word v is
# bit v of code c.
_WORD_BITS = 6
_IN_WORD = np.array([sum(1 << c for c in range(64) if c >> v & 1)
                     for v in range(_WORD_BITS)], dtype=np.uint64)
# Words gathered per block of clauses: the whole formula at 7 variables,
# one clause at 20, so a block stays in cache and an unsatisfiable formula
# stops after few blocks.
_BLOCK_WORDS = 1 << 15
# Rejection draws that random_formula reads and decodes together.
_BATCH_DRAWS = 6
_NO_CODES = np.empty(0, dtype=np.int64)
_NO_CODES.flags.writeable = False


def _variable_rows(num_vars: int, words: np.ndarray) -> np.ndarray:
    """The (n, len(words)) variable table over the uint64 word indices
    ``words``: row ``v`` holds variable ``v + 1``'s truth in each word. The
    low 6 rows are the ``_IN_WORD`` constants; variable v >= 6 is constant
    within a word, so its row is bit v-6 of the word index negated into an
    all-ones or all-zeros word."""
    table = np.empty((num_vars, len(words)), dtype=np.uint64)
    table[:_WORD_BITS] = _IN_WORD[:num_vars, None]
    high = table[_WORD_BITS:]
    np.right_shift(words, np.arange(len(high), dtype=np.uint64)[:, None], out=high)
    high &= np.uint64(1)
    np.negative(high, out=high)
    return table


@lru_cache(maxsize=ENUM_VAR_CAP)
def _all_word_rows(num_vars: int) -> np.ndarray:
    """The read-only :func:`_variable_rows` table over every word index,
    built once per variable count."""
    rows = _variable_rows(num_vars, np.arange(1 << max(num_vars - _WORD_BITS, 0),
                                              dtype=np.uint64))
    rows.flags.writeable = False
    return rows


def _clauses_hold(table: np.ndarray, literals: np.ndarray) -> np.ndarray:
    """AND over the clauses of the padded (clauses, width) int64 ``literals``
    of the OR of their literals' rows of the variable table ``table``."""
    slots = literals.T  # a view, so that both reductions run over the leading axis
    rows = table[np.abs(slots) - 1]
    rows ^= (slots >> 63).view(np.uint64)[..., None]  # all ones at a negative literal
    return np.bitwise_and.reduce(np.bitwise_or.reduce(rows, axis=0), axis=0)


def _satisfying_words(num_vars: int, literals: np.ndarray) -> np.ndarray:
    """Truth table of one formula over all 2^n codes, packed into uint64 words.

    ``literals`` is the formula's (clauses, width) padded literal table over
    ``num_vars`` variables; it is left unchanged. In the (2^n / 64,) result,
    bit ``c % 64`` of word ``c // 64`` is set when assignment ``c`` (bit
    ``v`` of ``c`` is variable ``v + 1``) satisfies every clause; bits at and
    above ``2^n`` are clear.

    A formula that fits one block of ``_BLOCK_WORDS`` gathered words is
    evaluated in one gather over the variable table of every word
    (:func:`_all_word_rows`). A larger one is evaluated on a frontier of
    live word indices, over a copy of its clauses stable-sorted by level:
    the word-index bits a clause reads, its top variable less 6 (at least
    0). The frontier starts as word 0 over 0 bits. Each block widens it
    (``words | e << bits``, still ascending) to the highest level whose
    clauses fit one block over the widened words, or to the next clause's
    level with as many clauses as fit; evaluates those clauses over the
    frontier's :func:`_variable_rows`; and once at most half its words hold
    a code, drops the dead ones. A dropped word fails some clause whatever
    its higher bits, so scattering the live words over every word sharing
    their low bits gives the words of the plain evaluation.
    """
    n = num_vars
    if n > ENUM_VAR_CAP:
        raise ConfigError(f"enumeration capped at {ENUM_VAR_CAP} variables, got {n}")
    num_words = 1 << max(n - _WORD_BITS, 0)
    num_clauses, width = literals.shape
    # below 6 variables the one word is partial: only its low 2^n bits are codes
    codes = np.uint64((1 << min(1 << n, 64)) - 1)
    if num_clauses * width * num_words <= _BLOCK_WORDS:
        return codes & _clauses_hold(_all_word_rows(n), literals)
    levels = np.maximum(np.abs(literals).max(axis=1) - _WORD_BITS, 0)
    clauses, levels = literals[np.argsort(levels, kind="stable")], sorted(levels.tolist())
    words, ok, bits, table, start = np.zeros(1, np.uint64), np.array([codes]), 0, None, 0
    while start < num_clauses:
        top, stop, end = max(levels[start], bits), start, start
        while end < num_clauses:
            level, end = levels[end], bisect_right(levels, levels[end], end)
            if (end - start) * width * len(words) << max(level - bits, 0) > _BLOCK_WORDS:
                break
            top, stop = max(level, bits), end
        if stop == start:
            stop += max(_BLOCK_WORDS // (width * len(words) << top - bits), 1)
        if top > bits:
            high = np.arange(1 << top - bits, dtype=np.uint64)[:, None] << np.uint64(bits)
            words, ok, bits, table = (high | words).ravel(), np.tile(ok, len(high)), top, None
        if table is None:
            table = _variable_rows(min(n, _WORD_BITS + bits), words)
        ok &= _clauses_hold(table, clauses[start:stop])
        start, held = stop, np.count_nonzero(ok)
        if held == 0:
            return np.zeros(num_words, dtype=np.uint64)
        if 2 * held <= len(words):
            live = np.flatnonzero(ok)
            words, ok, table = words[live], ok[live], None
    if len(words) == num_words:
        return ok
    full = np.zeros(num_words, dtype=np.uint64)
    full.reshape(-1, 1 << bits)[:, words] = ok
    return full


def _codes_of(words: np.ndarray) -> np.ndarray:
    """Read-only ascending codes of the set bits of one truth table from
    :func:`_satisfying_words`; only the words that hold a code are unpacked.
    The codes are a new array, sharing no memory with ``words``."""
    if not words.any():  # most rejection draws: skip the unpacking
        return _NO_CODES
    hit = np.flatnonzero(words)
    bits = np.unpackbits(words[hit].astype("<u8", copy=False).view(np.uint8),
                         bitorder="little")
    word, bit = np.nonzero(bits.reshape(-1, 64))
    codes = hit[word] << _WORD_BITS | bit
    codes.flags.writeable = False
    return codes


def satisfying_assignments(formula: CnfFormula) -> np.ndarray:
    """All satisfying assignments as an int64 (K, n) array of 0/1 tokens.

    Exhaustive enumeration, capped at ``ENUM_VAR_CAP`` variables, over packed
    truth tables with one bit per code (2^n / 8 bytes per variable), clauses
    evaluated in blocks (:func:`_satisfying_words`). A formula that spans
    more than one block grows a frontier of live words one clause level at
    a time, which leaves the result unchanged. The satisfying codes are
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

    The draw :func:`random_formula` makes where :func:`_decode_draws` stops
    before a draw, and the reference the tests hold the decode to.
    """
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.choice(num_vars, size=3, replace=False) + 1
        signs = rng.integers(0, 2, size=3) * 2 - 1
        clauses.append(tuple(int(v * s) for v, s in zip(chosen, signs)))
    return CnfFormula(num_vars, tuple(clauses))


def _clause_bounds(num_vars: int) -> np.ndarray:
    """Bounds of the 32-bit draws one clause of :func:`_loop_draw` reads, in
    its order: Floyd's algorithm (the first draw is skipped at n=3), the
    shuffle of the three picks, and one word per sign."""
    floyd = [num_vars - 1, num_vars] if num_vars == 3 else [
        num_vars - 2, num_vars - 1, num_vars]
    return np.array(floyd + [3, 2, 2, 2, 2], dtype=np.uint64)


def _decode_draws(num_vars: int, num_clauses: int, words: np.ndarray) -> np.ndarray:
    """Consecutive :func:`_loop_draw` draws, decoded from the 32-bit words the
    loop reads for them: a (k * clauses, 8) uint32 array (7 columns at n=3),
    a clause per row, in the loop's order (:func:`_clause_bounds`).

    ``choice(n, 3, replace=False)`` is Floyd's algorithm over Lemire-bounded
    32-bit draws with bounds n-2, n-1 and n (the first draws nothing at
    n=3), then a shuffle of the three picks with bounds 3 and 2; each sign is
    the top bit of one more 32-bit draw. One vectorized decode turns the
    words of all k draws into literals.

    Returns the (k', clauses, 3) int64 literal tables of the draws before the
    first one where the loop would read other words: where Lemire's method
    might reject a draw (the low half of ``word * bound`` below the bound),
    and from 2^32 variables on, where ``choice`` draws 64-bit words (k'=0).
    It reads no generator: :func:`random_formula` reads the words and
    rewinds its generator to the draws used.
    """
    if num_vars >= 1 << 32:
        return np.empty((0, num_clauses, 3), dtype=np.int64)
    bounds = _clause_bounds(num_vars)
    scaled = words * bounds
    risky = ((scaled & np.uint64(0xFFFFFFFF)) < bounds).reshape(
        -1, num_clauses * len(bounds)).any(axis=1)
    if risky.any():
        usable = int(risky.argmax()) * num_clauses
        words, scaled = words[:usable], scaled[:usable]
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
    return literals.reshape(-1, num_clauses, 3)


def _drawn_formula(num_vars: int, literals: np.ndarray) -> CnfFormula:
    """The formula of one row of a :func:`_decode_draws` batch, validated as any
    other. Its literal table is cached from a read-only copy, so the formula
    keeps no batch array alive."""
    formula = CnfFormula(num_vars, tuple(map(tuple, literals.tolist())))
    table = literals.copy()
    table.flags.writeable = False
    formula.__dict__["_literals"] = table
    return formula


def random_formula(num_vars: int, num_clauses: int, rng: np.random.Generator,
                   require_satisfiable: bool = True) -> CnfFormula:
    """Uniform random 3-CNF with distinct variables per clause.

    With ``require_satisfiable`` the draw is rejection-sampled against an
    exhaustive satisfiability check over packed truth tables (hence the
    variable cap); at 45 clauses over 7 variables most draws are
    unsatisfiable, so expect several rejections per instance.

    The rejection draws are made in batches of ``_BATCH_DRAWS`` (one draw
    without ``require_satisfiable``). This is the one function here that
    handles the generator's state. Per batch it saves the state, reads the
    batch's 32-bit words in one call and decodes them into literal tables
    (:func:`_decode_draws`). The draws are then taken in order, each a
    validated formula passed on its own to :func:`is_satisfiable`, so only
    the draws checked are truth-tabled. If fewer draws were used than read,
    because one was accepted or the decode stopped early, the state is
    restored once and only the used draws' words are read again. Where the
    decode stopped early, the next draw is made by the per-clause
    ``choice``/``integers`` loop (:func:`_loop_draw`).
    So, as the tests check on the installed numpy, the formula and the
    generator state after the call are those of that loop run once per
    rejection draw. The accepted formula's satisfying codes are cached on
    it, so :func:`satisfying_assignments` on the result evaluates no clause.
    """
    check_count(num_vars, "variable count", 3,  # 3-CNF, and the check enumerates
                ENUM_VAR_CAP + 1 if require_satisfiable else None)
    check_count(num_clauses, "clause count", 1)
    batch = _BATCH_DRAWS if require_satisfiable else 1
    width = len(_clause_bounds(num_vars))
    draws = 0
    while draws < REJECTION_CAP:
        count = min(batch, REJECTION_CAP - draws)
        state = rng.bit_generator.state
        literals = _decode_draws(num_vars, num_clauses, rng.integers(
            0, 1 << 32, size=(count * num_clauses, width), dtype=np.uint32))
        used = 0
        for table in literals:
            formula = _drawn_formula(num_vars, table)
            used += 1
            if not require_satisfiable or is_satisfiable(formula):
                break
        else:
            formula = None
        draws += used
        if used < count:
            rng.bit_generator.state = state
            rng.integers(0, 1 << 32, size=used * num_clauses * width, dtype=np.uint32)
        if formula is not None:
            return formula
        if used < count:  # the decode stopped before a risky draw
            formula = _loop_draw(num_vars, num_clauses, rng)
            draws += 1
            if not require_satisfiable or is_satisfiable(formula):
                return formula
    raise GenerationError(
        f"no satisfiable formula after {REJECTION_CAP} draws "
        f"(clause/variable ratio {num_clauses / num_vars:.1f})")


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF: one ``p cnf n m`` header (both counts at least 1),
    zero-terminated clauses. Lines split on ``"\\n"`` alone, so a form feed
    in a comment neither ends it nor renumbers a :class:`ParseError`."""
    num_vars = num_clauses = None
    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"second header {line!r}", line_no)
            fields = line.split()
            if len(fields) != 4 or fields[:2] != ["p", "cnf"]:
                raise ParseError(f"bad header {line!r}", line_no)
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise ParseError(f"bad header counts in {line!r}", line_no) from None
            if num_vars < 1 or num_clauses < 1:
                raise ParseError(f"header counts below 1 in {line!r}", line_no)
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
    """The formula in DIMACS file ``path``; an unreadable file is a :class:`ConfigError`."""
    return parse_dimacs(read_text(path, "instances"))


def render_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    lines += [" ".join(str(lit) for lit in clause) + " 0" for clause in formula.clauses]
    return "\n".join(lines) + "\n"
