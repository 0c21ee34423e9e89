"""Malformed arguments at the public entry points raise the package's errors.

Every name in ``mdsearch.__all__`` and each harness entry point is called
with counts that are negative, fractional, bool, None, text or non-finite,
with token arrays of another dtype or shape (one or two dimensions), and
with non-finite floats, next to well-formed values. A call may succeed;
when it raises, the error is one of the classes in ``mdsearch.errors``,
never a numpy or Python error from inside the package.
"""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mdsearch as m
from mdsearch.constraints.sat import CnfFormula
from mdsearch.constraints.sudoku import SudokuBoard, completions
from mdsearch.errors import (ConfigError, ContractError, GenerationError, ParseError,
                             SampleError)
from mdsearch.harness import (RunConfig, ablate, build_instance, instance_rng,
                              parse_config, random_formula, random_puzzle, sample_rng)
from mdsearch.harness.configio import TASKS, _FILE_FIELDS

PACKAGE_ERRORS = (ConfigError, ContractError, GenerationError, ParseError, SampleError)
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

BITS = m.Vocab(("0", "1"))  # mask id 2
FORMULA = CnfFormula(3, ((1, 2), (-1, 2), (2, 3)))
SAT = m.sat_instance(FORMULA)
DIST = m.exact_distribution(SAT)
SCHEDULE = m.linear_schedule(4)
CONSTRAINTS = SAT.constraints

# small integers only: a huge valid count would allocate, not fail
COUNTS = st.one_of(st.integers(-3, 4), st.sampled_from(
    [2.5, 3.0, np.float64(2.0), True, False, np.True_, None, "3", math.nan, math.inf]))
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)
DTYPES = st.sampled_from([np.int64, np.int32, np.uint8, np.float64, np.bool_])


def tokens(length=3, high=2):
    """Well-formed token arrays, or any dtype and shape with any entries."""
    return st.one_of(hnp.arrays(np.int64, length, elements=st.integers(0, high)),
                     hnp.arrays(DTYPES, SHAPES))


def rows(length=3):
    """Denoiser rows: uniform, or any float entries, NaN and inf included."""
    return st.one_of(st.just(np.full((length, 2), 0.5)),
                     hnp.arrays(np.float64, st.sampled_from([(length, 2), (2, 2), (length,)])))


def weights():
    return st.none() | st.lists(FLOATS, max_size=2).map(tuple)


def rng():
    return np.random.default_rng(0)


class Drawn(m.Denoiser):
    """Returns the rows it was given, whatever the query."""

    def __init__(self, out):
        super().__init__(BITS)
        self.out = out

    def denoise(self, values, t):
        return self.out


def _denoisers(draw):
    kind = draw(st.sampled_from(["uniform", "exact", "table", "corrupt"]))
    den = {"uniform": lambda: m.UniformDenoiser(BITS),
           "exact": lambda: m.ExactPosteriorDenoiser(DIST, BITS),
           "table": lambda: m.TableDenoiser(BITS, {}),
           "corrupt": lambda: m.corrupt(m.UniformDenoiser(BITS), draw(FLOATS))}[kind]()
    den.denoise(draw(tokens()), draw(COUNTS))


def _sample(draw):
    config = m.SearchConfig(candidates=2, max_rounds=2,
                            placement=draw(st.sampled_from(["off", "all_steps"])))
    m.sample(SAT, Drawn(draw(rows())), SCHEDULE, config, rng())


def _refine(draw):
    m.refine(draw(tokens()), CONSTRAINTS, draw(weights()), BITS, SAT.region,
             draw(COUNTS | st.none()), allow_unmask_edits=draw(st.booleans()),
             x_t=draw(tokens()))


def _region(draw):
    length = draw(COUNTS)
    if draw(st.booleans()):
        m.EditableRegion.all_editable(length)
    else:
        m.EditableRegion.with_frozen(length, draw(st.sets(st.integers(-2, 5), max_size=3)))


def _vocab(draw):
    BITS.render(draw(tokens()))
    BITS.parse(draw(st.text(max_size=5)))


def _fully_masked(draw):
    region = m.EditableRegion.with_frozen(3, {0})
    m.fully_masked(region, BITS.mask_id, draw(tokens() | st.none()))


ENTRIES = {
    "DataDistribution": lambda draw: m.DataDistribution(
        draw(hnp.arrays(DTYPES, SHAPES)), draw(st.none() | hnp.arrays(np.float64, SHAPES))),
    "Denoiser": _denoisers,
    "ExactPosteriorDenoiser": _denoisers,
    "TableDenoiser": _denoisers,
    "UniformDenoiser": _denoisers,
    "corrupt": _denoisers,
    "exact_posterior": lambda draw: m.exact_posterior(DIST, draw(tokens()), BITS),
    "NoiseSchedule": lambda draw: m.NoiseSchedule(tuple(draw(st.lists(FLOATS, max_size=4)))),
    "first_hitting_steps": lambda draw: m.first_hitting_steps(SCHEDULE, draw(COUNTS), rng()),
    "guided_reverse_step": lambda draw: m.guided_reverse_step(
        draw(tokens()), draw(tokens()), BITS.mask_id),
    "linear_schedule": lambda draw: m.linear_schedule(draw(COUNTS)),
    "reverse_coeffs": lambda draw: m.reverse_coeffs(draw(COUNTS), SCHEDULE),
    "vanilla_reverse_step": lambda draw: m.vanilla_reverse_step(
        draw(tokens()), draw(rows()), draw(tokens()), rng()),
    "SearchConfig": lambda draw: m.SearchConfig(
        candidates=draw(COUNTS), max_rounds=draw(COUNTS), weights=draw(weights())),
    "aggregate_violation": lambda draw: m.aggregate_violation(
        draw(tokens()), CONSTRAINTS, draw(weights())),
    "best_of_pool": lambda draw: m.best_of_pool(
        draw(rows()), draw(tokens()), draw(COUNTS), CONSTRAINTS, draw(weights()), rng(),
        BITS.mask_id),
    "proposal_draws": lambda draw: m.proposal_draws(
        draw(rows()), draw(tokens()), draw(COUNTS), rng(), BITS.mask_id),
    "refine": _refine,
    "sample": _sample,
    "search_step": lambda draw: m.search_step(
        draw(rows()), draw(tokens()), m.SearchConfig(candidates=2, max_rounds=2), SAT, rng()),
    "build_denoiser": lambda draw: m.build_denoiser(
        SAT, draw(st.sampled_from(["exact", "noisy", "uniform"])), draw(FLOATS)),
    "peptide_instance": lambda draw: m.peptide_instance(slots=draw(COUNTS)),
    "sat_instance": lambda draw: m.sat_instance(CnfFormula(draw(COUNTS), ((1, -2),))),
    "sudoku_instance": lambda draw: m.sudoku_instance(SudokuBoard(
        draw(COUNTS), draw(hnp.arrays(DTYPES, st.sampled_from([(4, 4), (4,), (3, 3)]))))),
    "EditableRegion": _region,
    "Vocab": _vocab,
    "fully_masked": _fully_masked,
    "masked_positions": lambda draw: m.masked_positions(draw(tokens()), BITS.mask_id),
}
# no count, array or float argument to malform: plain records, and functions
# of a built instance or of a file (the file readers have their own tests)
NO_MALFORMED_ARGUMENT = {"ReverseCoeffs", "StepRecord", "Instance", "exact_distribution",
                         "load_table"}

HARNESS = {
    "RunConfig": lambda draw: RunConfig(**{draw(st.sampled_from(
        [f.name for f in fields(RunConfig) if f.type == "int"])): draw(COUNTS)}),
    "build_instance": lambda draw: build_instance(
        RunConfig(task=draw(st.sampled_from(TASKS)), num_samples=1), draw(COUNTS)),
    "instance_rng": lambda draw: instance_rng(draw(COUNTS), draw(COUNTS)),
    "sample_rng": lambda draw: sample_rng(draw(COUNTS), draw(COUNTS)),
    "random_formula": lambda draw: random_formula(draw(COUNTS), draw(COUNTS), rng()),
    "random_puzzle": lambda draw: random_puzzle(draw(COUNTS), draw(COUNTS), rng()),
    "completions": lambda draw: completions(
        SudokuBoard(2, np.zeros((4, 4), dtype=np.int64)), limit=draw(COUNTS)),
    "ablate": lambda draw: ablate(RunConfig(num_samples=0), candidate_counts=[draw(COUNTS)],
                                  step_counts=[draw(COUNTS)], epsilons=[draw(FLOATS)]),
}


def test_every_public_name_is_fuzzed_or_takes_nothing_to_malform():
    assert set(m.__all__) == set(ENTRIES) | NO_MALFORMED_ARGUMENT


@pytest.mark.parametrize("name", sorted({**ENTRIES, **HARNESS}))
@FUZZ
@given(data=st.data())
def test_malformed_arguments_raise_package_errors(name, data):
    call = {**ENTRIES, **HARNESS}[name]
    try:
        call(data.draw)
    except PACKAGE_ERRORS:
        pass


VALUES = st.one_of(
    st.integers(-3, 40).map(str), FLOATS.map(str), st.booleans().map(str),
    st.sampled_from(["linear", "exact", "off", "1,2", "nan,1", "%(x)s", "100%"]),
    st.text(st.characters(exclude_categories=("Cs", "Cc")), max_size=6))
SECTIONS = st.dictionaries(
    st.sampled_from(["run", *TASKS, "other"]),
    st.dictionaries(st.sampled_from(sorted({key for _, key in _FILE_FIELDS} | {"schedule"})),
                    VALUES, max_size=4),
    max_size=3)


def _render(sections):
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in body.items())
                   for name, body in sections.items())


@FUZZ
@given(text=st.text(max_size=80) | SECTIONS.map(_render))
def test_parse_config_returns_a_config_or_raises_config_error(text):
    # %(x)s made configparser's interpolation raise its own error
    try:
        assert isinstance(parse_config(text), RunConfig)
    except ConfigError:
        pass
