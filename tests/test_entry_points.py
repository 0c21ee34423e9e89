"""Malformed arguments at the public entry points raise the package's errors.

Every name in ``mdsearch.__all__`` and each harness entry point is called
with counts that are negative, fractional, bool, None, text or non-finite,
with token arrays of another dtype or shape (zero to two dimensions), and
with real-valued arguments that are non-finite, text, None, bool, complex or
ragged, next to well-formed values. A call may succeed; when it raises, the
error is one of the classes in ``mdsearch.errors``, never a numpy or Python
error from inside the package.
"""

import math
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import mdsearch as m
from mdsearch.constraints import sat, sudoku
from mdsearch.constraints.sat import CnfFormula
from mdsearch.constraints.sudoku import SudokuBoard, completions
from mdsearch.errors import (ConfigError, ContractError, GenerationError, ParseError,
                             SampleError)
from mdsearch.harness import (RunConfig, ablate, build_instance, instance_rng, load_config,
                              load_results, parse_config, random_formula, random_puzzle,
                              sample_rng)
from mdsearch.harness.cli import main
from mdsearch.harness.configio import DENOISER_CHOICES, TASKS, _FILE_FIELDS

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
# numpy reads none of these but FLOATS as real numbers; a bool would pass for 0 or 1
REALS = st.one_of(FLOATS, st.text(max_size=2), st.none(), st.booleans(),
                  st.complex_numbers(), st.just([0.5, [0.5]]))
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, max_side=4)
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
    return st.none() | REALS | st.lists(REALS, max_size=2).map(tuple)


def schedules():
    """Survival probabilities, some with the endpoints 1 and 0 in place."""
    return (st.lists(REALS, max_size=4).map(tuple)
            | st.lists(REALS, max_size=2).map(lambda inner: (1.0, *inner, 0.0)))


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
           "corrupt": lambda: m.CorruptedDenoiser(m.UniformDenoiser(BITS), draw(REALS))}[kind]()
    den.denoise(draw(tokens()), draw(COUNTS))


def _sample(draw):
    config = m.SearchConfig(candidates=2, max_rounds=2,
                            placement=draw(st.sampled_from(["off", "all_steps"])))
    m.sample(SAT, Drawn(draw(rows())), SCHEDULE, config, rng())


def _refine(draw):
    m.refine(draw(tokens()), CONSTRAINTS, draw(weights()), BITS, SAT.region,
             draw(COUNTS | st.none()))


def _region(draw):
    length = draw(COUNTS)
    positions = st.sets(st.integers(-2, 5) | st.floats(-2, 5) | st.booleans(), max_size=3)
    build = draw(st.sampled_from(["all", "frozen", "raw"]))
    if build == "all":
        m.EditableRegion.all_editable(length)
    elif build == "frozen":
        m.EditableRegion.with_frozen(length, draw(positions))
    else:
        m.EditableRegion(length, frozenset(draw(positions)))


def _vocab(draw):
    BITS.render(draw(tokens()))
    BITS.parse(draw(st.text(max_size=5)))


def _instance(draw):
    region = m.EditableRegion.with_frozen(3, {0})
    m.Instance("one-given", BITS, region, CONSTRAINTS, draw(tokens() | st.none() | REALS))


ENTRIES = {
    "CorruptedDenoiser": _denoisers,
    "DataDistribution": lambda draw: m.DataDistribution(
        draw(st.just(DIST.support) | hnp.arrays(DTYPES, SHAPES))),
    "Denoiser": _denoisers,
    "ExactPosteriorDenoiser": _denoisers,
    "TableDenoiser": _denoisers,
    "UniformDenoiser": _denoisers,
    "NoiseSchedule": lambda draw: m.NoiseSchedule(draw(schedules())),
    "first_hitting_steps": lambda draw: m.first_hitting_steps(SCHEDULE, draw(COUNTS), rng()),
    "guided_reverse_step": lambda draw: m.guided_reverse_step(
        draw(tokens()), draw(tokens()), BITS.mask_id),
    "linear_schedule": lambda draw: m.linear_schedule(draw(COUNTS)),
    "reverse_coeffs": lambda draw: m.reverse_coeffs(draw(COUNTS), SCHEDULE),
    "vanilla_reverse_step": lambda draw: m.vanilla_reverse_step(
        draw(tokens()), draw(rows()), draw(tokens()), rng(), BITS),
    "SearchConfig": lambda draw: m.SearchConfig(
        candidates=draw(COUNTS), max_rounds=draw(COUNTS), weights=draw(weights()),
        allow_unmask_edits=draw(st.booleans() | REALS)),
    "aggregate_violation": lambda draw: m.aggregate_violation(
        draw(tokens()), CONSTRAINTS, draw(weights())),
    "best_of_pool": lambda draw: m.best_of_pool(
        draw(rows()), draw(tokens()), draw(COUNTS), CONSTRAINTS, draw(weights()), rng(),
        BITS.mask_id),
    "proposal_draws": lambda draw: m.proposal_draws(
        draw(rows()), draw(tokens()), draw(COUNTS), rng(), BITS.mask_id),
    "refine": _refine,
    "sample": _sample,
    "build_denoiser": lambda draw: m.build_denoiser(
        SAT, draw(st.sampled_from(["exact", "noisy", "uniform"])), draw(REALS)),
    "peptide_instance": lambda draw: m.peptide_instance(slots=draw(COUNTS)),
    "sat_instance": lambda draw: m.sat_instance(CnfFormula(draw(COUNTS), ((1, -2),))),
    "sudoku_instance": lambda draw: m.sudoku_instance(SudokuBoard(
        draw(COUNTS), draw(hnp.arrays(DTYPES, st.sampled_from([(4, 4), (4,), (3, 3)]))))),
    "EditableRegion": _region,
    "Instance": _instance,
    "Vocab": _vocab,
    "masked_positions": lambda draw: m.masked_positions(draw(tokens()), BITS.mask_id),
}
# no count, array or float argument to malform: plain records, and functions
# of a built instance or of a file (the file readers have their own tests)
NO_MALFORMED_ARGUMENT = {"ReverseCoeffs", "StepRecord", "exact_distribution", "load_table"}

RUN_FIELDS = {**{f.name: COUNTS for f in fields(RunConfig) if f.type == "int"},
              "epsilon": REALS, "weights": weights(), "denoiser": REALS | COUNTS,
              "allow_unmask_edits": st.booleans() | REALS,
              "instances": COUNTS | REALS, "out": COUNTS | REALS}


def _run_config(draw):
    name = draw(st.sampled_from(sorted(RUN_FIELDS)))
    RunConfig(**{name: draw(RUN_FIELDS[name])})


HARNESS = {
    "RunConfig": _run_config,
    "build_instance": lambda draw: build_instance(
        RunConfig(task=draw(st.sampled_from(TASKS)), num_samples=1), draw(COUNTS)),
    "instance_rng": lambda draw: instance_rng(draw(COUNTS), draw(COUNTS)),
    "sample_rng": lambda draw: sample_rng(draw(COUNTS), draw(COUNTS)),
    "random_formula": lambda draw: random_formula(draw(COUNTS), draw(COUNTS), rng()),
    "random_puzzle": lambda draw: random_puzzle(draw(COUNTS), draw(COUNTS), rng()),
    "completions": lambda draw: completions(
        SudokuBoard(2, np.zeros((4, 4), dtype=np.int64)), limit=draw(COUNTS)),
    "ablate": lambda draw: ablate(RunConfig(num_samples=0), candidate_counts=[draw(COUNTS)],
                                  step_counts=[draw(COUNTS)], epsilons=[draw(REALS)]),
}


@pytest.mark.parametrize("call", [
    lambda x: m.UniformDenoiser(BITS).denoise(x, 1),
    lambda x: m.CorruptedDenoiser(m.UniformDenoiser(BITS), 0.5).denoise(x, 1),
    lambda x: m.TableDenoiser(BITS, {}).denoise(x, 1),
    lambda x: CONSTRAINTS[0].violation(x),
], ids=["uniform", "corrupt", "table", "violation"])
def test_zero_dimensional_sequence_is_a_contract_error(call):
    # a numpy scalar has no len() and takes no [None, :]
    with pytest.raises(ContractError):
        call(np.int64(0))


BASE = m.UniformDenoiser(BITS)


@pytest.mark.parametrize("call, error", [
    (lambda: m.SearchConfig(weights=("a",)), ConfigError),
    (lambda: m.SearchConfig(allow_unmask_edits="no"), ConfigError),
    (lambda: RunConfig(weights="ab"), ConfigError),
    (lambda: RunConfig(epsilon="a"), ConfigError),
    (lambda: RunConfig(epsilon=(0.5, 0.5)), ConfigError),
    (lambda: RunConfig(denoiser=5), ConfigError),
    (lambda: RunConfig(instances=5), ConfigError),
    (lambda: RunConfig(out=5), ConfigError),
    (lambda: m.aggregate_violation(np.zeros(3, np.int64), CONSTRAINTS, ("a",)), ContractError),
    (lambda: m.CorruptedDenoiser(BASE, None), ConfigError),
    (lambda: m.CorruptedDenoiser(BASE, True), ConfigError),
    (lambda: m.CorruptedDenoiser(BASE, [0.5]), ConfigError),
    (lambda: m.NoiseSchedule((1.0, "a", 0.0)), ConfigError),
    (lambda: m.NoiseSchedule((True, False)), ConfigError),
    (lambda: m.NoiseSchedule(((1.0,), (0.0,))), ConfigError),
], ids=["search-weights-text", "search-flag-text", "run-weights-text", "run-epsilon-text",
        "run-epsilon-pair", "run-denoiser-int", "run-instances-int", "run-out-int",
        "aggregate-weights-text", "corrupt-none", "corrupt-bool", "corrupt-list", "schedule-text",
        "schedule-bools", "schedule-nested"])
def test_arguments_of_another_type_raise_package_errors(call, error):
    # bools were read as 0 or 1, "no" as True, a nested schedule passed by luck
    # (its 1-element rows compared equal to the endpoints), an int path failed
    # only when the run opened it; the rest raised TypeError, AttributeError or
    # numpy's ValueError
    with pytest.raises(error):
        call()


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


# small values only: an accepted file must not ask for a long run
RUN_VALUES = st.one_of(
    st.integers(-1, 4).map(str), st.floats(-1, 2).map(str),
    st.sampled_from([*TASKS, *DENOISER_CHOICES, "off", "all_steps", "1,2", "0,1,1"]),
    st.text(max_size=6))
RUN_SECTIONS = st.fixed_dictionaries({}, optional={
    section: st.dictionaries(
        st.sampled_from(sorted(key for name, key in _FILE_FIELDS if name == section)),
        RUN_VALUES, max_size=4)
    for section in sorted({name for name, _ in _FILE_FIELDS})})


@FUZZ
@given(sections=RUN_SECTIONS)
def test_bench_on_a_config_file_exits_with_a_code(sections):
    text = _render(sections)
    try:
        parse_config(text)
        refused = False
    except ConfigError:
        refused = True
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "run.cfg", Path(tmp) / "bench.jsonl"
        config.write_text(text, encoding="utf-8")
        code = main(["bench", "--config", str(config), "--n-samples", "1",
                     "--out", str(out)])
        assert code in (0, 1, 2)
        if refused:
            assert code == 2 and not out.exists()


# --- input files: every reader goes through errors.read_text -----------------

READERS = {
    "load_config": load_config,
    "load_results": load_results,
    "load_table": lambda path: m.load_table(path, BITS),
    "load_dimacs": sat.load_dimacs,
    "read_puzzles": sudoku.read_puzzles,
}


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_an_unreadable_input_file_is_a_config_error_naming_it(tmp_path, reader, case):
    # load_dimacs and read_puzzles raised FileNotFoundError, IsADirectoryError
    # and UnicodeDecodeError
    path = {"missing": tmp_path / "missing", "directory": tmp_path,
            "not utf-8": tmp_path / "latin-1"}[case]
    if case == "not utf-8":
        path.write_bytes(b"\xff\xfep cnf 1 1\n1 0\n")
    with pytest.raises(ConfigError, match="^cannot read ") as err:
        READERS[reader](path)
    assert str(path) in str(err.value)
