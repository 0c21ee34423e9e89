"""Run configuration: the dataclass plus its ``key = value`` file format.

The file format uses ``[section]`` headers; ``[run]`` holds the common
fields and each task contributes its own small section, whose keys are
the task's fields without their prefix (``sat_vars`` is ``vars`` in
``[sat]``). ``_coerce`` is the only parser of a value, and building a
``RunConfig`` is the only check of one.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

from ..errors import ConfigError, check_count, check_reals, read_text
from ..search import SearchConfig

DENOISER_CHOICES = ("exact", "noisy", "uniform")
TASKS = ("sat", "sudoku", "peptide")


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one experiment run."""

    task: str = "sat"
    steps: int = 20
    candidates: int = 32
    rounds: int = 16
    placement: str = "all_steps"
    epsilon: float = 0.5
    denoiser: str = "noisy"
    num_samples: int = 200
    seed: int = 0
    out: str | None = None
    weights: tuple[float, ...] | None = None
    allow_unmask_edits: bool = True
    instances: str | None = None
    sat_vars: int = 7
    sat_clauses: int = 45
    sudoku_box: int = 2
    sudoku_blanks: int = 8
    peptide_slots: int = 50

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}")
        # every int field is a count; search_config checks candidates and rounds
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and f.name not in ("candidates", "rounds"):
                check_count(value, f.name, 1 if f.name == "steps" else 0)
            elif f.type == "str | None" and not (value is None or value and isinstance(value, str)):
                raise ConfigError(f"{f.name} must be a non-empty path or None, got {value!r}")
        if check_reals(self.epsilon, "epsilon", 0, 1).ndim:
            raise ConfigError("epsilon must be one number")
        if not (self.denoiser in DENOISER_CHOICES
                or isinstance(self.denoiser, str) and self.denoiser.startswith("table:")):
            raise ConfigError(
                f"denoiser must be one of {DENOISER_CHOICES} or table:PATH")
        search_config(self)  # checks the search fields


def search_config(cfg: RunConfig) -> SearchConfig:
    return SearchConfig(candidates=cfg.candidates, max_rounds=cfg.rounds,
                        placement=cfg.placement,
                        allow_unmask_edits=cfg.allow_unmask_edits,
                        weights=cfg.weights)


def _file_key(name: str) -> tuple[str, str]:
    """(section, key) of a field in the file format."""
    section, _, key = name.partition("_")
    return (section, key) if section in TASKS else ("run", name)


_FILE_FIELDS = {_file_key(f.name): f for f in fields(RunConfig)}


def _coerce(field, raw: str):
    raw = raw.strip()
    try:
        if field.type == "int":
            return int(raw)
        if field.type == "float":
            return float(raw)
        if field.type.startswith("tuple[float"):
            return tuple(float(x) for x in raw.split(","))
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {field.name}") from None
    if field.type == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for {field.name}")
    return raw


def parse_config(text: str, base: RunConfig | None = None,
                 refused: tuple[str, ...] = ()) -> RunConfig:
    """Config from file text, overlaid on ``base`` (or the defaults); a key
    for a field named in ``refused`` is a :class:`ConfigError`."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from None
    unknown = set(parser.sections()) - {"run", *TASKS}
    if parser.defaults():  # configparser would copy these keys into every section
        unknown.add(parser.default_section)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    values = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) == ("run", "schedule") and raw.strip() == "linear":
                continue  # older files carry it; it only ever held "linear"
            field = _FILE_FIELDS.get((section, key))
            if field is None:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            if field.name in refused:
                raise ConfigError(f"key {key!r} in [{section}] is not taken by this command")
            values[field.name] = _coerce(field, raw)
    return replace(base or RunConfig(), **values)


def load_config(path, base: RunConfig | None = None,
                refused: tuple[str, ...] = ()) -> RunConfig:
    """Config file ``path`` over ``base`` (see :func:`parse_config`); an
    unreadable file is a :class:`ConfigError`."""
    return parse_config(read_text(path, "config"), base, refused)
