"""Run configuration: the dataclass plus its ``key = value`` file format.

The file format uses ``[section]`` headers; ``[run]`` holds the common
fields and each task contributes its own small section. ``parse_config``
inverts ``render_config`` exactly.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields, replace

from ..errors import ConfigError
from ..search import PLACEMENTS

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
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"placement must be one of {PLACEMENTS}")
        if self.steps < 1 or self.candidates < 1 or self.rounds < 0:
            raise ConfigError("steps/candidates must be >= 1 and rounds >= 0")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in [0, 1]")
        if self.num_samples < 0:
            raise ConfigError("sample count must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (self.denoiser in DENOISER_CHOICES
                or self.denoiser.startswith("table:")):
            raise ConfigError(
                f"denoiser must be one of {DENOISER_CHOICES} or table:PATH")


_RUN_FIELDS = ("task", "steps", "candidates", "rounds", "placement", "epsilon",
               "denoiser", "num_samples", "seed", "out", "weights",
               "allow_unmask_edits", "instances")
_SECTIONS = {
    "sat": (("vars", "sat_vars"), ("clauses", "sat_clauses")),
    "sudoku": (("box", "sudoku_box"), ("blanks", "sudoku_blanks")),
    "peptide": (("slots", "peptide_slots"),),
}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Serialize to the config file format; unset optionals are omitted."""
    lines = ["[run]"]
    for name in _RUN_FIELDS:
        value = getattr(cfg, name)
        if value is None:
            continue
        lines.append(f"{name} = {_format_value(value)}")
    for section, mapping in _SECTIONS.items():
        lines.append("")
        lines.append(f"[{section}]")
        for key, attr in mapping:
            lines.append(f"{key} = {_format_value(getattr(cfg, attr))}")
    return "\n".join(lines) + "\n"


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    raw = raw.strip()
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {raw!r} for {name}")
    if kind.startswith("tuple[float"):
        return tuple(float(x) for x in raw.split(","))
    return raw


def parse_config(text: str, base: RunConfig | None = None) -> RunConfig:
    """Config from file text, overlaid on ``base`` (or the defaults)."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from None
    values = {}
    if parser.has_section("run"):
        for key, raw in parser.items("run"):
            if key == "schedule" and raw.strip() == "linear":
                continue  # older files carry it; it only ever held "linear"
            if key not in _RUN_FIELDS:
                raise ConfigError(f"unknown key {key!r} in [run]")
            values[key] = _coerce(key, raw)
    for section, mapping in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        known = dict(mapping)
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            values[known[key]] = _coerce(known[key], raw)
    unknown = set(parser.sections()) - {"run"} - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    cfg = base or RunConfig()
    return replace(cfg, **values)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_config(handle.read(), base)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
