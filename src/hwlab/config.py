"""Flat key = value experiment configuration with a canonical form.

The file format is one `section.key = value` assignment per line,
comments starting with '#', order free.  Parsing and serialization
round-trip byte-identically through `canonical_text`, whose SHA-256
hash is stamped into every CSV the commands emit.
"""

from __future__ import annotations

import hashlib

COMMANDS = ("ground-state", "travel", "evolve", "stability", "instability",
            "sweep-velocity", "verify")

# key -> (type tag, default).  Type tags: int, float, str, floats.
_SCHEMA: list[tuple[str, str, object]] = [
    ("command", "str", "verify"),
    ("grid.nx", "int", 256),
    ("grid.ny", "int", 256),
    ("grid.lx", "float", 40.0),
    ("grid.ly", "float", 40.0),
    ("model.p", "float", 2.0),
    ("model.omega", "float", 1.0),
    ("model.v", "float", 0.0),
    ("solver.tol", "float", 1e-6),
    ("solver.max_iter", "int", 5000),
    ("solver.init_kind", "str", "gaussian"),
    ("solver.seed", "int", 0),
    ("evolution.T", "float", 1.0),
    ("evolution.dt", "float", 1e-3),
    ("evolution.sample_stride", "int", 10),
    ("evolution.s_monitor", "float", 0.6),
    ("experiment.delta", "float", 1e-2),
    ("experiment.lambdas", "floats", (0.95, 1.05)),
    ("experiment.v_list", "floats", (0.0, 0.5, 0.9, 0.99)),
    ("experiment.growth_factor", "float", 10.0),
    ("experiment.distance_factor", "float", 3.0),
    ("experiment.restart_check", "int", 0),
    ("output.out_dir", "str", "out"),
    ("output.snapshot_in", "str", ""),
    ("output.snapshot_out", "str", ""),
]

_TYPES = {key: kind for key, kind, _ in _SCHEMA}
_DEFAULTS = {key: default for key, _, default in _SCHEMA}
_ORDER = [key for key, _, _ in _SCHEMA]


class ConfigError(ValueError):
    """Malformed configuration text, key, or value."""


def _parse_value(key: str, raw: str):
    kind = _TYPES[key]
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "floats":
            if not raw:
                return ()
            return tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad {kind} value for {key}: {raw!r}") from exc
    return raw


def _format_value(key: str, value) -> str:
    kind = _TYPES[key]
    if kind == "int":
        return str(int(value))
    if kind == "float":
        return repr(float(value))
    if kind == "floats":
        return ", ".join(repr(float(v)) for v in value)
    return str(value)


class ExperimentConfig:
    """Typed key-value store over the fixed schema."""

    def __init__(self, values: dict | None = None, explicit: set | None = None):
        self.values = dict(_DEFAULTS)
        self.explicit: set[str] = set(explicit or ())
        for key, val in (values or {}).items():
            self.set(key, val, parse=False)

    def __getitem__(self, key: str):
        if key not in self.values:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def set(self, key: str, value, parse: bool = True):
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        val = _parse_value(key, value) if parse else value
        if key == "command" and val not in COMMANDS and val != "":
            raise ConfigError(f"unknown command {val!r}; expected one of {COMMANDS}")
        self.values[key] = val
        self.explicit.add(key)

    def was_set(self, key: str) -> bool:
        return key in self.explicit

    def canonical_text(self) -> str:
        lines = [f"{key} = {_format_value(key, self.values[key])}" for key in _ORDER]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def __eq__(self, other):
        if not isinstance(other, ExperimentConfig):
            return NotImplemented
        return self.values == other.values

    def copy(self) -> "ExperimentConfig":
        return ExperimentConfig(dict(self.values), set(self.explicit))


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        cfg.set(key.strip(), raw)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)
