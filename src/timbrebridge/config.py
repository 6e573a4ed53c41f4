"""Run configuration: option schemas, config-file loading, precedence merging.

Flags override config-file values, which override built-in defaults. Config
files are either INI-style key=value text with a section per subcommand
(plus an optional [common] section) or a JSON object of the same shape.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigurationError


@dataclass(frozen=True)
class Opt:
    name: str  # flag name without leading dashes, e.g. "sigma-max"
    type: Callable = str
    default: Any = None
    help: str = ""
    required: bool = False
    repeatable: bool = False

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_").replace(".", "_")


def parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_int_list(text) -> list[int]:
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(v) for v in str(text).split(",") if v.strip()]


@dataclass
class RunConfig:
    """Validated effective configuration of one CLI invocation."""

    command: str
    options: dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.options[key]

    def get(self, key: str, default=None) -> Any:
        return self.options.get(key, default)

    def to_json(self) -> dict:
        clean = {}
        for key, value in self.options.items():
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, (list, tuple)):
                value = [str(v) if isinstance(v, Path) else v for v in value]
            clean[key] = value
        return {"command": self.command, "options": clean}


def load_config_file(path: str | Path) -> dict[str, dict[str, Any]]:
    """Sectioned key/value mapping from an INI or JSON config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ConfigurationError(f"{path}: JSON config must be an object")
        out: dict[str, dict[str, Any]] = {}
        for section, values in obj.items():
            if not isinstance(values, dict):
                raise ConfigurationError(f"{path}: section {section!r} must be an object")
            out[section] = dict(values)
        return out
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return {section: dict(parser.items(section)) for section in parser.sections()}


def merge_options(
    opts: list[Opt],
    command: str,
    cli_values: dict[str, Any],
    file_sections: dict[str, dict[str, Any]] | None,
) -> dict[str, Any]:
    """defaults < [common] < [command] < explicit flags, with type coercion."""
    effective: dict[str, Any] = {o.dest: o.default for o in opts}
    by_key = {o.dest: o for o in opts}
    for o in opts:
        by_key.setdefault(o.name, o)
    if file_sections:
        layered: dict[str, Any] = {}
        layered.update(file_sections.get("common", {}))
        layered.update(file_sections.get(command, {}))
        for raw_key, raw_value in layered.items():
            key = raw_key.replace("-", "_").replace(".", "_")
            opt = by_key.get(key)
            if opt is None:
                raise ConfigurationError(
                    f"unknown config key {raw_key!r} for command {command!r}"
                )
            try:
                if opt.repeatable:
                    values = (
                        raw_value if isinstance(raw_value, list) else str(raw_value).split()
                    )
                    effective[opt.dest] = [opt.type(v) for v in values]
                else:
                    effective[opt.dest] = opt.type(raw_value)
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(f"bad value for {raw_key!r}: {exc}") from None
    for dest, value in cli_values.items():
        if value is not None:
            effective[dest] = value
    for o in opts:
        if o.required and effective.get(o.dest) is None:
            raise ConfigurationError(f"missing required option --{o.name}")
    return effective
