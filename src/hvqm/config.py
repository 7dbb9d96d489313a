"""Experiment configuration files.

Flat key = value text grouped under [section] headers, UTF-8,
order-insensitive.  The canonical form used for hashing sorts
section.key=value lines, so two files that differ only in layout or key
order hash identically, and any CLI override changes the hash.

Direction values (chsh and epr settings, quasiprob theta<k>, beamline axes)
are a planar angle in radians ("0.785398..."), a named axis x, y, z, -x,
-y, -z, or an explicit unit vector "nx,ny,nz".
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

from .errors import ValidationError
from .spin import Direction, pattern_from_index, pattern_label

class ConfigParseError(Exception):
    """File unreadable or not valid section/key=value syntax (exit code 2)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Raw section mapping plus the experiment kind."""

    kind: str
    sections: dict[str, dict[str, str]]

    def get(self, section: str, key: str, default: str | None = None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ValidationError(f"missing required field [{section}] {key}")
        return value

    def get_float(self, section: str, key: str, default: float | None = None) -> float:
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ValidationError(f"missing required field [{section}] {key}")
            return default
        return parse_float(raw, f"[{section}] {key}")

    def get_int(self, section: str, key: str, default: int | None = None) -> int:
        raw = self.get(section, key)
        if raw is None:
            if default is None:
                raise ValidationError(f"missing required field [{section}] {key}")
            return default
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"[{section}] {key} = {raw!r} is not an integer")


def parse_float(raw: str, name: str) -> float:
    """The finite number that config text `raw` of key `name` spells; NaN,
    +/-inf and anything float() rejects are ValidationErrors naming the key."""
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{name} = {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name} = {raw!r} is not a finite number")
    return value


def parse_config(path) -> ExperimentConfig:
    """Read a config file; syntax or IO problems raise ConfigParseError.

    The file's lines are read once, in text mode, by these rules only:
    `[name]` opens section `name`, kept verbatim (`[DEFAULT]` is refused);
    `key = value` is split at the first `=`, both sides stripped, the key
    non-empty, free of `:` and not starting with `[`; blank lines and `#` / `;` comment lines are
    skipped.  Any other line is an error naming its number: an indented
    line, `key: value`, a key before the first header, a repeated section
    or key.  Every file accepted gives configparser's sections.
    """
    sections: dict[str, dict[str, str]] = {}
    section = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                text = line.strip()
                if not text or text[0] in "#;":
                    continue
                if line[0].isspace():
                    raise _bad_line(path, n, "an indented line")
                if text[0] == "[":
                    name = text[1:-1]
                    if text[-1] != "]" or not name:
                        raise _bad_line(path, n, "expected a [section] header")
                    if name == "DEFAULT":
                        raise _bad_line(path, n, "[DEFAULT] is reserved")
                    if name in sections:
                        raise _bad_line(path, n, f"section [{name}] is repeated")
                    section = sections[name] = {}
                    continue
                key, eq, value = text.partition("=")
                key = key.rstrip()
                if not eq or not key or ":" in key:
                    raise _bad_line(path, n, "expected key = value")
                if section is None:
                    raise _bad_line(path, n, "a key before the first [section] header")
                if key in section:
                    raise _bad_line(path, n, f"key {key!r} is repeated")
                section[key] = value.strip()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"cannot parse config {path}: {exc}") from exc
    kind = sections.get("experiment", {}).get("kind", "")
    return ExperimentConfig(kind, sections)


def _bad_line(path, n: int, what: str) -> ConfigParseError:
    return ConfigParseError(f"cannot parse config {path}: line {n}: {what}")


def apply_overrides(cfg: ExperimentConfig, seed: int | None = None,
                    trials: int | None = None, out_dir: str | None = None,
                    workers: int | None = None) -> ExperimentConfig:
    """Fold CLI flags into the [experiment] section before hashing."""
    sections = {name: dict(kv) for name, kv in cfg.sections.items()}
    exp = sections.setdefault("experiment", {})
    if seed is not None:
        exp["seed"] = str(seed)
    if trials is not None:
        exp["trials"] = str(trials)
    if out_dir is not None:
        exp["out_dir"] = out_dir
    if workers is not None:
        exp["workers"] = str(workers)
    return replace(cfg, sections=sections, kind=exp.get("kind", cfg.kind))


# execution-placement keys: they do not change the statistics, so they are
# excluded from the canonical form (logs stay byte-identical across worker
# counts and output locations)
_UNHASHED = {("experiment", "out_dir"), ("experiment", "workers")}


def hashed_sections(cfg: ExperimentConfig) -> dict[str, dict[str, str]]:
    """What the hash covers: every key but the _UNHASHED ones, its value
    stripped, sections and keys sorted and sections left empty dropped, so
    two configs that hash alike give the same mapping."""
    hashed = {section: {key: value.strip() for key, value in sorted(kv.items())
                        if (section, key) not in _UNHASHED}
              for section, kv in sorted(cfg.sections.items())}
    return {section: kv for section, kv in hashed.items() if kv}


def canonical_bytes(cfg: ExperimentConfig) -> bytes:
    # the lines sort as text, where w10 comes before w2 only because "1" < "="
    lines = [f"{section}.{key}={value}"
             for section, kv in hashed_sections(cfg).items() for key, value in kv.items()]
    return ("\n".join(sorted(lines)) + "\n").encode("utf-8")


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_bytes(cfg)).hexdigest()


_NAMED_AXES = {
    "x": (1.0, 0.0, 0.0), "-x": (-1.0, 0.0, 0.0),
    "y": (0.0, 1.0, 0.0), "-y": (0.0, -1.0, 0.0),
    "z": (0.0, 0.0, 1.0), "-z": (0.0, 0.0, -1.0),
}


def parse_direction(raw: str, context: str = "direction") -> Direction:
    """Angle in radians, named axis, or 'nx,ny,nz' (validated as a unit vector)."""
    token = raw.strip().lower()
    if token in _NAMED_AXES:
        return Direction(*_NAMED_AXES[token])
    parts = raw.split(",")
    if not all(p.strip() for p in parts):
        raise ValidationError(f"{context}: empty field in {raw!r}")
    if len(parts) not in (1, 3):
        raise ValidationError(f"{context}: expected an angle or 'nx,ny,nz', got {raw!r}")
    values = [parse_float(p, context) for p in parts]
    if len(values) == 1:
        return Direction.from_planar_angle(values[0])
    try:
        return Direction(*values)
    except ValidationError as exc:
        raise ValidationError(f"{context}: {exc}") from None


def keyed_section(cfg: ExperimentConfig, section: str, prefix: str) -> list[tuple[int, str]]:
    """(k, key) of each <prefix><k> key of a section, in order of k."""
    keyed = []
    for key in cfg.sections.get(section, {}):
        try:
            if not key.startswith(prefix):
                raise ValueError
            keyed.append((int(key[len(prefix):]), key))
        except ValueError:
            raise ValidationError(f"[{section}] keys look like {prefix}<k>, got {key!r}")
    return sorted(keyed)


def parse_lhv_weights(cfg: ExperimentConfig, n_directions: int) -> list[float]:
    """[lhv] section: one w<k> entry per pattern integer, nonnegative, sum 1."""
    if not cfg.sections.get("lhv"):
        raise ValidationError("classical_lhv mode needs an [lhv] section")
    size = 1 << n_directions
    weights = [0.0] * size
    for k, key in keyed_section(cfg, "lhv", "w"):
        if not 0 <= k < size:
            raise ValidationError(f"[lhv] {key} is out of range for N={n_directions}")
        w = cfg.get_float("lhv", key)
        if w < 0:
            label = pattern_label(pattern_from_index(k, n_directions))
            raise ValidationError(
                f"[lhv] {key} = {w} is negative: pattern {label} cannot carry "
                "a negative classical probability")
        weights[k] = w
    total = sum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"[lhv] weights sum to {total!r}, expected 1")
    return weights
