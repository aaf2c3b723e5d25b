"""Config file parsing, validation, and canonical serialization.

The format is flat-sectioned INI.  Every key has a default equal to the
reference apparatus value, so an empty file is a complete, valid
configuration.  Unknown sections (``[DEFAULT]`` among them) or keys are
fatal errors carrying the offending line number: a no-free-parameter
model deserves loud config mistakes, not silently ignored typos.

A key is one row of ``_KEYS``: its section and name, the
``SimulationConfig`` attribute it sets, a (parser, formatter) codec and a
validator.  Its default is that attribute of ``SimulationConfig()``.
``_SCHEMA``, ``parse_config`` and ``serialize_config`` all follow the
table, in its order.  Only ``[species]`` (a catalog name, or all three
custom fields) and the velocity histogram load are written out by hand.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .beamline import BeamlineGeometry, _internal_grid, _scan_grid
from .distributions import DetectorModel, VelocityDistribution, VerticalProfile
from .distributions import load_velocity_histogram
from .grating import GratingBeam
from .species import CATALOG, COMMENT, ComplexPolarizability, MoleculeSpecies, check_one_line


class ConfigError(ValueError):
    """Invalid configuration: carries the key path and line number."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        where = f"line {line}" if line is not None else ""
        if key is not None:
            where = f"{key} ({where})" if where else key
        super().__init__(f"{where}: {message}" if where else message)


@dataclass(frozen=True)
class QuadratureSpec:
    velocity_nodes: int = 16
    vertical_nodes: int = 16
    source_nodes: int = 16


@dataclass(frozen=True)
class NumericsSpec:
    samples_per_period: int = 64
    pad_factor: int = 4
    tail_eps: float = 1e-10
    m_max: int = 20
    internal_step: float = 0.25e-6


@dataclass(frozen=True)
class RunSpec:
    mode: str = "wave"
    normalization: str = "sum"
    workers: int = 1
    convergence_check: bool = False
    out_dir: str = "."
    prefix: str = "run"

    def __post_init__(self) -> None:
        check_one_line("run.out_dir", self.out_dir)
        check_one_line("run.prefix", self.prefix)


@dataclass(frozen=True)
class SimulationConfig:
    species: MoleculeSpecies = field(default_factory=lambda: CATALOG["C60"])
    beam: GratingBeam = field(default_factory=GratingBeam)
    geometry: BeamlineGeometry = field(default_factory=BeamlineGeometry)
    velocity: VelocityDistribution = field(default_factory=VelocityDistribution)
    vertical: VerticalProfile = field(default_factory=VerticalProfile)
    detector: DetectorModel = field(default_factory=DetectorModel)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    numerics: NumericsSpec = field(default_factory=NumericsSpec)
    run: RunSpec = field(default_factory=RunSpec)
    velocity_histogram_file: str | None = None


# --- parsers and formatters ---------------------------------------------
def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}")
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


def _scaled(exponent: int):
    """Parser for a unit-scaled float key (config units = SI * 10^-exponent).

    The exponent shift happens in decimal, so the result is the correctly
    rounded double of the SI quantity: '50' um parses to exactly the same
    float as the literal 50e-6, with no multiply rounding.
    """

    def parse(raw: str) -> float:
        try:
            value = float(Decimal(raw).scaleb(exponent))
        except (InvalidOperation, ValueError, ArithmeticError):
            raise ValueError(f"not a number: {raw!r}")
        if not math.isfinite(value):
            raise ValueError(f"not finite: {raw!r}")
        return value

    return parse


def _fmt_scaled(value_si: float, exponent: int) -> str:
    """Inverse of ``_scaled``: a config-unit string that parses back to
    exactly ``value_si`` (repr is exact and the shift is decimal)."""
    return format(Decimal(repr(value_si)).scaleb(exponent), "f")


def _parse_int(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


Codec = tuple[Callable[[str], Any], Callable[[Any], str]]
_FLOAT: Codec = (_parse_float, lambda value: repr(float(value)))
_INT: Codec = (_parse_int, str)
_TEXT: Codec = (str.strip, str)
_BOOL: Codec = (_parse_bool, lambda value: "true" if value else "false")
_PATH: Codec = (lambda raw: raw.strip() or None, str)  # an empty value: no file


def _unit(exponent: int) -> Codec:
    """Codec of a float key given in units of 10^exponent SI (nm: -9)."""
    return _scaled(exponent), lambda value: _fmt_scaled(value, -exponent)


# --- validators: each raises ValueError naming the dotted key -----------
def _rule(holds: Callable[[Any], bool], requirement: str) -> Callable[[str, Any], None]:
    def check(name: str, value) -> None:
        if not holds(value):
            raise ValueError(f"{name} {requirement}")

    return check


def _one_of(*allowed: str) -> Callable[[str, Any], None]:
    return _rule(lambda value: value in allowed, f"must be one of {', '.join(allowed)}")


_anything = _rule(lambda value: True, "")
_positive = _rule(lambda value: value > 0, "must be > 0")
_nonnegative = _rule(lambda value: not value < 0, "must be >= 0")
_open_unit = _rule(lambda value: 0.0 < value < 1.0, "must be in (0, 1)")


def _multiple_of_4(name: str, value: int) -> None:
    _positive(name, value)
    if value % 4 != 0:
        raise ValueError(f"{name} must be a multiple of 4")


# --- the table: one row per key -----------------------------------------
class _Key(NamedTuple):
    section: str
    key: str
    path: str  # attribute of SimulationConfig, dotted
    codec: Codec
    check: Callable[[str, Any], None] = _anything


_KEYS: tuple[_Key, ...] = (
    _Key("beam", "wavelength_nm", "beam.wavelength", _unit(-9), _positive),
    _Key("beam", "power_w", "beam.power", _FLOAT, _nonnegative),
    _Key("beam", "waist_y_mm", "beam.waist_y", _unit(-3), _positive),
    _Key("beam", "waist_z_um", "beam.waist_z", _unit(-6), _positive),
    _Key("geometry", "slit1_um", "geometry.slit1", _unit(-6), _positive),
    _Key("geometry", "slit2_um", "geometry.slit2", _unit(-6), _positive),
    _Key("geometry", "l12_m", "geometry.L12", _FLOAT, _positive),
    _Key("geometry", "l2d_m", "geometry.L2D", _FLOAT, _positive),
    _Key("geometry", "detector_span_um", "geometry.detector_span", _unit(-6), _positive),
    _Key("velocity", "v_peak", "velocity.v_peak", _FLOAT, _positive),
    _Key("velocity", "fwhm_ratio", "velocity.fwhm_ratio", _FLOAT, _open_unit),
    _Key("velocity", "histogram_file", "velocity_histogram_file", _PATH),
    _Key("vertical", "beam_fwhm_um", "vertical.beam_fwhm", _unit(-6), _positive),
    _Key("detector", "width_um", "detector.width", _unit(-6), _nonnegative),
    _Key("detector", "step_um", "detector.step", _unit(-6), _positive),
    _Key("detector", "kernel", "detector.kernel_shape", _TEXT, _one_of("gaussian", "tophat")),
    _Key("quadrature", "velocity_nodes", "quadrature.velocity_nodes", _INT, _positive),
    _Key("quadrature", "vertical_nodes", "quadrature.vertical_nodes", _INT, _positive),
    _Key("quadrature", "source_nodes", "quadrature.source_nodes", _INT, _positive),
    _Key("numerics", "samples_per_period", "numerics.samples_per_period", _INT, _multiple_of_4),
    _Key("numerics", "pad_factor", "numerics.pad_factor", _INT, _positive),
    _Key("numerics", "tail_eps", "numerics.tail_eps", _FLOAT, _open_unit),
    _Key("numerics", "m_max", "numerics.m_max", _INT, _positive),
    _Key("numerics", "internal_step_um", "numerics.internal_step", _unit(-6), _positive),
    _Key("run", "mode", "run.mode", _TEXT, _one_of("wave", "orders")),
    _Key("run", "normalization", "run.normalization", _TEXT, _one_of("sum", "peak")),
    _Key("run", "workers", "run.workers", _INT, _positive),
    _Key("run", "convergence_check", "run.convergence_check", _BOOL),
    _Key("run", "out_dir", "run.out_dir", _TEXT, check_one_line),
    _Key("run", "prefix", "run.prefix", _TEXT, check_one_line),
)

# the three fields of a custom species, with their validators
_CUSTOM_SPECIES = {"mass_amu": _positive, "alpha_re_a3": _anything, "alpha_im_a3": _nonnegative}

# section -> keys the parser accepts; anything else is fatal.
_SCHEMA: dict[str, tuple[str, ...]] = {"species": ("name", *_CUSTOM_SPECIES)}
for _row in _KEYS:
    _SCHEMA[_row.section] = _SCHEMA.get(_row.section, ()) + (_row.key,)

_ROWS = {(row.section, row.key): row for row in _KEYS}
_GETTERS = tuple(attrgetter(row.path) for row in _KEYS)
_DEFAULT = SimulationConfig()  # built once: each key's default is its field here


def parse_value(section: str, key: str, raw: str):
    """One key's value from its text by its row's parser and validator (or ValueError)."""
    row = _ROWS[section, key]
    value = row.codec[0](raw)
    row.check(f"{section}.{key}", value)
    return value


def _read_ini(text: str) -> tuple[dict[tuple[str, str], str], dict[tuple[Any, str], int]]:
    """Each key's raw value and its 1-based line, by (section, key), in one pass.

    Lines end at '\n'; ``species.COMMENT`` starts a comment; a header is named
    by all its brackets hold, blanks kept; '=' is the only delimiter.  Lines
    indented deeper than a key, and blank (not comment) lines, continue its value.
    """
    parts: dict[tuple[str, str], list[str]] = {}
    lines: dict[tuple[Any, str], int] = {}  # a header's line at (None, section)
    section = key = None
    key_indent = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        comment = COMMENT.search(line)
        content = line[: comment.start() if comment else None].strip()
        indent = len(line) - len(line.lstrip())
        if key is not None and (indent > key_indent if content else comment is None):
            parts[section, key].append(content)
            continue
        if not content:
            continue
        header = re.match(r"\[(.+)\]", content)  # the name runs to the last ']'
        if header:
            section, key = header.group(1), None
            if rest := content[header.end() :].lstrip():
                message = f"text {rest!r} after the section header [{section}]"
                raise ConfigError(message, key=section, line=lineno)
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", key=section, line=lineno)
            if (None, section) in lines:
                raise ConfigError(f"section {section!r} already exists", line=lineno)
            lines[None, section] = lineno
            continue
        if section is None:
            raise ConfigError("File contains no section headers.", line=lineno)
        name, equals, value = content.partition("=")
        key = name.rstrip().lower()
        if not (equals and key):
            raise ConfigError(f"no 'key = value' or [section] in {content!r}", line=lineno)
        if key not in _SCHEMA[section]:
            raise ConfigError("unknown key", key=f"{section}.{key}", line=lineno)
        if (section, key) in lines:
            message = f"option {key!r} in section {section!r} already exists"
            raise ConfigError(message, line=lineno)
        parts[section, key], lines[section, key], key_indent = [value.strip()], lineno, indent
    return {at: "\n".join(value).rstrip() for at, value in parts.items()}, lines


def parse_config(text: str, base_dir: str | Path | None = None) -> SimulationConfig:
    """Parse and validate a configuration, applying apparatus defaults.

    ``base_dir`` anchors relative paths referenced by the config (the
    velocity histogram file); it defaults to the working directory.
    Faults of the text raise in file order, then faults of values in table order.
    """
    raw, lines = _read_ini(text)

    @contextmanager
    def blame(section: str, key: str):
        """Re-raise a fault of ``section.key`` as a ConfigError at its line."""
        try:
            yield
        except (OSError, ValueError) as exc:
            line = lines.get((section, key))
            raise ConfigError(str(exc), key=f"{section}.{key}", line=line) from exc

    # --- species: a catalog name, or all three custom fields -----------
    name = raw.get(("species", "name"), _DEFAULT.species.name)
    custom = {}
    for key in _CUSTOM_SPECIES:
        if ("species", key) in raw:
            with blame("species", key):
                custom[key] = _parse_float(raw["species", key])
    if custom:
        missing = [key for key in _CUSTOM_SPECIES if key not in custom]
        with blame("species", next(iter(custom))):
            if missing:
                raise ValueError(f"custom species needs {', '.join(missing)} as well")
        for key, check in _CUSTOM_SPECIES.items():
            with blame("species", key):
                check(f"species.{key}", custom[key])
        polarizability = ComplexPolarizability(custom["alpha_re_a3"], custom["alpha_im_a3"])
        with blame("species", "name"):
            species = MoleculeSpecies(name, custom["mass_amu"], polarizability)
    elif name in CATALOG:
        species = CATALOG[name]
    else:
        with blame("species", "name"):
            raise ValueError(
                f"unknown species {name!r}; catalog has {', '.join(sorted(CATALOG))} "
                "(or define mass_amu/alpha_re_a3/alpha_im_a3 inline)"
            )

    # --- every other key: one table row each; unset groups stay default --
    given: dict[str, dict[str, Any]] = {"": {}}
    for row in _KEYS:
        if (row.section, row.key) in raw:
            with blame(row.section, row.key):
                value = parse_value(row.section, row.key, raw[row.section, row.key])
            group, _, attr = row.path.rpartition(".")
            given.setdefault(group, {})[attr] = value
    if "waist_y" in given.get("beam", {}):  # the vertical average spans the laser's waist
        given.setdefault("vertical", {})["laser_waist"] = given["beam"]["waist_y"]
    fields = given.pop("")
    fields.update((group, replace(getattr(_DEFAULT, group), **kw)) for group, kw in given.items())

    # --- a measured velocity histogram replaces the gaussian's v_peak ---
    histogram_file = fields.get("velocity_histogram_file")
    if histogram_file:
        with blame("velocity", "histogram_file"):
            loaded = load_velocity_histogram(Path(base_dir or ".") / histogram_file)
        fwhm_ratio = fields.get("velocity", _DEFAULT.velocity).fwhm_ratio
        fields["velocity"] = replace(loaded, fwhm_ratio=fwhm_ratio)

    cfg = replace(_DEFAULT, species=species, **fields)
    # The detector grids, which check their size before they allocate:
    # each fault blames the first of its keys that the file sets.
    # The common grid reaches 3 detector widths past the span, beyond the
    # kernel's taps, so it bounds them too.
    def blame_first(*keys: tuple[str, str]):
        return blame(*next((key for key in keys if key in raw), keys[-1]))

    span, width = ("geometry", "detector_span_um"), ("detector", "width_um")
    with blame_first(("detector", "step_um"), span):
        _scan_grid(cfg.geometry, cfg.detector.step)
    with blame_first(("numerics", "internal_step_um"), width, span):
        _internal_grid(cfg.geometry, cfg.detector.width, cfg.numerics.internal_step)
    return cfg


def load_config_file(path: str | Path) -> SimulationConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"), base_dir=Path(path).parent)


def serialize_config(cfg: SimulationConfig) -> str:
    """Canonical text form: every key explicit, fixed order, exact floats.

    ``parse_config(serialize_config(cfg))`` reproduces ``cfg`` exactly
    (float fields round-trip through repr); the serialization is also the
    content that the config digest hashes.
    """
    out = io.StringIO()
    species = cfg.species
    out.write(f"[species]\nname = {species.name}\n")
    if CATALOG.get(species.name) != species:
        pol = species.polarizability
        values = (species.mass_amu, pol.real_volume, pol.imag_volume)
        for key, value in zip(_CUSTOM_SPECIES, values):
            out.write(f"{key} = {_FLOAT[1](value)}\n")
    section = "species"
    for row, get in zip(_KEYS, _GETTERS):
        if row.section != section:
            section = row.section
            out.write(f"\n[{section}]\n")
        value = get(cfg)
        if value is not None:
            out.write(f"{row.key} = {row.codec[1](value)}\n")
    out.write("\n")
    return out.getvalue()


def config_digest(cfg: SimulationConfig) -> str:
    """SHA-256 of the canonical serialization; stamped into outputs.

    The serialization names a velocity histogram only by its file, so a
    histogram config also hashes the rows it loaded: one line
    ``repr(velocity) repr(weight)`` per row, in velocity order, after the
    serialization.
    """
    text = serialize_config(cfg)
    if cfg.velocity.shape == "histogram":
        text += "".join(f"{v!r} {w!r}\n" for v, w in zip(*cfg.velocity.histogram))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
