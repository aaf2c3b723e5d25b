"""Config file parsing, validation, and canonical serialization.

The format is flat-sectioned INI.  Every key has a default equal to the
reference apparatus value, so an empty file is a complete, valid
configuration.  Unknown sections (``[DEFAULT]`` among them) or keys are
fatal errors carrying the offending line number: a no-free-parameter
model deserves loud config mistakes, not silently ignored typos.

A key is one row of ``_KEYS``: its section and name, the
``SimulationConfig`` attribute it sets (and takes its default from) and a
(parser, formatter) codec, but no rule: the dataclass that holds the field
checks it as ``parse_config`` sets it by ``dataclasses.replace``.  The
parser and serializer follow the table, in its order; ``[species]`` and
the velocity histogram load are written out by hand.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from decimal import Decimal
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .beamline import BeamlineGeometry, _fft_length, _shadow_span, window_grid
from .distributions import DetectorModel, VelocityDistribution, VerticalProfile, _internal_half
from .distributions import _scan_half, check_nodes, load_velocity_histogram
from .grating import ComplexPhase, GratingBeam
from .orders import samples_per_laser_period
from .species import CATALOG, COMMENT, MoleculeSpecies, check_count, check_one_line, check_positive


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

    def __post_init__(self) -> None:
        for name in ("velocity_nodes", "vertical_nodes", "source_nodes"):
            check_count(name, getattr(self, name))


@dataclass(frozen=True)
class NumericsSpec:
    samples_per_period: int = 64
    pad_factor: int = 4
    tail_eps: float = 1e-10
    m_max: int = 20
    internal_step: float = 0.25e-6

    def __post_init__(self) -> None:
        spp = self.samples_per_period
        if not (spp > 0 and spp % 4 == 0):
            raise ValueError("samples_per_period must be a positive multiple of 4")
        for name in ("samples_per_period", "pad_factor", "m_max"):
            check_count(name, getattr(self, name))
        if not 0.0 < self.tail_eps < 1.0:
            raise ValueError("tail_eps must be in (0, 1)")
        check_positive("internal_step", self.internal_step)


@dataclass(frozen=True)
class RunSpec:
    mode: str = "wave"
    normalization: str = "sum"
    workers: int = 1
    convergence_check: bool = False
    out_dir: str = "."
    prefix: str = "run"

    def __post_init__(self) -> None:
        for name, allowed in (("mode", ("wave", "orders")), ("normalization", ("sum", "peak"))):
            if (value := getattr(self, name)) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}, not {value!r}")
        check_count("workers", self.workers)
        check_one_line("run.out_dir", self.out_dir)
        check_one_line("run.prefix", self.prefix)
        if any(sep and sep in self.prefix for sep in (os.sep, os.altsep)):
            raise ValueError(f"run.prefix {self.prefix!r} must be a file-name stem, not a path")


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

    def __post_init__(self) -> None:  # one laser waist: the vertical average spans the beam's
        laser_waist, waist_y = self.vertical.laser_waist, self.beam.waist_y
        if laser_waist != waist_y:
            raise ValueError(f"vertical.laser_waist {laser_waist!r} != beam.waist_y {waist_y!r}")


# --- parsers and formatters ---------------------------------------------
def _parse_float(raw: str, convert: Callable[[str], float] = float) -> float:
    """A float key's value by ``convert``; text that is no finite number raises ValueError."""
    try:
        value = convert(raw)
    except (ValueError, ArithmeticError):  # decimal.InvalidOperation among them
        raise ValueError(f"not a number: {raw!r}")
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


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
    """Codec of a float key given in units of 10^exponent SI (nm: -9).

    The exponent shifts in decimal both ways: '50' um parses to the correctly
    rounded double of the SI quantity, the literal 50e-6, with no multiply
    rounding, and a value formats to text that parses back to exactly it
    (repr is exact).
    """
    return (
        lambda raw: _parse_float(raw, lambda text: float(Decimal(text).scaleb(exponent))),
        lambda value: format(Decimal(repr(value)).scaleb(-exponent), "f"),
    )


# --- the table: one row per key -----------------------------------------
class _Key(NamedTuple):
    section: str
    key: str
    path: str  # attribute of SimulationConfig, dotted
    codec: Codec


_KEYS: tuple[_Key, ...] = (
    _Key("beam", "wavelength_nm", "beam.wavelength", _unit(-9)),
    _Key("beam", "power_w", "beam.power", _FLOAT),
    _Key("beam", "waist_y_mm", "beam.waist_y", _unit(-3)),
    _Key("beam", "waist_z_um", "beam.waist_z", _unit(-6)),
    _Key("geometry", "slit1_um", "geometry.slit1", _unit(-6)),
    _Key("geometry", "slit2_um", "geometry.slit2", _unit(-6)),
    _Key("geometry", "l12_m", "geometry.L12", _FLOAT),
    _Key("geometry", "l2d_m", "geometry.L2D", _FLOAT),
    _Key("geometry", "detector_span_um", "geometry.detector_span", _unit(-6)),
    _Key("velocity", "v_peak", "velocity.v_peak", _FLOAT),
    _Key("velocity", "fwhm_ratio", "velocity.fwhm_ratio", _FLOAT),
    _Key("velocity", "histogram_file", "velocity_histogram_file", _PATH),
    _Key("vertical", "beam_fwhm_um", "vertical.beam_fwhm", _unit(-6)),
    _Key("detector", "width_um", "detector.width", _unit(-6)),
    _Key("detector", "step_um", "detector.step", _unit(-6)),
    _Key("detector", "kernel", "detector.kernel_shape", _TEXT),
    _Key("quadrature", "velocity_nodes", "quadrature.velocity_nodes", _INT),
    _Key("quadrature", "vertical_nodes", "quadrature.vertical_nodes", _INT),
    _Key("quadrature", "source_nodes", "quadrature.source_nodes", _INT),
    _Key("numerics", "samples_per_period", "numerics.samples_per_period", _INT),
    _Key("numerics", "pad_factor", "numerics.pad_factor", _INT),
    _Key("numerics", "tail_eps", "numerics.tail_eps", _FLOAT),
    _Key("numerics", "m_max", "numerics.m_max", _INT),
    _Key("numerics", "internal_step_um", "numerics.internal_step", _unit(-6)),
    _Key("run", "mode", "run.mode", _TEXT),
    _Key("run", "normalization", "run.normalization", _TEXT),
    _Key("run", "workers", "run.workers", _INT),
    _Key("run", "convergence_check", "run.convergence_check", _BOOL),
    _Key("run", "out_dir", "run.out_dir", _TEXT),
    _Key("run", "prefix", "run.prefix", _TEXT),
)

# the three fields of a custom species: its mass, and its polarizability's parts
_CUSTOM_SPECIES = ("mass_amu", "alpha_re_a3", "alpha_im_a3")

# section -> keys the parser accepts; anything else is fatal.
_SCHEMA: dict[str, tuple[str, ...]] = {"species": ("name", *_CUSTOM_SPECIES)}
for _row in _KEYS:
    _SCHEMA[_row.section] = _SCHEMA.get(_row.section, ()) + (_row.key,)

_ROWS = {(row.section, row.key): row for row in _KEYS}
_GETTERS = tuple(attrgetter(row.path) for row in _KEYS)
_DEFAULT = SimulationConfig()  # built once: each key's default is its field here


def _apply(fields: dict[str, Any], row: _Key, raw: str):
    """Set ``row``'s value from ``raw`` in ``fields`` by ``replace``; return it (or ValueError)."""
    value = row.codec[0](raw)
    group, _, attr = row.path.partition(".")
    holder = fields.get(group, getattr(_DEFAULT, group))
    fields[group] = replace(holder, **{attr: value}) if attr else value
    return value


def parse_value(section: str, key: str, raw: str):
    """One key's value from its text, checked by the dataclass that holds it (or ValueError)."""
    return _apply({}, _ROWS[section, key], raw)


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
    def blame(*keys: tuple[str, str]):
        """A fault (arithmetic too) as a ConfigError at the first of ``keys`` set, else the last."""
        at = next((key for key in keys if key in raw), keys[-1])
        try:
            yield
        except (OSError, ValueError, ArithmeticError) as exc:
            raise ConfigError(str(exc), key=".".join(at), line=lines.get(at)) from exc

    # --- species: a catalog name, or all three custom fields -----------
    name = raw.get(("species", "name"), _DEFAULT.species.name)
    custom = {}
    for key in _CUSTOM_SPECIES:
        if ("species", key) in raw:
            with blame(("species", key)):
                custom[key] = _parse_float(raw["species", key])
    if custom:
        with blame(("species", next(iter(custom)))):
            if missing := [key for key in _CUSTOM_SPECIES if key not in custom]:
                raise ValueError(f"custom species needs {', '.join(missing)} as well")
        with blame(("species", "mass_amu")):
            species = replace(_DEFAULT.species, mass_amu=custom["mass_amu"])
        polarizability = species.polarizability
        for key, attr in zip(_CUSTOM_SPECIES[1:], ("real_volume", "imag_volume")):
            with blame(("species", key)):
                polarizability = replace(polarizability, **{attr: custom[key]})
        with blame(("species", "name")):
            species = replace(species, name=name, polarizability=polarizability)
    elif name in CATALOG:
        species = CATALOG[name]
    else:
        with blame(("species", "name")):
            raise ValueError(
                f"unknown species {name!r}; catalog has {', '.join(sorted(CATALOG))} "
                "(or define mass_amu/alpha_re_a3/alpha_im_a3 inline)"
            )

    # --- every other key: one table row each, in table order ------------
    fields: dict[str, Any] = {}
    for row in _KEYS:
        if (row.section, row.key) in raw:
            with blame((row.section, row.key)):
                _apply(fields, row, raw[row.section, row.key])
    if ("beam", "waist_y_mm") in raw:  # the vertical average spans the laser's waist
        vertical = fields.get("vertical", _DEFAULT.vertical)
        fields["vertical"] = replace(vertical, laser_waist=fields["beam"].waist_y)

    # --- a measured velocity histogram replaces the gaussian's v_peak ---
    if histogram_file := fields.get("velocity_histogram_file"):
        with blame(("velocity", "histogram_file")):
            loaded = load_velocity_histogram(Path(base_dir or ".") / histogram_file)
        fwhm_ratio = fields.get("velocity", _DEFAULT.velocity).fwhm_ratio
        fields["velocity"] = replace(loaded, fwhm_ratio=fwhm_ratio)
    cfg = replace(_DEFAULT, species=species, **fields)

    # --- each array a run allocates, sized without building it, blaming the
    # keys that size it, most direct first (the common grid, 3 detector widths
    # past the span, bounds the kernel's taps too; a convergence check doubles rules)
    span, width = ("geometry", "detector_span_um"), ("detector", "width_um")
    with blame(("detector", "step_um"), span):
        _scan_half(cfg.geometry, cfg.detector.step)
    step, internal_step = ("numerics", "internal_step_um"), cfg.numerics.internal_step
    with blame(step, width, span):
        n_half = _internal_half(cfg.geometry, cfg.detector.width, internal_step)
    doubled, check = 2 if cfg.run.convergence_check else 1, ("run", "convergence_check")
    for key in ("velocity_nodes", "vertical_nodes", "source_nodes"):
        with blame(("quadrature", key), check):
            check_nodes(f"the {key.split('_')[0]} rule", doubled * getattr(cfg.quadrature, key))
    if ("numerics", "m_max") in raw:  # at Phi = 0, the least; the default fits any tail_eps
        with blame(("numerics", "m_max")):
            samples_per_laser_period(ComplexPhase(0, 0), cfg.numerics.m_max, cfg.numerics.tail_eps)
    if cfg.run.mode == "orders":  # the common grid padded by a shadow's span
        shadow = [("geometry", key) for key in ("slit1_um", "slit2_um", "l2d_m", "l12_m")]
        dx = (1 - n_half) * internal_step + n_half * internal_step  # _internal_grid's x[1] - x[0]
        with blame(*shadow, step):
            _shadow_span(cfg.geometry, dx, 2 * n_half + 1)
    window = ("numerics", "samples_per_period"), ("geometry", "slit2_um"), ("beam", "wavelength_nm")
    if cfg.run.mode == "wave":  # the arrays of wave mode alone
        with blame(*window):
            grid = window_grid(cfg.beam, cfg.geometry, cfg.numerics.samples_per_period)
        with blame(("numerics", "pad_factor"), *window):
            _fft_length(grid, cfg.numerics.pad_factor)
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
