"""The public API: the names ``lightgrating`` exports, and the README's example."""

import ast
import contextlib
import io
import re
from pathlib import Path

import lightgrating

README = Path(__file__).resolve().parents[1] / "README.md"

# A name leaves or joins the public API only together with this list.
PUBLIC_API = [
    "BeamlineGeometry",
    "C60",
    "C70",
    "CATALOG",
    "ComplexPhase",
    "ComplexPolarizability",
    "ConfigError",
    "DetectorModel",
    "DiffractionPattern",
    "GratingBeam",
    "GridSpec",
    "MoleculeSpecies",
    "OrderSpectrum",
    "SimulationConfig",
    "VelocityDistribution",
    "VerticalProfile",
    "__version__",
    "absorbed_fractions",
    "absorption_cross_section",
    "compare_patterns",
    "compute_phi",
    "config_digest",
    "de_broglie_wavelength",
    "ensemble_pattern",
    "ensemble_patterns",
    "incoherent_order_intensities",
    "load_config_file",
    "order_slot_spacing",
    "parse_config",
    "pattern_metrics",
    "poisson_weight",
    "polarizability_si",
    "raman_nath_diagnostic",
    "read_pattern_csv",
    "run_simulate",
    "serialize_config",
    "summarize",
    "truncation_order",
    "write_pattern_csv",
]


def readme_python_block():
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def test_public_api_is_pinned():
    assert sorted(lightgrating.__all__) == PUBLIC_API


def test_every_export_resolves():
    namespace = {}
    exec("from lightgrating import *", namespace)
    for name in PUBLIC_API:
        assert getattr(lightgrating, name) is namespace[name], name


def test_readme_example_imports_only_public_names():
    block = readme_python_block()
    imported = re.search(r"from lightgrating import \((.*?)\)", block, re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert names and names <= set(PUBLIC_API)


def test_readme_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(readme_python_block(), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 2
    # the zero order at 9.5 W, then the efficiencies near the zero-order null
    assert 0.0 < float(lines[0].split()[0]) < 1.0
    efficiencies = ast.literal_eval(lines[1])
    assert efficiencies[0] < 0.05
