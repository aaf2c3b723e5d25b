"""Physical constants, species catalog, and optical-property conversions."""

import math

import pytest

from lightgrating.species import (
    AMU,
    C60,
    C70,
    C_LIGHT,
    CATALOG,
    EPS0,
    H,
    HBAR,
    ComplexPolarizability,
    MoleculeSpecies,
    absorption_cross_section,
    de_broglie_wavelength,
    polarizability_si,
)


class TestConstants:
    def test_codata_values(self):
        assert H == pytest.approx(6.62607015e-34, rel=1e-15)
        assert C_LIGHT == 299792458.0
        assert EPS0 == 8.8541878128e-12
        assert AMU == 1.66053906660e-27

    def test_hbar_is_h_over_two_pi(self):
        assert H == 2.0 * math.pi * HBAR


class TestPolarizability:
    def test_si_conversion_c70(self):
        # oracle: 4*pi*eps0 * 1e-30 * (118 + 20i), evaluated independently
        si = polarizability_si(C70.polarizability)
        assert si.real == pytest.approx(1.3129270654284874e-38, rel=1e-14)
        assert si.imag == pytest.approx(2.225300110895741e-39, rel=1e-14)

    def test_si_conversion_c60(self):
        si = polarizability_si(C60.polarizability)
        assert si.real == pytest.approx(1.1237765560023492e-38, rel=1e-14)
        assert si.imag == pytest.approx(8.901200443582964e-40, rel=1e-14)

    def test_si_property_matches_function(self):
        pol = ComplexPolarizability(50.0, 3.0)
        assert pol.si == polarizability_si(pol)

    def test_negative_imaginary_part_rejected(self):
        with pytest.raises(ValueError):
            ComplexPolarizability(100.0, -1.0)

    def test_zero_imaginary_part_allowed(self):
        pol = ComplexPolarizability(100.0, 0.0)
        assert pol.si.imag == 0.0


class TestSpecies:
    def test_catalog_entries(self):
        assert CATALOG["C60"] is C60
        assert CATALOG["C70"] is C70
        assert C60.mass_amu == 720.0
        assert C70.mass_amu == 840.0
        assert C60.polarizability.real_volume == 101.0
        assert C60.polarizability.imag_volume == 8.0
        assert C70.polarizability.real_volume == 118.0
        assert C70.polarizability.imag_volume == 20.0

    def test_mass_in_kilograms(self):
        assert C60.mass_kg == pytest.approx(720.0 * AMU, rel=1e-15)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ValueError):
            MoleculeSpecies("X", 0.0, ComplexPolarizability(1.0, 0.0))
        with pytest.raises(ValueError):
            MoleculeSpecies("X", -5.0, ComplexPolarizability(1.0, 0.0))

    @pytest.mark.parametrize(
        "name", ["a #b", "a ;b", "a\t#b", "#a", ";a", " a", "a ", "a\nb", "a\r"]
    )
    def test_name_that_would_not_read_back_is_refused(self, name):
        with pytest.raises(ValueError, match="species.name .* would not read back"):
            MoleculeSpecies(name, 100.0, ComplexPolarizability(1.0, 0.0))

    @pytest.mark.parametrize("name", [*CATALOG, "a#b", "a;b", "C60 (hot)", ""])
    def test_names_that_read_back_are_accepted(self, name):
        assert MoleculeSpecies(name, 100.0, ComplexPolarizability(1.0, 0.0)).name == name


class TestAbsorptionCrossSection:
    K_514 = 2.0 * math.pi / 514.5e-9

    def test_c60_value(self):
        # oracle: Im(alpha_SI) * k / eps0 evaluated independently
        sigma = absorption_cross_section(C60, self.K_514)
        assert sigma == pytest.approx(1.2277058924581516e-21, rel=1e-13)

    def test_c70_value(self):
        sigma = absorption_cross_section(C70, self.K_514)
        assert sigma == pytest.approx(3.0692647311453784e-21, rel=1e-13)

    def test_literature_agreement_within_five_percent(self):
        # measured 514.5 nm cross sections: 1.2e-17 cm^2 (C60), 3.1e-17 cm^2 (C70)
        sigma60 = absorption_cross_section(C60, self.K_514) * 1e4
        sigma70 = absorption_cross_section(C70, self.K_514) * 1e4
        assert abs(sigma60 - 1.2e-17) / 1.2e-17 < 0.05
        assert abs(sigma70 - 3.1e-17) / 3.1e-17 < 0.05

    def test_round_trip_inversion(self):
        # sigma -> Im(alpha) inverts the conversion to high precision
        sigma = absorption_cross_section(C70, self.K_514)
        imag_si = sigma * EPS0 / self.K_514
        imag_volume = imag_si / (4.0 * math.pi * EPS0 * 1e-30)
        assert imag_volume == pytest.approx(20.0, rel=1e-12)

    def test_linear_in_wavenumber(self):
        assert absorption_cross_section(C60, 2.0 * self.K_514) == pytest.approx(
            2.0 * absorption_cross_section(C60, self.K_514), rel=1e-14
        )

    def test_zero_for_purely_real_polarizability(self):
        species = MoleculeSpecies("X", 100.0, ComplexPolarizability(50.0, 0.0))
        assert absorption_cross_section(species, self.K_514) == 0.0


class TestDeBroglieWavelength:
    def test_c60_at_120(self):
        # oracle: h / (720 amu * 120 m/s) evaluated independently
        assert de_broglie_wavelength(C60, 120.0) == pytest.approx(
            4.61841749337083e-12, rel=1e-13
        )

    def test_c70_at_120(self):
        assert de_broglie_wavelength(C70, 120.0) == pytest.approx(
            3.9586435657464264e-12, rel=1e-13
        )

    def test_inverse_velocity_scaling(self):
        assert de_broglie_wavelength(C60, 240.0) == pytest.approx(
            0.5 * de_broglie_wavelength(C60, 120.0), rel=1e-14
        )

    def test_nonpositive_velocity_rejected(self):
        with pytest.raises(ValueError):
            de_broglie_wavelength(C60, 0.0)
        with pytest.raises(ValueError):
            de_broglie_wavelength(C60, -120.0)
