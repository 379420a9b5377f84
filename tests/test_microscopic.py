"""Microscopic relations: phonon rates, dipolar couplings, variance average."""
import math

import numpy as np
import pytest

import tlfsim as ts
from tlfsim.errors import InvalidInputError

MAT2 = ts.MaterialParams(chi=1.0, d=2, j0=1.0, r0=1.0, cos_theta=0.7)
MAT3 = ts.MaterialParams(chi=1.0, d=3, j0=1.0, r0=1.0, cos_theta=0.7)

MC_KW = dict(density=1.0, u_min=1e-4, eps_max=10.0, r_max=1000.0)


class TestTlsMicro:
    def test_derived_quantities(self):
        tls = ts.TlsMicro(delta=3.0, delta0=4.0)
        assert tls.epsilon == pytest.approx(5.0, abs=1e-15)
        assert tls.u == pytest.approx(0.64, abs=1e-15)

    def test_negative_tunnel_splitting_rejected(self):
        with pytest.raises(InvalidInputError):
            ts.TlsMicro(delta=1.0, delta0=-0.1)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            ts.MaterialParams(chi=1.0, d=1, j0=1.0, r0=1.0, cos_theta=0.5)
        with pytest.raises(InvalidInputError):
            ts.MaterialParams(chi=0.0, d=2, j0=1.0, r0=1.0, cos_theta=0.5)
        with pytest.raises(InvalidInputError):
            ts.MaterialParams(chi=1.0, d=2, j0=1.0, r0=1.0, cos_theta=1.5)


class TestRelaxationRate:
    def test_no_tunneling_no_relaxation(self):
        assert ts.relaxation_rate(ts.TlsMicro(delta=1.0, delta0=0.0), MAT2, 0.1) == 0.0

    def test_two_dimensional_symmetric(self):
        # d = 2 drops the eps power; symmetric well keeps only delta0^2 coth
        delta0 = 0.3
        tls = ts.TlsMicro(delta=0.0, delta0=delta0)
        kt = 0.2
        ref = delta0**2 / math.tanh(delta0 / (2 * kt))
        assert ts.relaxation_rate(tls, MAT2, kt) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("mat", [MAT2, MAT3], ids=["d2", "d3"])
    def test_thermal_border_power_law(self, mat):
        # at eps = delta0 = kT the maximal rate scales as T^d
        def gmax(kt):
            return ts.relaxation_rate(ts.TlsMicro(delta=0.0, delta0=kt), mat, kt)

        assert gmax(0.2) / gmax(0.1) == pytest.approx(2**mat.d, rel=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(InvalidInputError):
            ts.relaxation_rate(ts.TlsMicro(delta=1.0, delta0=0.5), MAT2, 0.0)


class TestCouplingFromGeometry:
    def test_contact_value(self):
        mat = ts.MaterialParams(chi=1.0, d=3, j0=2.5, r0=1.0, cos_theta=1.0)
        assert ts.coupling_from_geometry(mat, 1.0, 1e-12, +1) == pytest.approx(
            2.5, rel=1e-6)

    def test_symmetric_tlf_decouples(self):
        assert ts.coupling_from_geometry(MAT2, 2.0, 1.0, +1) == 0.0

    def test_doubled_distance_2d(self):
        u = 0.36
        ref = MAT2.j0 * MAT2.cos_theta * math.sqrt(1 - u) / 4.0
        assert ts.coupling_from_geometry(MAT2, 2.0, u, +1) == pytest.approx(
            ref, rel=1e-14)
        assert ts.coupling_from_geometry(MAT2, 2.0, u, -1) == pytest.approx(
            -ref, rel=1e-14)

    def test_below_cutoff_rejected(self):
        with pytest.raises(InvalidInputError):
            ts.coupling_from_geometry(MAT2, 0.5, 0.3, +1)


def reference_variance_mc(mat, density, u_min, eps_max, r_max, kt, n_samples, rng):
    """The Monte-Carlo average as it was written before it worked in place:
    each step of the weight a new array."""
    d = mat.d
    z_r = (mat.r0**-d - r_max**-d) / d
    log_span = math.log(1.0 / u_min)
    u = u_min ** (1.0 - rng.uniform(0.0, 1.0, n_samples))
    eps = rng.uniform(0.0, eps_max, n_samples)
    sech2 = 1.0 / np.cosh(eps / (2.0 * kt)) ** 2
    prefactor = ((2.0 * math.pi if d == 2 else 4.0 * math.pi) * density * mat.j0**2
                 * mat.cos_theta**2 * mat.r0 ** (2 * d) * z_r * eps_max * log_span / 2.0)
    weights = prefactor * np.sqrt(1.0 - u) * sech2
    return float(weights.mean()), float(weights.std(ddof=1) / math.sqrt(n_samples))


class TestAverageVarianceMc:
    @pytest.mark.parametrize("mat", [MAT2, MAT3], ids=["d2", "d3"])
    @pytest.mark.parametrize("kt", [0.02, 0.1, 7.0])
    def test_matches_reference_bytes(self, mat, kt):
        est = ts.average_variance_mc(mat, kt=kt, n_samples=30_000,
                                     rng=np.random.default_rng(21), **MC_KW)
        ref = reference_variance_mc(mat, kt=kt, n_samples=30_000,
                                    rng=np.random.default_rng(21), **MC_KW)
        assert (est.value, est.stderr) == ref

    def test_linear_temperature_law(self):
        # kT in {1, 2, 4} * kT0, all << epsMax: a line through the origin
        kt0 = 0.05
        ests = {s: ts.average_variance_mc(MAT2, kt=s * kt0, n_samples=200_000,
                                          rng=np.random.default_rng(11), **MC_KW)
                for s in (1, 2, 4)}
        slope = ests[1].value / kt0
        for s in (2, 4):
            resid = ests[s].value - slope * s * kt0
            assert abs(resid) < 3 * (ests[s].stderr + s * ests[1].stderr)

    @pytest.mark.parametrize("mat", [MAT2, MAT3], ids=["d2", "d3"])
    def test_fitted_temperature_exponent(self, mat):
        kts = np.array([0.05, 0.1, 0.2, 0.4])
        vals = np.array([
            ts.average_variance_mc(mat, kt=kt, n_samples=100_000,
                                   rng=np.random.default_rng(500), **MC_KW).value
            for kt in kts
        ])
        exponent = np.polyfit(np.log(kts), np.log(vals), 1)[0]
        assert abs(exponent - 1.0) < 0.1

    def test_cos_theta_quadrupling(self):
        half = ts.MaterialParams(chi=1.0, d=2, j0=1.0, r0=1.0, cos_theta=0.35)
        lo = ts.average_variance_mc(half, kt=0.1, n_samples=200_000,
                                    rng=np.random.default_rng(7), **MC_KW)
        hi = ts.average_variance_mc(MAT2, kt=0.1, n_samples=200_000,
                                    rng=np.random.default_rng(7), **MC_KW)
        ratio_err = 4.0 * (lo.stderr / lo.value + hi.stderr / hi.value)
        assert abs(hi.value / lo.value - 4.0) < 3 * ratio_err + 1e-9

    def test_monotone_in_temperature(self):
        vals = [ts.average_variance_mc(MAT2, kt=kt, n_samples=100_000,
                                       rng=np.random.default_rng(3), **MC_KW).value
                for kt in (0.02, 0.05, 0.1, 0.2)]
        assert all(v >= 0 for v in vals)
        assert vals == sorted(vals)

    def test_stderr_scaling(self):
        small = ts.average_variance_mc(MAT2, kt=0.1, n_samples=10_000,
                                       rng=np.random.default_rng(42), **MC_KW)
        large = ts.average_variance_mc(MAT2, kt=0.1, n_samples=1_000_000,
                                       rng=np.random.default_rng(43), **MC_KW)
        ratio = small.stderr / large.stderr
        assert 5.0 < ratio < 20.0  # ideal sqrt(100) = 10, within a factor of 2

    def test_determinism(self):
        a = ts.average_variance_mc(MAT2, kt=0.1, n_samples=50_000,
                                   rng=np.random.default_rng(99), **MC_KW)
        b = ts.average_variance_mc(MAT2, kt=0.1, n_samples=50_000,
                                   rng=np.random.default_rng(99), **MC_KW)
        assert a.value == b.value and a.stderr == b.stderr

    def test_truncation_remainder(self):
        est = ts.average_variance_mc(MAT2, kt=0.1, n_samples=10_000,
                                     rng=np.random.default_rng(1), **MC_KW)
        assert est.truncation_remainder == pytest.approx(1e-6, rel=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            ts.average_variance_mc(MAT2, density=1.0, u_min=0.0, eps_max=10.0,
                                   r_max=1000.0, kt=0.1, n_samples=10_000, rng=rng)
        with pytest.raises(InvalidInputError):
            ts.average_variance_mc(MAT2, density=1.0, u_min=1e-4, eps_max=10.0,
                                   r_max=1000.0, kt=0.1, n_samples=9_999, rng=rng)
        with pytest.raises(InvalidInputError):
            ts.average_variance_mc(MAT2, density=1.0, u_min=1e-4, eps_max=10.0,
                                   r_max=0.5, kt=0.1, n_samples=10_000, rng=rng)
