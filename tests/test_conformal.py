import numpy as np
import pytest

from twisteta.clifford import FluxForm, FormComponent
from twisteta.conformal import (
    ConformalScale,
    check_rho_conformal,
    transform_flux,
    transform_spectrum,
)
from twisteta.eta import eta_for_model, rho
from twisteta.models import (
    Circle,
    CircleHolonomy,
    Lens,
    LensCharacter,
    SpectralModel,
    Sphere3,
    Torus3,
    TorusHolonomy,
    enumerate_spectrum,
)


def test_transform_flux_identity():
    flux = FluxForm.top(3, 2.5)
    out = transform_flux(flux, ConformalScale(0.0))
    assert out == flux


def test_transform_flux_degree3_quarter():
    flux = FluxForm.top(3, 1.0)  # degree 3, j = 1, factor exp(-4u)
    out = transform_flux(flux, ConformalScale(0.25))
    assert out.components[0].terms[0][1] == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_transform_flux_degree1_half():
    flux = FluxForm((FormComponent.single((0,), 1.0),))  # j = 0, factor exp(-2u)
    out = transform_flux(flux, ConformalScale(0.5))
    assert out.components[0].terms[0][1] == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_transform_flux_group_action():
    flux = FluxForm((FormComponent.single((0,), 0.7),
                     FormComponent.single((0, 1, 2), 1.3)))
    one = transform_flux(transform_flux(flux, ConformalScale(0.4)), ConformalScale(0.35))
    two = transform_flux(flux, ConformalScale(0.75))
    for a, b in zip(one.components, two.components):
        assert a.terms[0][1] == pytest.approx(b.terms[0][1], rel=1e-14)


def test_transform_spectrum_identity():
    model = SpectralModel(Sphere3(1.0), flux_shift=0.1)
    assert transform_spectrum(model, ConformalScale(0.0)) == model


def test_transform_spectrum_sphere_example():
    model = SpectralModel(Sphere3(1.0), flux_shift=0.1)
    out = transform_spectrum(model, ConformalScale(np.log(2.0)))
    assert out.geometry.radius == pytest.approx(2.0)
    assert out.flux_shift == pytest.approx(0.05)
    s0 = enumerate_spectrum(model, 60)
    s1 = enumerate_spectrum(out, 60)
    assert s0.shape == s1.shape
    assert np.max(np.abs(s1[:, 0] - 0.5 * s0[:, 0])) <= 1e-12
    assert np.array_equal(s1[:, 1], s0[:, 1])


def _expanded(spec):
    return np.repeat(spec[:, 0], spec[:, 1].astype(np.int64))


@pytest.mark.parametrize("model", [
    SpectralModel(Circle(1.0), CircleHolonomy(0.25)),
    SpectralModel(Sphere3(1.0), flux_shift=0.1),
    SpectralModel(Torus3((1.0, 1.3, 0.7)), TorusHolonomy((0.2, 0.0, 0.0)), flux_shift=0.3),
    SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=0.1),
])
def test_spectrum_scaling_law(model):
    # compare as multiplicity-expanded multisets: value-merge bucketing is a
    # representation detail and not scale-stable at float collisions
    cutoff = 20 if isinstance(model.geometry, Torus3) else 80
    for u in (-1.0, 1.0):
        out = transform_spectrum(model, ConformalScale(u))
        s0 = _expanded(enumerate_spectrum(model, cutoff))
        s1 = _expanded(enumerate_spectrum(out, cutoff))
        factor = np.exp(-u)
        assert s0.size == s1.size
        assert np.max(np.abs(np.sort(s1) - factor * np.sort(s0))) <= 1e-10


def test_invariants_under_rescaling():
    model = SpectralModel(Lens(3), LensCharacter(3, 2), flux_shift=0.2)
    base = eta_for_model(model, "hurwitz")
    for u in (-0.8, 0.5):
        scaled = transform_spectrum(model, ConformalScale(u))
        out = eta_for_model(scaled, "hurwitz")
        assert out.eta == pytest.approx(base.eta, abs=1e-12)
        assert out.kernel_dim == base.kernel_dim
        assert out.xi == pytest.approx(base.xi, abs=1e-12)


def test_check_rho_conformal_circle():
    dev = check_rho_conformal(
        SpectralModel(Circle(1.0), CircleHolonomy(0.25)), [-1.0, -0.5, 0.5, 1.0])
    assert dev <= 1e-12


def test_check_rho_conformal_trivial_bundle():
    dev = check_rho_conformal(SpectralModel(Sphere3(1.0), flux_shift=0.1),
                              [-1.0, 1.0])
    assert dev == 0.0


def test_check_rho_conformal_lens():
    dev = check_rho_conformal(
        SpectralModel(Lens(3), LensCharacter(3, 1), flux_shift=0.1),
        [-1.0, -0.5, 0.5, 1.0])
    assert dev <= 1e-8


def test_rho_value_invariant_heat_engine():
    model = SpectralModel(Lens(2), LensCharacter(2, 1))
    base = rho(model, engine="heat_kernel", cutoff=200).rho
    scaled = transform_spectrum(model, ConformalScale(0.5))
    out = rho(scaled, engine="heat_kernel", cutoff=200).rho
    assert out == pytest.approx(base, abs=1e-8)


def test_conformal_scale_validation():
    with pytest.raises(ValueError):
        ConformalScale(float("nan"))
    with pytest.raises(ValueError):
        ConformalScale(float("inf"))
