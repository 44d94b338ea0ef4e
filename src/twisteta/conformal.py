"""Constant conformal rescaling of the metric/flux pair and rho invariance.

Normalization: the rescaled metric is ``exp(2u) g``, so lengths scale by
``exp(u)`` and any first-order geometric operator by ``exp(-u)``.  The flux
components rescale degree by degree, ``H_{2j+1} -> exp(-(2j+2) u) H_{2j+1}``
(the ``i^{j+1}`` factors stay implicit in the flux container).  For the
constant top-degree flux of the spectral models the combination of the
coefficient factor ``exp(-4u)`` with the ``exp(3u)`` volume-frame rescaling
of the Clifford action nets to the forced operator scaling: the whole
spectrum is multiplied by ``exp(-u)``, which is exactly what conjugating the
operator by the constant spinor weights produces.

Only constant factors are supported - non-constant ones would turn the
rescaling into a genuine function multiplication operator outside the
exact-spectrum models.  Eta, kernel dimension, xi and rho are invariant
under any positive rescaling of the spectrum, so rho depends only on the
conformal class of the pair; :func:`check_rho_conformal` measures this.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, inf
from typing import Sequence

from .clifford import FluxForm
from .eta import _value, rho_sweep
from .models import SpectralModel

__all__ = [
    "ConformalScale",
    "transform_flux",
    "transform_spectrum",
    "check_rho_conformal",
]


@dataclass(frozen=True)
class ConformalScale:
    """Constant log-factor u of the rescaled metric ``exp(2u) g``."""

    u: float

    def __post_init__(self):
        try:
            ok = all(0.0 < f < inf for f in (exp(self.u), exp(-self.u)))
        except OverflowError:
            ok = False
        if not ok:  # NaN fails too
            raise ValueError("conformal factor exp(u) and exp(-u) must be finite and "
                             f"nonzero, got u = {self.u!r}")


def transform_flux(flux: FluxForm, scale: ConformalScale) -> FluxForm:
    """Degree-(2j+1) coefficients multiplied by ``exp(-(2j+2) u)``."""
    comps = []
    for comp in flux.components:
        j = (comp.degree - 1) // 2
        comps.append(comp.scaled(exp(-(2 * j + 2) * scale.u)))
    return FluxForm(tuple(comps))


def transform_spectrum(model: SpectralModel, scale: ConformalScale) -> SpectralModel:
    """Model with metric lengths scaled by ``exp(u)`` and the operator shift
    by ``exp(-u)``; its spectrum is elementwise ``exp(-u)`` times the
    original one, multiplicities unchanged."""
    s = exp(scale.u)
    return SpectralModel(model.geometry.scaled(s), model.bundle, model.flux_shift / s)


def check_rho_conformal(model: SpectralModel, scales: Sequence[float]) -> float:
    """Max over the scale grid of ``|rho(transformed) - rho(original)|``,
    each rho from the exact Hurwitz engine, all in one pass per family table
    (``eta.rho_sweep``)."""
    models = [model, *(transform_spectrum(model, ConformalScale(float(u))) for u in scales)]
    base, *values = (_value(value).rho for value in rho_sweep(models))
    worst = 0.0
    for value in values:
        worst = max(worst, abs(value - base))
    return worst
