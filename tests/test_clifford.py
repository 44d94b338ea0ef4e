import itertools

import numpy as np
import pytest

from twisteta.clifford import (
    FluxForm,
    FormComponent,
    boundary_reduction_check,
    build_even_gamma_rep,
    build_gamma_rep,
    clifford_action,
    degree_adjointness,
    flux_action,
    grading_anticommute_check,
    grading_operator,
)

TOL = 1e-12


def opnorm(m):
    return float(np.linalg.norm(m, 2))


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_clifford_relations(n):
    rep = build_gamma_rep(n)
    assert rep.spinor_dim == 2 ** ((n - 1) // 2)
    eye = rep.identity()
    for i in range(n):
        gi = rep.gammas[i]
        assert opnorm(gi + gi.conj().T) <= 1e-14          # skew-adjoint
        assert opnorm(gi.conj().T @ gi - eye) <= 1e-14    # unitary
        for j in range(n):
            anti = gi @ rep.gammas[j] + rep.gammas[j] @ gi
            assert opnorm(anti + 2.0 * (i == j) * eye) <= 1e-14


def test_dim1_generator_is_minus_i():
    rep = build_gamma_rep(1)
    assert rep.gammas[0][0, 0] == -1j


def test_dim3_volume_product_convention():
    # direct multiplication oracle: c(e0) c(e1) c(e2) = -I in the pinned basis
    rep = build_gamma_rep(3)
    prod = rep.gammas[0] @ rep.gammas[1] @ rep.gammas[2]
    assert opnorm(prod + rep.identity()) == 0.0


def test_build_is_deterministic():
    a, b = build_gamma_rep(7), build_gamma_rep(7)
    for x, y in zip(a.gammas, b.gammas):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", [0, 2, 4, 11, -3])
def test_build_rejects_bad_dimension(n):
    with pytest.raises(ValueError):
        build_gamma_rep(n)


def test_clifford_action_scalar():
    rep = build_gamma_rep(3)
    mat = clifford_action(rep, FormComponent.single((), 5.0))
    assert np.array_equal(mat, 5.0 * rep.identity())


def test_clifford_action_volume_form():
    rep = build_gamma_rep(3)
    mat = clifford_action(rep, FormComponent.single((0, 1, 2), 1.0))
    assert opnorm(mat + rep.identity()) == 0.0


def test_clifford_action_degree_one():
    rep = build_gamma_rep(3)
    mat = clifford_action(rep, FormComponent.single((0,), 1.0))
    assert np.array_equal(mat, rep.gammas[0])
    assert opnorm(mat + mat.conj().T) == 0.0  # skew-adjoint


def test_clifford_action_rejects_out_of_range_index():
    rep = build_gamma_rep(3)
    with pytest.raises(ValueError):
        clifford_action(rep, FormComponent.single((0, 1, 3), 1.0))


def test_form_component_validation():
    with pytest.raises(ValueError):
        FormComponent(degree=2, terms=(((1, 0), 1.0),))  # not increasing
    with pytest.raises(ValueError):
        FormComponent(degree=2, terms=(((0,), 1.0),))    # wrong length


def test_flux_action_zero():
    rep = build_gamma_rep(3)
    assert opnorm(flux_action(rep, FluxForm(()))) == 0.0


def test_flux_action_top_degree_is_scalar_shift():
    # H3 = t vol has j=1, factor i^2 = -1; with c(vol) = -I the action is +t I
    rep = build_gamma_rep(3)
    for t in (0.5, -1.25):
        mat = flux_action(rep, FluxForm.top(3, t))
        assert opnorm(mat - t * rep.identity()) <= 1e-15


def test_flux_action_degree_one_self_adjoint():
    rep = build_gamma_rep(3)
    flux = FluxForm((FormComponent.single((0,), 1.0),))
    mat = flux_action(rep, flux)
    assert opnorm(mat - 1j * rep.gammas[0]) == 0.0
    assert opnorm(mat - mat.conj().T) == 0.0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_flux_action_self_adjoint_random(n):
    rng = np.random.default_rng(n)
    rep = build_gamma_rep(n)
    comps = []
    for deg in range(1, n + 1, 2):
        terms = {idx: rng.standard_normal() for idx in itertools.combinations(range(n), deg)}
        comps.append(FormComponent.from_terms(deg, terms))
    mat = flux_action(rep, FluxForm(tuple(comps)))
    assert opnorm(mat - mat.conj().T) <= TOL


def test_flux_form_rejects_even_or_complex():
    with pytest.raises(ValueError):
        FluxForm((FormComponent.single((0, 1), 1.0),))
    with pytest.raises(ValueError):
        FluxForm((FormComponent.single((0,), 1.0 + 0.5j),))
    with pytest.raises(ValueError):
        FluxForm((FormComponent.single((0,), 1.0), FormComponent.single((1,), 1.0)))


@pytest.mark.parametrize("k,expected", [
    (0, "self_adjoint"),
    (1, "skew_adjoint"),
    (2, "skew_adjoint"),
    (3, "self_adjoint"),
    (4, "self_adjoint"),
    (5, "skew_adjoint"),
    (7, "self_adjoint"),
    (8, "self_adjoint"),
])
def test_degree_adjointness_table(k, expected):
    assert degree_adjointness(k) == expected


@pytest.mark.parametrize("n", [1, 3, 5])
def test_degree_adjointness_matches_matrices(n):
    rng = np.random.default_rng(17 + n)
    rep = build_gamma_rep(n)
    for deg in range(n + 1):
        terms = {idx: rng.standard_normal() for idx in itertools.combinations(range(n), deg)}
        mat = clifford_action(rep, FormComponent.from_terms(deg, terms))
        if degree_adjointness(deg) == "self_adjoint":
            assert opnorm(mat - mat.conj().T) <= TOL
        else:
            assert opnorm(mat + mat.conj().T) <= TOL


def test_eq1_convention_matches_adjointness_classification():
    # i^{(k-1)/2 + 1} c(H_k) must be self-adjoint for every odd k
    rng = np.random.default_rng(5)
    for n in (3, 5, 7):
        rep = build_gamma_rep(n)
        for deg in range(1, n + 1, 2):
            terms = {idx: rng.standard_normal()
                     for idx in itertools.combinations(range(n), deg)}
            mat = clifford_action(rep, FormComponent.from_terms(deg, terms))
            j = (deg - 1) // 2
            twisted = (1j) ** (j + 1) * mat
            assert opnorm(twisted - twisted.conj().T) <= TOL


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_grading_anticommutation(dim):
    rep = build_even_gamma_rep(dim)
    gamma = grading_operator(rep)
    assert opnorm(gamma @ gamma - rep.identity()) <= 1e-14
    rng = np.random.default_rng(dim)
    for deg in range(dim + 1):
        terms = {idx: rng.standard_normal() + 1j * rng.standard_normal()
                 for idx in itertools.combinations(range(dim), deg)}
        form = FormComponent.from_terms(deg, terms)
        assert grading_anticommute_check(rep, form) <= TOL


@pytest.mark.parametrize("m", [1, 2])
def test_boundary_reduction(m):
    rep = build_even_gamma_rep(2 * m)
    assert boundary_reduction_check(rep) <= TOL


def test_boundary_reduction_symbol_identity():
    # sigma (xi_r + sum c_Y(e_i) xi_i) equals the full even symbol
    rng = np.random.default_rng(2)
    rep = build_even_gamma_rep(4)
    sigma = rep.gammas[3]
    xi = rng.standard_normal(4)
    full = sum(xi[i] * rep.gammas[i] for i in range(4))
    tangential = sum(xi[i] * (-sigma @ rep.gammas[i]) for i in range(3))
    rebuilt = sigma @ (xi[3] * rep.identity() + tangential)
    assert opnorm(full - rebuilt) <= 1e-14


def test_boundary_reduction_guard():
    with pytest.raises(ValueError):
        boundary_reduction_check(build_even_gamma_rep(6))
    with pytest.raises(ValueError):
        boundary_reduction_check(build_gamma_rep(3))

