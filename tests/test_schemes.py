import json
import math
import tracemalloc

import numpy as np
import pytest

from cvbench import fock, schemes
from cvbench.bounds import classical_bound
from cvbench.errors import (CutoffTooSmall, InvalidInput,
                            NotCompletelyPositive, UnsupportedTask)
from cvbench.gaussian import (E2, GaussianChannel, GaussianState,
                              apply_channel, average_fidelity_gaussian,
                              is_cp_channel)
from cvbench.schemes import (CanonicalB1, CanonicalC, Compose, HeterodyneMP,
                             PureLoss, QuantumLimitedAmp, apply_mp_fock,
                             fock_applier, model_from_json, model_to_json,
                             mp_average_fidelity, optimal_mp_gain,
                             optimize_mp_gain, to_gaussian)

rng = np.random.default_rng(47)
random_tasks = [(float(e), float(l)) for e, l in
                zip(10.0 ** rng.uniform(-0.6, 0.6, 20), rng.uniform(0.05, 1.0, 20))]

ALL_MODELS = [
    PureLoss(0.6),
    QuantumLimitedAmp(1.8),
    CanonicalB1(),
    CanonicalC(eta=1.3, ntilde=0.4),
    HeterodyneMP(0.9),
    Compose([PureLoss(0.5), QuantumLimitedAmp(2.0)]),
]


# ---------------------------------------------------------------------------
# model validation and serialization


def test_parameter_validation():
    with pytest.raises(InvalidInput):
        PureLoss(0.0)
    with pytest.raises(InvalidInput):
        PureLoss(1.2)
    with pytest.raises(InvalidInput):
        QuantumLimitedAmp(0.9)
    with pytest.raises(InvalidInput):
        CanonicalC(eta=-1.0, ntilde=0.0)
    with pytest.raises(InvalidInput):
        CanonicalC(eta=1.0, ntilde=-0.1)
    with pytest.raises(InvalidInput):
        HeterodyneMP(-0.5)
    with pytest.raises(InvalidInput):
        Compose([])
    with pytest.raises(InvalidInput):
        Compose([PureLoss(0.5), "not a model"])


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_json_roundtrip(model):
    again = model_from_json(model_to_json(model))
    assert again == model


@pytest.mark.parametrize("tagged", [False, True], ids=["untagged", "tagged"])
@pytest.mark.parametrize("disp", [[0.3, -0.2], [0.0, 0.0], None], ids=["disp", "zero", "none"])
def test_json_roundtrip_of_a_raw_channel(tagged, disp):
    channel = GaussianChannel(np.array([[1.1, 0.05], [0.02, 0.9]]),
                              np.array([[0.6, 0.1], [0.1, 0.5]]), np.array(disp or [0.0, 0.0]))
    obj = model_to_json(channel)
    assert set(obj) == {"K", "M", "disp"}
    if tagged:
        obj["type"] = "gaussian"
    if disp is None:
        del obj["disp"]
    again = model_from_json(json.loads(json.dumps(obj)))
    assert isinstance(again, GaussianChannel)
    assert again == channel
    assert model_to_json(again) == model_to_json(channel)


def test_json_rejects_unknown_and_incomplete():
    with pytest.raises(InvalidInput):
        model_from_json({"type": "made_up"})
    with pytest.raises(InvalidInput):
        model_from_json({"type": "pure_loss"})
    with pytest.raises(InvalidInput):
        model_from_json(["pure_loss"])


@pytest.mark.parametrize("obj, message", [
    ({"type": "pure_loss", "T": 0.5, "K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]]},
     "'pure_loss' does not take fields 'K', 'M'"),
    ({"type": "pure_loss", "T": 0.5, "Tx": 3}, "'pure_loss' does not take field 'Tx'"),
    ({"type": "canonical_b1", "g": 1}, "'canonical_b1' does not take field 'g'"),
    ({"type": "compose", "parts": [{"type": "pure_loss", "T": 0.5}, {"type": "heterodyne_mp",
                                                                     "g": 1, "G": 2}]},
     "'heterodyne_mp' does not take field 'G'"),
    ({"type": "compose", "parts": [], "T": 0.5}, "'compose' does not take field 'T'"),
    ({"type": "gaussian", "K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]], "T": 0.5},
     "'gaussian' does not take field 'T'"),
    ({"K": [[1, 0], [0, 1]], "M": [[0, 0], [0, 0]], "Disp": [0, 0]},
     "'gaussian' does not take field 'Disp'"),
    ({"T": 0.5}, "must be an object with a 'type' tag"),
    ({"type": "pure_loss", "T": "x"}, "'pure_loss' field 'T' must be a number"),
    ({"type": "pure_loss", "T": None}, "'pure_loss' field 'T' must be a number"),
    ({"type": "pure_loss", "T": [0.5]}, "'pure_loss' field 'T' must be a number"),
    ({"type": "canonical_c", "eta": 1.0, "ntilde": {}}, "'canonical_c' field 'ntilde'"),
    ({"type": "compose", "parts": 5}, "'compose' field 'parts' must be a list"),
    ({"type": "compose", "parts": [{"type": "pure_loss", "T": "x"}]}, "'pure_loss' field 'T'"),
    ({"type": "heterodyne_mp"}, "'heterodyne_mp' is missing field 'g'"),
])
def test_json_names_the_tag_and_field_of_a_malformed_value(obj, message):
    with pytest.raises(InvalidInput, match=message):
        model_from_json(obj)


def test_json_still_reads_what_float_reads():
    assert model_from_json({"type": "pure_loss", "T": "0.5"}) == PureLoss(0.5)
    assert model_from_json({"type": "pure_loss", "T": True}) == PureLoss(1.0)
    assert model_from_json({"type": "compose", "parts": [{"type": "canonical_b1"}]}) \
        == Compose([CanonicalB1()])


@pytest.mark.parametrize("build", [
    lambda: QuantumLimitedAmp(math.inf), lambda: QuantumLimitedAmp(math.nan),
    lambda: CanonicalC(math.inf, 0.0), lambda: CanonicalC(1.0, math.inf),
    lambda: CanonicalC(math.nan, 0.0), lambda: CanonicalC(1.0, math.nan),
    lambda: HeterodyneMP(math.inf), lambda: HeterodyneMP(math.nan),
], ids=["amp-inf", "amp-nan", "C-eta-inf", "C-ntilde-inf", "C-eta-nan", "C-ntilde-nan",
        "mp-inf", "mp-nan"])
def test_non_finite_model_parameters_are_refused(build):
    with pytest.raises(InvalidInput, match="and finite"):
        build()


# ---------------------------------------------------------------------------
# Gaussian forms


def test_to_gaussian_canonical_forms():
    loss = to_gaussian(PureLoss(0.36))
    assert np.array_equal(loss.K, 0.6 * E2)
    assert np.array_equal(loss.M, 0.32 * E2)

    amp = to_gaussian(QuantumLimitedAmp(4.0))
    assert np.array_equal(amp.K, 2.0 * E2)
    assert np.array_equal(amp.M, 1.5 * E2)

    b1 = to_gaussian(CanonicalB1())
    assert np.array_equal(b1.K, E2)
    assert np.array_equal(b1.M, np.diag([0.5, 0.0]))

    c = to_gaussian(CanonicalC(eta=2.0, ntilde=0.3))
    assert np.allclose(c.K, math.sqrt(2.0) * E2, atol=1e-15)
    assert np.array_equal(c.M, 0.8 * E2)

    het = to_gaussian(HeterodyneMP(1.0))
    assert np.array_equal(het.K, E2)
    assert np.array_equal(het.M, E2)

    ident = to_gaussian(PureLoss(1.0))
    assert np.array_equal(ident.K, E2)
    assert np.array_equal(ident.M, np.zeros((2, 2)))


def _seeded_compose(seed):
    part_rng = np.random.default_rng(seed)
    builders = (lambda u: PureLoss(u), lambda u: QuantumLimitedAmp(1.0 + 3.0 * u),
                lambda u: CanonicalC(eta=2.0 * u, ntilde=u), lambda u: HeterodyneMP(u))
    return Compose([builders[int(part_rng.integers(4))](float(part_rng.uniform(0.05, 1.0)))
                    for _ in range(5)])


ISOTROPIC_MODELS = [m for m in ALL_MODELS if schemes._iso_params(m) is not None] + [
    _seeded_compose(5), Compose([PureLoss(0.5), Compose([HeterodyneMP(0.0)])])]


@pytest.mark.parametrize("model", ISOTROPIC_MODELS, ids=lambda m: type(m).__name__)
def test_isotropic_to_gaussian_is_bit_equal_to_the_checked_build(model):
    k2, m = schemes._iso_params(model)
    checked = GaussianChannel(math.sqrt(k2) * E2, m * E2)
    built = to_gaussian(model)
    assert type(built) is GaussianChannel
    for name in ("K", "M", "disp"):
        got, want = getattr(built, name), getattr(checked, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()       # signs of zeros included


@pytest.mark.parametrize("model, field, named", [
    (Compose([QuantumLimitedAmp(1e200), QuantumLimitedAmp(1e200)]), "gain matrix K",
     r"^channel model 'compose' gives a gain k\^2 = inf and a noise m = inf "
     r"\(K = k I, M = m I\) from field 'parts'; both must be finite$"),
    (Compose([CanonicalC(1.0, 1e308), CanonicalC(1.0, 1e308)]), "noise matrix M",
     r"^channel model 'compose' gives a gain k\^2 = 1 and a noise m = inf "
     r"\(K = k I, M = m I\) from field 'parts'; both must be finite$"),
    (CanonicalC(1.7e308, 1.7e308), "noise matrix M",
     r"^channel model 'canonical_c' gives a gain k\^2 = 1.7e\+308 and a noise m = inf "
     r"\(K = k I, M = m I\) from fields 'eta' and 'ntilde'; both must be finite$"),
], ids=["compose-gain", "compose-noise", "canonical_c-noise"])
def test_isotropic_to_gaussian_refuses_an_overflowing_scalar(model, field, named):
    # each field is in range alone; the channel's raw form would name no field
    k2, m = schemes._iso_params(model)
    with pytest.raises(InvalidInput, match=f"^{field} must be finite$"), \
            np.errstate(invalid="ignore"):                 # inf * 0 off the diagonal
        GaussianChannel(math.sqrt(k2) * E2, m * E2)
    with pytest.raises(InvalidInput, match=named):
        to_gaussian(model)


def test_an_overflowing_anisotropic_compose_names_its_field():
    # the matrix products overflow with no warning, and the refusal names the field
    amp = QuantumLimitedAmp(1e200)
    with pytest.raises(InvalidInput, match=r"^channel model 'compose' field 'parts' composes "
                                           r"to a channel past the float range: noise "
                                           r"matrix M must be finite$"):
        to_gaussian(Compose([CanonicalB1(), amp, amp]))


@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
def test_all_models_are_cp(model):
    assert is_cp_channel(to_gaussian(model))


def test_compose_loss_amp_equals_heterodyne_exactly():
    # Scalar parameter folding keeps this equality bit-for-bit, not just
    # within tolerance.
    chain = to_gaussian(Compose([PureLoss(0.5), QuantumLimitedAmp(2.0)]))
    het = to_gaussian(HeterodyneMP(1.0))
    assert np.array_equal(chain.K, het.K)
    assert np.array_equal(chain.M, het.M)
    assert np.array_equal(chain.disp, het.disp)


def test_nested_compose_folds_like_flat():
    nested = Compose([PureLoss(0.7), Compose([QuantumLimitedAmp(1.5),
                                              PureLoss(0.9)])])
    flat = Compose([PureLoss(0.7), QuantumLimitedAmp(1.5), PureLoss(0.9)])
    a, b = to_gaussian(nested), to_gaussian(flat)
    # The two fold orders multiply the same scalars with different grouping,
    # so agreement is up to float associativity (last ulp), not bit-for-bit.
    assert np.allclose(a.K, b.K, rtol=1e-15, atol=0.0)
    assert np.allclose(a.M, b.M, rtol=1e-15, atol=0.0)


# ---------------------------------------------------------------------------
# heterodyne strategy closed forms


def test_mp_fidelity_unit_gain_is_one_half():
    for lam in (0.01, 0.2, 1.0, 5.0):
        assert mp_average_fidelity(1.0, 1.0, lam) == pytest.approx(0.5, abs=1e-15)


def test_mp_fidelity_zero_gain_prepares_vacuum():
    for eta, lam in random_tasks[:8]:
        assert mp_average_fidelity(0.0, eta, lam) == pytest.approx(
            lam / (lam + eta), abs=1e-15)


def test_mp_fidelity_flat_prior_limit():
    assert mp_average_fidelity(math.sqrt(2.0), 2.0, 0.0) == pytest.approx(
        1.0 / 3.0, abs=1e-15)
    assert mp_average_fidelity(1.0, 2.0, 0.0) == 0.0
    assert mp_average_fidelity(0.5, 0.25, 0.0) == pytest.approx(0.8, abs=1e-15)


@pytest.mark.parametrize("eta,lam", random_tasks)
def test_mp_optimum_attains_the_classical_bound(eta, lam):
    g_star = optimal_mp_gain(eta, lam)
    assert mp_average_fidelity(g_star, eta, lam) == pytest.approx(
        classical_bound(eta, lam), abs=1e-12)
    # and no other gain does better
    for g in np.linspace(0.0, 2.5 * math.sqrt(eta), 41):
        assert mp_average_fidelity(float(g), eta, lam) <= \
            classical_bound(eta, lam) + 1e-12


def test_mp_matches_its_gaussian_realization():
    for g, eta, lam in [(1.0, 1.0, 0.2), (0.7, 0.5, 0.4), (1.3, 2.0, 0.8)]:
        closed = mp_average_fidelity(g, eta, lam)
        engine = average_fidelity_gaussian(to_gaussian(HeterodyneMP(g)), eta, lam)
        assert closed == pytest.approx(engine, rel=1e-12)


def test_mp_closed_forms_broadcast_to_the_per_point_python_formulas():
    # The same formulas on one Python float at a time, ** included, to the
    # last bit.  Squaring (x * x) instead of pow rounds about 1 in 1000
    # values differently, so 6 x 10^4 (eta, g) pairs would show it.
    rng = np.random.default_rng(5)
    eta = rng.uniform(0.05, 3.0, 300)[:, None, None]
    lam = np.array([0.0, 0.1, 0.7, 1.9])[None, :, None]
    g = np.concatenate([[0.0], rng.uniform(0.0, 3.0, 200)])[None, None, :]
    g_opt = optimal_mp_gain(eta, lam)
    fid = mp_average_fidelity(g, eta, lam)
    e, l, x = (a.ravel().tolist() for a in np.broadcast_arrays(eta, lam, g))
    want = [0.0 if lv == 0 else lv / (lv * (1.0 + xv * xv) + (xv - math.sqrt(ev)) ** 2)
            for ev, lv, xv in zip(e, l, x)]
    assert fid.ravel().tolist() == want
    e, l = (a.ravel().tolist() for a in np.broadcast_arrays(eta, lam[..., :1]))
    assert g_opt.ravel().tolist() == [math.sqrt(ev) / (1.0 + lv) for ev, lv in zip(e, l)]
    matched = mp_average_fidelity(np.sqrt(eta), eta, 0.0)
    assert matched.ravel().tolist() == [1.0 / (1.0 + ev) for ev in eta.ravel().tolist()]
    assert type(mp_average_fidelity(0.5, 1.0, 0.2)) is float


def test_canonical_c_closed_forms_broadcast_and_validate():
    eta = np.array([0.4, 1.0, 1.7])[:, None]
    ntilde = np.array([0.0, 0.3, 0.99, 1.5])
    fbar = schemes.canonical_c_fidelity(eta, ntilde)
    qd = schemes.canonical_c_quantum_domain(eta, ntilde)
    for i, j in np.ndindex(fbar.shape):
        e, n = float(eta[i, 0]), float(ntilde[j])
        assert fbar[i, j] == 2.0 / (1.0 + e + abs(1.0 - e) + 2.0 * n)
        assert qd[i, j] == (n < min(1.0, e))
    for bad in (-0.5, float("nan"), float("inf")):
        with pytest.raises(InvalidInput,
                           match=f"ntilde must be >= 0 and finite, got {bad}"):
            schemes.canonical_c_fidelity(1.0, np.array([0.1, bad]))


@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")])
def test_mp_fidelity_rejects_unphysical_gains(bad):
    with pytest.raises(InvalidInput,
                       match=f"re-preparation gain must be >= 0 and finite, got {bad}"):
        mp_average_fidelity(np.array([0.5, bad]), 1.0, 0.2)
    with pytest.raises(InvalidInput):
        mp_average_fidelity(bad, 1.0, 0.2)


def test_optimize_mp_gain_finds_the_closed_form_optimum():
    for eta, lam in [(1.0, 0.2), (2.0, 0.5), (0.3, 0.07)]:
        g_best, f_best = optimize_mp_gain(eta, lam)
        # Value-only search on a quadratic peak resolves g to ~sqrt(eps).
        assert g_best == pytest.approx(math.sqrt(eta) / (1.0 + lam), abs=1e-6)
        assert f_best == pytest.approx(classical_bound(eta, lam), abs=1e-12)
        assert f_best <= classical_bound(eta, lam) + 1e-12
    with pytest.raises(InvalidInput):
        optimize_mp_gain(1.0, 0.0)


def test_to_gaussian_refuses_an_object_that_is_not_a_model():
    with pytest.raises(InvalidInput, match="not a channel model"):
        to_gaussian(fock.OffsetMap())


# ---------------------------------------------------------------------------
# truncated realizations


def test_apply_mp_fock_unit_gain_moments():
    ket = fock.coherent_ket(0.5, 30)
    rho = np.outer(ket, ket.conj())
    out = apply_mp_fock(HeterodyneMP(1.0), rho)
    mean, cov = fock.mean_and_covariance(out)
    assert np.allclose(mean, [math.sqrt(2) * 0.5, 0.0], atol=1e-6)
    assert np.allclose(cov, 1.5 * E2, atol=1e-5)

    vac = np.diag([1.0] + [0.0] * 29)
    out = apply_mp_fock(HeterodyneMP(1.0), vac)
    mean_n = fock.expectation(out, fock.number_operator(30)).real
    assert mean_n == pytest.approx(1.0, abs=1e-5)


def test_apply_mp_fock_refuses_a_scheme_that_is_not_heterodyne():
    with pytest.raises(InvalidInput, match="expects a HeterodyneMP"):
        apply_mp_fock(PureLoss(0.5), fock.thermal_state(0.5, 12))


def test_apply_mp_fock_matches_loss_then_amp():
    # Unit-gain heterodyne re-preparation and the loss/amplifier chain are
    # the same channel; their truncated realizations must agree closely.
    for alpha in (0.8, -0.3 + 0.6j):
        ket = fock.coherent_ket(alpha, 36)
        rho = np.outer(ket, ket.conj())
        via_mp = apply_mp_fock(HeterodyneMP(1.0), rho)
        via_chain = fock.apply_amp(fock.apply_loss(rho, 0.5), 2.0)
        assert fock.trace_distance(via_mp, via_chain) < 1e-4


def _apply_mp_fock_by_entries(g, matrix):
    # <k|Phi(|m><n|)|l> = delta(m+l, n+k) g^(k+l) (m+l)! / ((1+g^2)^(m+l+1)
    # sqrt(m! n! k! l!)), from the outcome integral of <beta|rho|beta>/pi
    # |g beta><g beta| over the plane, summed entry by entry
    cutoff = len(matrix)
    out = np.zeros((cutoff, cutoff), dtype=complex)
    for m in range(cutoff):
        for n in range(cutoff):
            for k in range(cutoff):
                l = n + k - m
                if not 0 <= l < cutoff:
                    continue
                if g == 0.0:
                    element = 1.0 if k == l == 0 else 0.0
                else:
                    element = math.exp(
                        (k + l) * math.log(g) + math.lgamma(m + l + 1)
                        - (m + l + 1) * math.log(1.0 + g * g)
                        - 0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1)
                                 + math.lgamma(k + 1) + math.lgamma(l + 1)))
                out[k, l] += element * matrix[m, n]
    return out


def _apply_mp_fock_by_einsum(g, rho):
    # the deleted outcome-grid algorithm: the outcome integral on a 40 x 40
    # Gauss-Hermite grid fitted to the state's moments, Husimi values as one
    # three-operand contraction <beta|rho|beta> per outcome
    from numpy.polynomial.hermite import hermgauss

    cutoff = rho.shape[-1]
    mean, gamma = fock.mean_and_covariance(rho)
    vals, vecs = np.linalg.eigh(0.5 * (gamma + 0.5 * np.eye(2)))
    vals = np.maximum(vals, 1e-12)
    x, w = hermgauss(40)
    offsets = vecs @ np.stack([np.repeat(np.sqrt(2.0 * vals[0]) * x, 40),
                               np.tile(np.sqrt(2.0 * vals[1]) * x, 40)])
    beta = (mean[0] / math.sqrt(2) + offsets[0]) + 1j * (mean[1] / math.sqrt(2) + offsets[1])
    native = np.outer(w, w).ravel()
    weights = native * np.exp(np.add.outer(x ** 2, x ** 2)).ravel()
    usable = (np.abs(beta) ** 2 <= cutoff) & ((g * np.abs(beta)) ** 2 <= cutoff) \
        & (native > 1e-22 * native.max())
    kets_meas = fock.coherent_amplitudes(beta[usable], cutoff)
    husimi = np.einsum("ns,nm,ms->s", kets_meas.conj(), rho, kets_meas).real
    mass = weights[usable] * math.sqrt(4.0 * vals[0] * vals[1]) \
        * np.maximum(husimi / math.pi, 0.0)
    kets_prep = fock.coherent_amplitudes(g * beta[usable], cutoff)
    return (kets_prep * mass) @ kets_prep.conj().T


@pytest.mark.parametrize("g", [0.0, 0.7, 1.0, 1.3])
def test_apply_mp_fock_matches_the_per_entry_reference(g):
    # a displaced thermal state: a full-rank input with a mean
    rho = fock.gaussian_state_fock([0.9, -0.6], 0.8 * E2, 36)
    got = apply_mp_fock(HeterodyneMP(g), rho, max_trace_deficit=None)
    assert np.abs(got - _apply_mp_fock_by_entries(g, rho)).max() <= 1e-13


@pytest.mark.parametrize("g", [0.0, 0.7, 1.0, 1.3])
def test_apply_mp_fock_matches_the_einsum_reference(g):
    # The grid is the inexact side: on entries well inside the cutoff it was
    # measured 1.0e-10 off the closed form for g <= 1 and 3.1e-8 at g = 1.3.
    rho = fock.gaussian_state_fock([0.9, -0.6], 0.8 * E2, 36)
    got = apply_mp_fock(HeterodyneMP(g), rho, max_trace_deficit=None)
    expected = _apply_mp_fock_by_einsum(g, rho)
    tol = 1e-7 if g > 1.0 else 2e-10
    assert np.abs(got - expected)[:18, :18].max() <= tol


@pytest.mark.parametrize("g", [0.3, 1.0, 2.2])
def test_apply_mp_fock_shared_kernel_table_keeps_every_bit(g):
    # the table as apply_mp_fock built it inline before fock.heterodyne_kernels
    # took it over: log1p(g^2), not log(1 + g^2), is part of the pinned bits
    rho = fock.gaussian_state_fock([0.9, -0.6], 0.8 * E2, 36)
    n = rho.shape[-1]
    lg = np.array([math.lgamma(k + 1.0) for k in range(2 * n)])
    l, m = np.arange(n)[:, None], np.arange(n)
    c = np.exp(0.5 * (lg[m + l] - lg[l] - lg[m] - (m + l + 1) * math.log1p(g * g))
               + l * math.log(g))
    inline = fock.apply_offset_kernels(rho, lambda d: c[:n - d, d:] * c[d:, :n - d])
    got = apply_mp_fock(HeterodyneMP(g), rho, max_trace_deficit=None)
    assert np.array_equal(got, inline)


@pytest.mark.parametrize("g", [0.4, 1.0, 1.7])
def test_apply_mp_fock_keeps_a_number_state_diagonal(g):
    m, cutoff = 3, 60
    out = apply_mp_fock(HeterodyneMP(g), np.diag(np.eye(cutoff)[m]))
    k = np.arange(cutoff)
    # negative binomial: C(m+k, k) g^(2k) / (1+g^2)^(m+k+1)
    expected = np.array([math.comb(m + i, i) for i in k]) * g ** (2 * k) \
        / (1.0 + g * g) ** (m + k + 1)
    assert np.all(out[~np.eye(cutoff, dtype=bool)] == 0.0)
    assert np.abs(np.diag(out) - expected).max() <= 1e-14


@pytest.mark.parametrize("offset", [-5, -1, 2, 7])
def test_apply_mp_fock_maps_one_offset_onto_the_same_offset(offset):
    cutoff = 24
    amps = np.random.default_rng(5).standard_normal(cutoff - abs(offset)) + 0.5j
    out = apply_mp_fock(HeterodyneMP(0.8),
                        np.diag(amps, k=-offset),
                        max_trace_deficit=None)
    rows, cols = np.indices(out.shape)
    assert np.all(out[rows - cols != offset] == 0.0)
    assert np.abs(np.diagonal(out, offset=-offset)).min() > 0.0


@pytest.mark.parametrize("cutoff", [1, 16, 180])
def test_apply_mp_fock_with_zero_gain_prepares_the_vacuum(state_stack, cutoff):
    stack = state_stack(cutoff)
    if cutoff > 5:
        stack[1, 2, 5] += 0.3 - 0.2j  # not Hermitian: the trace comes out complex
    out = apply_mp_fock(HeterodyneMP(0.0), stack)
    assert not out[:, 1:].any() and not out[:, 0, 1:].any()
    # the gain-0 family sums each diagonal into |0><0| in its own order, so
    # it is np.trace to within the rounding of a sum of `cutoff` terms
    diagonal = np.diagonal(stack, axis1=1, axis2=2)
    rounding = cutoff * np.finfo(float).eps * np.abs(diagonal).sum(axis=1)
    assert np.all(np.abs(out[:, 0, 0] - diagonal.sum(axis=1)) <= rounding)


@pytest.mark.parametrize("g", [0.5, 1.0, 1.3])
def test_apply_mp_fock_preserves_the_trace_well_inside_the_cutoff(g):
    # input on levels below 8, output negligible above 100
    cutoff = 100
    rho = np.zeros((cutoff, cutoff), dtype=complex)
    rho[:8, :8] = fock.gaussian_state_fock([0.4, 0.3], 0.7 * E2, 8)
    out = apply_mp_fock(HeterodyneMP(g), rho)
    assert abs(np.trace(out).real - np.trace(rho).real) <= 1e-12


def test_apply_mp_fock_maps_a_non_hermitian_input_entry_by_entry():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((14, 14)) + 1j * rng.standard_normal((14, 14))
    got = apply_mp_fock(HeterodyneMP(0.9), x, max_trace_deficit=None)
    assert np.abs(got - _apply_mp_fock_by_entries(0.9, x)).max() <= 1e-13
    assert np.abs(got - got.conj().T).max() > 1e-3


def test_apply_mp_fock_trace_diagnostic():
    # A state pushed to the truncation edge loses outcome mass; the strict
    # default raises, the explicit opt-out returns the sub-normalized result.
    ket = fock.coherent_ket(3.2, 12, weight_tol=None)
    rho = np.outer(ket, ket.conj())
    with pytest.raises(CutoffTooSmall):
        apply_mp_fock(HeterodyneMP(1.0), rho)
    out = apply_mp_fock(HeterodyneMP(1.0), rho, max_trace_deficit=None)
    assert np.trace(out).real < np.trace(rho).real


def test_fock_applier_matches_gaussian_moments():
    models = [PureLoss(0.55), QuantumLimitedAmp(1.7), CanonicalB1(),
              CanonicalC(eta=0.8, ntilde=0.35),
              Compose([PureLoss(0.8), QuantumLimitedAmp(1.4)])]
    alpha = 0.6 - 0.2j
    for model in models:
        ket = fock.coherent_ket(alpha, 42)
        rho = np.outer(ket, ket.conj())
        out = fock_applier(model)(rho)
        mean, cov = fock.mean_and_covariance(out)
        expected = apply_channel(to_gaussian(model), GaussianState.coherent(alpha))
        assert np.allclose(mean, expected.d, atol=1e-5), model
        assert np.allclose(cov, expected.gamma, atol=1e-5), model


@pytest.mark.parametrize("model", [
    PureLoss(0.6), QuantumLimitedAmp(1.8), CanonicalB1(),
    CanonicalC(eta=0.7, ntilde=0.3), CanonicalC(eta=1.3, ntilde=0.4),
    Compose([PureLoss(0.5), QuantumLimitedAmp(2.0)]),
    GaussianChannel(0.9 * E2, 0.2 * E2, np.array([0.5, -0.3])),
], ids=lambda m: type(m).__name__)
def test_fock_applier_realizations_match_the_closed_form(model):
    eta, lam = 0.8, 0.6
    channel = model if isinstance(model, GaussianChannel) else to_gaussian(model)
    exact = average_fidelity_gaussian(channel, eta, lam)
    avg = fock.average_fidelity_fock(fock_applier(model), eta, lam, cutoff=30)
    assert abs(avg.value - exact) <= 1e-4 + avg.error


def test_apply_mp_fock_on_a_stack_equals_each_slice(state_stack):
    stack = state_stack(20)
    got = apply_mp_fock(HeterodyneMP(0.8), stack)
    assert got.shape == stack.shape
    for i, m in enumerate(stack):
        one = apply_mp_fock(HeterodyneMP(0.8), m)
        assert np.abs(got[i] - one).max() <= 1e-15


def test_apply_mp_fock_checks_the_trace_of_every_state_of_a_stack(state_stack):
    stack = state_stack(12)
    ket = fock.coherent_ket(3.2, 12, weight_tol=None)
    stack[2] = np.outer(ket, ket.conj())
    with pytest.raises(CutoffTooSmall):
        apply_mp_fock(HeterodyneMP(1.0), stack)


@pytest.mark.parametrize("model", ALL_MODELS + [
    GaussianChannel(0.9 * E2, 0.2 * E2, np.array([0.5, -0.3])),
], ids=lambda m: type(m).__name__)
def test_fock_applier_on_a_stack_equals_each_slice(model, state_stack):
    applier = fock_applier(model)
    stack = state_stack(20)
    got = applier(stack)
    assert got.shape == stack.shape
    for i, m in enumerate(stack):
        assert np.abs(got[i] - applier(m)).max() <= 1e-15


RAW_CHANNELS = [
    GaussianChannel(1.1 * E2, np.diag([0.4, 0.2])),
    GaussianChannel(0.9 * E2, 0.2 * E2, np.array([0.5, -0.3])),
]
# Phase-covariant models are their own phase average; the others are not.
COVARIANT = [m for m in ALL_MODELS if not isinstance(m, CanonicalB1)]
NOT_COVARIANT = [CanonicalB1()] + RAW_CHANNELS + [
    Compose([CanonicalB1(), HeterodyneMP(0.8), CanonicalB1()])]


def _name(model):
    return type(model).__name__


CHAIN = Compose([PureLoss(0.7), HeterodyneMP(0.8), QuantumLimitedAmp(1.3)])


# Lone Kraus families beyond ALL_MODELS': heterodyne at gain 0, and the raw
# channel of isotropic pure loss, where the amplifier of its realization is 1.
ONE_FAMILY = [HeterodyneMP(0.0), GaussianChannel(math.sqrt(0.6) * E2, 0.2 * E2)]


@pytest.mark.parametrize("cutoff", [1, 2, 14, 40])
@pytest.mark.parametrize("model", ALL_MODELS + RAW_CHANNELS + [CHAIN] + ONE_FAMILY, ids=_name)
def test_average_fidelity_contraction_matches_the_exact_contraction(model, cutoff,
                                                                    exact_average):
    # the engine's blocks against the map's own one-offset kernels and the
    # prior's kernels W_d in 40-digit decimals
    eta, lam = 1.3, 0.7
    offset_map = fock_applier(model)
    got = fock.average_fidelity_fock(offset_map, eta, lam, cutoff=cutoff)
    value, error = exact_average(offset_map, eta, lam, cutoff)
    assert abs(got.value - value) <= 1e-15
    assert abs(got.error - error) <= 1e-15


@pytest.mark.parametrize("model", [PureLoss(0.6), HeterodyneMP(0.9),
                                   CanonicalC(eta=1.3, ntilde=0.4)], ids=_name)
def test_average_fidelity_contraction_matches_the_exact_contraction_at_the_cap(
        model, exact_average):
    eta, lam, cutoff = 0.9, 0.3, 180
    offset_map = fock_applier(model)
    got = fock.average_fidelity_fock(offset_map, eta, lam, cutoff=cutoff)
    value, error = exact_average(offset_map, eta, lam, cutoff)
    assert abs(got.value - value) <= 1e-14
    assert abs(got.error - error) <= 1e-14


@pytest.mark.parametrize("model, eta, lam", [
    (CanonicalC(eta=1.3, ntilde=0.2), 1.3, 0.3),
    (Compose([PureLoss(0.5), QuantumLimitedAmp(1.6)]), 0.8, 0.3)], ids=["C", "loss-amp"])
def test_fock_value_at_the_cap_meets_the_gaussian_closed_form(model, eta, lam):
    # at cutoff 180 the truncation costs below 1e-16 here, so the engine meets
    # the closed form to rounding; averaging with a 180-node Gauss-Laguerre
    # rule, whose weights sum to 1 + 9e-13, would put it about 6e-13 high
    exact = average_fidelity_gaussian(to_gaussian(model), eta, lam)
    got = fock.average_fidelity_fock(fock_applier(model), eta, lam, cutoff=180)
    assert abs(got.value - exact) <= 1e-14


@pytest.mark.parametrize("model", [PureLoss(0.5), QuantumLimitedAmp(1.4), HeterodyneMP(0.8),
                                   HeterodyneMP(0.0)],
                         ids=["loss", "amp", "heterodyne", "heterodyne-0"])
def test_lone_family_at_the_cap_meets_the_gaussian_closed_form(model):
    # one Kraus family, which the engine averages by its pair sums
    eta, lam = 0.5, 0.3
    offset_map = fock_applier(model)
    assert [type(f) for f in offset_map.factors] == [fock.KrausFamily]
    exact = average_fidelity_gaussian(to_gaussian(model), eta, lam)
    got = fock.average_fidelity_fock(offset_map, eta, lam, cutoff=180)
    assert abs(got.value - exact) <= 1e-14


# Chains of Kraus families: loss then the amplifier, loss, heterodyne and the
# amplifier, and one holding heterodyne at gain 0.  The engine contracts their
# kernels a block of offsets at a time, 2**13 kernel entries per block: the
# first block holds 3 offsets up to cutoff 52 and 2 from 53, and one offset
# alone from kernel width 65 on.
KRAUS_CHAINS = [Compose([PureLoss(0.6), QuantumLimitedAmp(1.3)]), CHAIN,
                Compose([PureLoss(0.7), HeterodyneMP(0.0), QuantumLimitedAmp(1.3)])]
BLOCK_CUTOFFS = [1, 2, 3, 52, 53, 64, 65, 180]


@pytest.mark.parametrize("cutoff", BLOCK_CUTOFFS)
@pytest.mark.parametrize("model", KRAUS_CHAINS, ids=["loss-amp", "chain", "heterodyne-0"])
def test_blocked_contraction_of_kraus_chains_matches_the_exact_contraction(model, cutoff,
                                                                           exact_average):
    eta, lam = 0.9, 0.3
    offset_map = fock_applier(model)
    assert len(offset_map.factors) > 1
    assert all(isinstance(f, fock.KrausFamily) for f in offset_map.factors)
    got = fock.average_fidelity_fock(offset_map, eta, lam, cutoff=cutoff)
    value, error = exact_average(offset_map, eta, lam, cutoff)
    assert abs(got.value - value) <= (1e-14 if cutoff == 180 else 1e-15)
    assert abs(got.error - error) <= 1e-15


@pytest.mark.parametrize("cutoff, first", [(1, [(0, 1)]), (24, [(0, 14), (14, 10)]),
                                           (52, [(0, 3), (3, 3)]), (53, [(0, 2), (2, 3)]),
                                           (65, [(0, 1), (1, 2)]), (180, [(0, 1), (1, 1)])])
def test_offset_blocks_hold_about_a_fixed_number_of_kernel_entries(monkeypatch, cutoff,
                                                                   first):
    calls = []
    builder = fock.OffsetMap.real_kernel_blocks

    def spy(offset_map, n):
        blocks = builder(offset_map, n)

        def block(d0, count):
            calls.append((d0, count))
            return blocks(d0, count)
        return block
    monkeypatch.setattr(fock.OffsetMap, "real_kernel_blocks", spy)
    fock.average_fidelity_fock(fock_applier(CHAIN), 0.9, 0.3, cutoff=cutoff)
    assert calls[:2] == first
    # the blocks tile the offsets in order, each one offset or as many as fit
    # the entry budget of its kernel stack
    assert [d0 for d0, _ in calls] == list(np.cumsum([0] + [c for _, c in calls])[:-1])
    assert sum(c for _, c in calls) == cutoff
    for d0, count in calls:
        width = cutoff - d0
        assert count == min(width, max(1, fock._KERNEL_BLOCK // width ** 2))
        assert width <= 64 or count == 1


# Every model whose realization ends in a displacement mixture: anisotropic
# noise, a mean alone (RAW_CHANNELS[1]), a mean with loss, and a composite.
MIXTURES = [CanonicalB1()] + RAW_CHANNELS + [
    GaussianChannel(math.sqrt(0.6) * E2, 0.2 * E2, np.array([0.5, 0.0])),
    Compose([CanonicalB1(), HeterodyneMP(0.8), CanonicalB1()])]


@pytest.mark.parametrize("cutoff", [1, 2, 24, 40, 180])
@pytest.mark.parametrize("model", MIXTURES, ids=_name)
def test_mixture_real_kernels_match_the_exact_contraction(model, cutoff, exact_average):
    # the engine reads the mixture's real kernels, built in real arithmetic;
    # the exact contraction takes the real part of its complex kernels, built
    # from the mixture's unitaries
    eta, lam = 0.9, 0.3
    offset_map = fock_applier(model)
    assert isinstance(offset_map.factors[-1], fock.DisplacementMixture)
    got = fock.average_fidelity_fock(offset_map, eta, lam, cutoff=cutoff)
    value, error = exact_average(offset_map, eta, lam, cutoff)
    assert abs(got.value - value) <= (1e-14 if cutoff == 180 else 1e-15)
    assert abs(got.error - error) <= 1e-15


def test_mixture_average_at_the_cap_holds_about_one_stack_of_unitaries():
    # The real stack and the 10 unitaries it is built from take about as much
    # memory as one complex stack of 20 unitaries; the complex kernels, built
    # from the 20 unitaries and their conjugates, held three.
    cutoff = 180
    stack = 20 * cutoff * cutoff * np.dtype(complex).itemsize

    def average():
        fock.average_fidelity_fock(fock_applier(CanonicalB1()), 0.9, 0.3,
                                   cutoff=cutoff)
    average()   # fills the caches
    tracemalloc.start()
    try:
        average()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * stack, peak


def test_fock_value_stays_within_one_at_the_cap(prior_rule):
    # pure loss at its own gain has fidelity 1 at every radius; the engine
    # reads no rule, so the weights of a 180-node Gauss-Laguerre rule, which
    # sum to 1 + 8.9e-13, do not reach its value
    eta, lam = 0.5, 0.3
    assert prior_rule(eta, lam, 180)[1].sum() > 1.0 + 1e-13
    avg = fock.average_fidelity_fock(fock_applier(PureLoss(eta)), eta, lam,
                                     cutoff=180)
    assert 1.0 - 1e-14 <= avg.value <= 1.0


def _phase_covariance_gap(model, stack, theta):
    # max |Phi(R rho R^dag) - R Phi(rho) R^dag| over a stack, for R = exp(i theta n)
    phase = np.exp(1j * theta * np.arange(stack.shape[-1]))

    def rotate(matrix):
        return phase[:, None] * matrix * phase.conj()

    applier = fock_applier(model)
    got = applier(rotate(stack))
    return np.abs(got - rotate(applier(stack))).max()


@pytest.mark.parametrize("theta", [0.7, 2.9])
@pytest.mark.parametrize("model", COVARIANT + [CHAIN], ids=_name)
def test_fock_map_of_a_covariant_model_commutes_with_phase_rotations(model, theta,
                                                                     state_stack):
    # a phase-covariant map is its own phase average, so one object, an
    # OffsetMap, serves both
    assert isinstance(fock_applier(model), fock.OffsetMap)
    assert _phase_covariance_gap(model, state_stack(20), theta) <= 1e-12


@pytest.mark.parametrize("theta", [0.7, 2.9])
def test_phase_covariance_check_fails_on_noise_along_one_axis(theta, state_stack):
    # the negative control: canonical B1's noise on x_plus alone is not covariant
    assert _phase_covariance_gap(CanonicalB1(), state_stack(20), theta) > 1e-3


def _phase_resolved_average(prior_rule, applier, eta, lam, cutoff):
    # The (2N - 1)-point phase trapezoid on every radius of the N-node rule:
    # exact for any map truncated to N levels, phase-covariant or not.
    radii, weights = prior_rule(eta, lam, cutoff)
    phases = np.exp(2j * np.pi * np.arange(2 * cutoff - 1) / (2 * cutoff - 1))
    total = 0.0
    for r, w in zip(radii, weights):
        kets_in = fock.coherent_amplitudes(r * phases, cutoff).T
        kets_out = fock.coherent_amplitudes(math.sqrt(eta) * r * phases, cutoff).T
        projectors = kets_in[:, :, None] * kets_in.conj()[:, None, :]
        total += w * np.mean(fock.fidelity_pure(kets_out, applier(projectors)))
    return total


@pytest.mark.parametrize("cutoff", [24, 40])
@pytest.mark.parametrize("model", COVARIANT + NOT_COVARIANT, ids=_name)
def test_one_phase_per_radius_is_exact_on_the_truncated_space(model, cutoff, prior_rule):
    eta, lam = 0.9, 0.4
    own = fock_applier(model)
    got = fock.average_fidelity_fock(fock_applier(model), eta, lam, cutoff=cutoff)
    assert abs(got.value - _phase_resolved_average(prior_rule, own, eta, lam, cutoff)) <= 1e-13


def test_a_displaced_isotropic_channel_is_one_displacement():
    # no noise remainder: the mean is one unitary, D(beta) itself, in both views
    channel = GaussianChannel(0.9 * E2, 0.2 * E2, np.array([0.5, -0.3]))
    mixture = schemes._realization(channel)[-1]
    assert isinstance(mixture, fock.DisplacementMixture)
    weights, unitaries = mixture.unitaries(30)
    assert weights.tolist() == [1.0]
    assert np.array_equal(unitaries, fock.displacement((0.5 - 0.3j) / math.sqrt(2.0), 30)[None])


def test_fock_error_estimate_bounds_the_true_deviation():
    # Seeded draws of eta, lambda and the model's own parameters, crossed with
    # small and large cutoffs.  On this grid the bare tail sum
    # 3 (tau_in + tau_out) misses two cases, one loss and one amplifier.
    rng = np.random.default_rng(1)
    draws = [
        lambda eta, lam: PureLoss(rng.uniform(0.3, 1.0)),
        lambda eta, lam: QuantumLimitedAmp(rng.uniform(1.0, 2.0)),
        lambda eta, lam: CanonicalB1(),
        lambda eta, lam: CanonicalC(rng.uniform(0.3, 2.0), rng.uniform(0.0, 0.6)),
        lambda eta, lam: HeterodyneMP(math.sqrt(eta) / (1 + lam) * rng.uniform(0.8, 1.2)),
    ] + [lambda eta, lam, c=c: c for c in RAW_CHANNELS]
    worst = 0.0
    for draw in draws:
        for cutoff in (2, 4, 8, 16, 24, 40):
            for _ in range(5):
                eta, lam = rng.uniform(0.3, 2.0), rng.uniform(0.05, 1.0)
                model = draw(eta, lam)
                channel = model if isinstance(model, GaussianChannel) else to_gaussian(model)
                avg = fock.average_fidelity_fock(fock_applier(model), eta, lam,
                                                 cutoff=cutoff)
                gap = abs(avg.value - average_fidelity_gaussian(channel, eta, lam))
                assert gap <= avg.error, (model, cutoff, eta, lam, gap, avg.error)
                worst = max(worst, gap / avg.error)
    assert worst > 0.1  # the bound is not vacuous on this grid


def test_fock_applier_for_raw_gaussian_channels():
    channel = to_gaussian(CanonicalC(eta=0.7, ntilde=0.2))
    applier = fock_applier(channel)
    ket = fock.coherent_ket(0.4, 40)
    rho = np.outer(ket, ket.conj())
    out = applier(rho)
    mean, cov = fock.mean_and_covariance(out)
    expected = apply_channel(channel, GaussianState.coherent(0.4))
    assert np.allclose(mean, expected.d, atol=1e-6)
    assert np.allclose(cov, expected.gamma, atol=1e-6)

    shifted = GaussianChannel(0.9 * E2, 0.2 * E2, np.array([0.5, -0.3]))
    out = fock_applier(shifted)(rho)
    mean, _ = fock.mean_and_covariance(out)
    expected = apply_channel(shifted, GaussianState.coherent(0.4))
    assert np.allclose(mean, expected.d, atol=1e-6)


def test_fock_applier_skips_roundoff_noise(monkeypatch):
    # to_gaussian(PureLoss(0.5)) has K = sqrt(0.5) E2, and sqrt(0.5)**2 != 0.5
    # leaves ~1e-17 of noise above the loss floor: no mixture should run for it.
    calls = []
    apply = fock.DisplacementMixture.apply

    def counting(mixture, matrix):
        calls.append(mixture)
        return apply(mixture, matrix)

    monkeypatch.setattr(fock.DisplacementMixture, "apply", counting)
    ket = fock.coherent_ket(0.7 - 0.3j, 40)
    rho = np.outer(ket, ket.conj())
    out = fock_applier(to_gaussian(PureLoss(0.5)))(rho)
    assert calls == []
    assert np.allclose(out, fock.apply_loss(rho, 0.5), rtol=0.0, atol=1e-12)
    # isotropic noise is loss followed by gain: no mixture; only an
    # anisotropic remainder runs one, on its one axis
    for model, mixtures in [
            (CanonicalC(eta=0.7, ntilde=0.3), 0), (CanonicalC(eta=1.3, ntilde=0.4), 0),
            (GaussianChannel(0.9 * E2, 0.3 * E2), 0),
            (Compose([CanonicalC(eta=0.8, ntilde=0.2), QuantumLimitedAmp(1.3),
                      PureLoss(0.6)]), 0),
            (CanonicalB1(), 1),
            (GaussianChannel(1.1 * E2, np.diag([0.4, 0.2])), 1)]:
        calls.clear()
        fock_applier(model)(rho)
        assert len(calls) == mixtures, model
    assert calls[0].variance == pytest.approx(0.4 - 0.2)  # the remainder above the isotropic part


@pytest.mark.parametrize("model", [
    CanonicalC(eta=0.7, ntilde=0.3), CanonicalC(eta=1.3, ntilde=0.4),
    GaussianChannel(0.9 * E2, 0.3 * E2),
], ids=["C-0.7", "C-1.3", "raw"])
def test_isotropic_realization_is_exact_up_to_the_cutoff(model):
    # The padded input is zero from level N on.  Loss never raises the photon
    # number and gain never lowers it, so the output entries below N come from
    # the same input entries either way: the applier at cutoff N equals the
    # top-left block of the one at 2N.  A displacement mixture would not.
    cutoff = 16
    ket = fock.coherent_ket(2.5 - 1.0j, cutoff, weight_tol=None)
    rho = np.outer(ket, ket.conj())
    assert abs(rho[-1, -1]) > 1e-3
    padded = np.zeros((2 * cutoff, 2 * cutoff), dtype=complex)
    padded[:cutoff, :cutoff] = rho
    applier = fock_applier(model)
    small = applier(rho)
    large = applier(padded)
    assert np.abs(small - large[:cutoff, :cutoff]).max() <= 1e-12


def test_fock_applier_rejects_bad_channels():
    with pytest.raises(NotCompletelyPositive):
        fock_applier(GaussianChannel(2.0 * E2, np.zeros((2, 2))))
    with pytest.raises(UnsupportedTask):
        fock_applier(GaussianChannel(
            np.array([[0.5, 0.0], [0.0, 0.9]]), E2))


def _seeded_realizable_channels(seed=9, count=10):
    rng = np.random.default_rng(seed)
    channels = [CanonicalB1(), PureLoss(0.6), QuantumLimitedAmp(1.8)] + RAW_CHANNELS
    for _ in range(count):
        k = rng.uniform(0.2, 2.0)
        floor = abs(1.0 - k * k) / 2.0
        channels += [CanonicalC(rng.uniform(0.2, 2.5), rng.uniform(0.0, 1.0)),
                     GaussianChannel(k * E2, np.diag(floor + rng.uniform(0.0, 0.8, 2)),
                                     rng.normal(0.0, 1.0, 2))]
    return channels


@pytest.mark.parametrize("channel", _seeded_realizable_channels(), ids=_name)
def test_realization_recomposes_to_the_channel(channel):
    # loss T then a quantum-limited amplifier G, the remainder as classical
    # noise on its axis and the mean beta give back (K, M, disp)
    T, gain, remainder, axis, beta = schemes._loss_amp_realization(
        schemes.channel_form(channel))
    chain = to_gaussian(Compose([PureLoss(T), QuantumLimitedAmp(gain)]))
    M = chain.M.copy()
    M[axis, axis] += remainder
    disp = math.sqrt(2.0) * np.array([beta.real, beta.imag])
    want = channel if isinstance(channel, GaussianChannel) else to_gaussian(channel)
    assert np.abs(chain.K - want.K).max() <= 1e-12
    assert np.abs(M - want.M).max() <= 1e-12
    assert np.abs(disp - want.disp).max() <= 1e-12


def test_channel_form_refuses_a_negative_or_non_isotropic_gain():
    # K = -0.5 I is a pi-rotated attenuator: proportional to the identity, but k < 0
    flipped = GaussianChannel(-0.5 * E2, 0.375 * E2)
    assert is_cp_channel(flipped)
    for channel in (flipped, HeterodyneMP(0.0),
                    GaussianChannel(np.diag([0.5, 0.9]), E2)):
        with pytest.raises(UnsupportedTask, match="K = k I and k > 0"):
            schemes.channel_form(channel)
    with pytest.raises(NotCompletelyPositive):
        schemes.channel_form(GaussianChannel(2.0 * E2, np.zeros((2, 2))))
    form = schemes.channel_form(PureLoss(0.6))
    assert form.k2 == 0.6 and not form.rotated  # exact, not sqrt(0.6) ** 2
    assert form.extra.tolist() == [0.0, 0.0]
