import csv
import math
import tracemalloc

import numpy as np
import pytest

from cvbench.bounds import classical_bound, quadrature_threshold
from cvbench.certify import (CertificationReport, ExperimentDataset,
                             QuadratureRecord, average_deviation, bootstrap_se,
                             certify_by_fidelity,
                             certify_by_fidelity_from_variance,
                             certify_by_variance, delta_bar, detect_gaussian_qd,
                             estimate_gain, expected_deviation,
                             read_dataset_csv, synthesize_dataset,
                             write_dataset_csv)
from cvbench.errors import (DatasetError, InvalidInput, NotCompletelyPositive,
                            UnsupportedTask)
from cvbench.gaussian import E2, GaussianChannel
from cvbench.schemes import (CanonicalB1, CanonicalC, HeterodyneMP, PureLoss,
                             QuantumLimitedAmp, to_gaussian)

GRID = [1.2, -1.2, 1.2j, -1.2j, 1.8, -1.8, 1.8j, -1.8j]


def make_dataset(channel, n=10_000, lam=0.1, seed=7, eta_declared=None, alphas=GRID):
    return synthesize_dataset(channel, alphas, n, lam, seed=seed,
                              eta_declared=eta_declared)


# ---------------------------------------------------------------------------
# dataset validation


def test_record_rejects_bad_labels_and_samples():
    with pytest.raises(DatasetError):
        QuadratureRecord(1.0, "sideways", np.zeros(3))
    with pytest.raises(DatasetError):
        QuadratureRecord(1.0, "plus", np.array([]))
    with pytest.raises(DatasetError):
        QuadratureRecord(1.0, "plus", np.array([1.0, np.nan]))


def test_dataset_requires_both_quadratures_per_probe():
    recs = [QuadratureRecord(1.0, "plus", np.zeros(4)),
            QuadratureRecord(1.0, "minus", np.zeros(4)),
            QuadratureRecord(2.0, "plus", np.zeros(4))]
    with pytest.raises(DatasetError, match="both quadratures"):
        ExperimentDataset(recs, lam=0.2)
    ExperimentDataset(recs[:2], lam=0.2)  # the complete probe alone is fine


def test_dataset_rejects_bad_widths_and_weights():
    recs = [QuadratureRecord(1.0, "plus", np.zeros(2)),
            QuadratureRecord(1.0, "minus", np.zeros(2))]
    with pytest.raises(DatasetError):
        ExperimentDataset(recs, lam=0.0)
    with pytest.raises(DatasetError):
        ExperimentDataset(recs, lam=0.2, weights=[0.3, 0.7])
    with pytest.raises(DatasetError):
        ExperimentDataset(recs, lam=0.2, weights=[-1.0])
    ds = ExperimentDataset(recs, lam=0.2, weights=[5.0])
    assert ds.probe_weights() == pytest.approx([1.0])


def test_default_weights_follow_the_prior_on_the_grid():
    recs = []
    for alpha in (0.0, 2.0):
        recs.append(QuadratureRecord(alpha, "plus", np.zeros(2)))
        recs.append(QuadratureRecord(alpha, "minus", np.zeros(2)))
    ds = ExperimentDataset(recs, lam=0.5)
    w = ds.probe_weights()
    assert w[0] / w[1] == pytest.approx(math.exp(0.5 * 4.0), rel=1e-12)
    assert ds.mean_square_displacement() == pytest.approx(w[1] * 8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# the deviation statistic


def test_identity_channel_scores_zero():
    ds = make_dataset(GaussianChannel(E2, np.zeros((2, 2))), n=20_000)
    value, se = delta_bar(ds, 1.0)
    assert abs(value) < 6 * se
    assert average_deviation(GaussianChannel(E2, np.zeros((2, 2))), 1.0, 0.1) \
        == pytest.approx(1.0)  # v = Tr gamma' = 1 before the floor is removed


def test_unit_gain_mp_scores_two():
    assert average_deviation(to_gaussian(HeterodyneMP(1.0)), 1.0, 0.3) \
        == pytest.approx(3.0, rel=1e-12)
    ds = make_dataset(HeterodyneMP(1.0), n=20_000)
    value, se = delta_bar(ds, 1.0)
    assert value == pytest.approx(2.0, abs=6 * se)


def test_single_quadrature_noise_scores_one_half():
    assert average_deviation(to_gaussian(CanonicalB1()), 1.0, 0.2) \
        == pytest.approx(1.5, rel=1e-12)
    ds = make_dataset(CanonicalB1(), n=20_000)
    value, se = delta_bar(ds, 1.0)
    assert value == pytest.approx(0.5, abs=6 * se)


def test_expected_deviation_matches_average_over_probes():
    channel = to_gaussian(PureLoss(0.49))
    per_probe = [expected_deviation(channel, 0.49, a) for a in GRID]
    # matched gain: no alpha dependence, so the prior average is the value
    assert np.ptp(per_probe) < 1e-12
    assert average_deviation(channel, 0.49, 0.7) == pytest.approx(per_probe[0])


def test_mismatched_gain_penalty_scales_with_inverse_width():
    channel = to_gaussian(PureLoss(0.36))
    v1 = average_deviation(channel, 1.0, 0.5)
    v2 = average_deviation(channel, 1.0, 0.25)
    trace_part = average_deviation(channel, 0.36, 0.5)
    assert v2 - trace_part == pytest.approx(2.0 * (v1 - trace_part), rel=1e-12)
    with pytest.raises(InvalidInput):
        average_deviation(channel, 1.0, 0.0)


def test_delta_bar_rejects_bad_gain():
    ds = make_dataset(PureLoss(0.6), n=50)
    with pytest.raises(InvalidInput):
        delta_bar(ds, 0.0)


# ---------------------------------------------------------------------------
# gain estimation


def test_estimate_gain_recovers_loss_transmissivity():
    ds = make_dataset(PureLoss(0.6))
    assert 0.58 < estimate_gain(ds) < 0.62


def test_estimate_gain_recovers_identity_and_amplifier():
    assert estimate_gain(make_dataset(GaussianChannel(E2, np.zeros((2, 2))))) \
        == pytest.approx(1.0, abs=0.03)
    assert estimate_gain(make_dataset(to_gaussian(QuantumLimitedAmp(2.0)))) == pytest.approx(2.0, abs=0.08)


def test_estimate_gain_needs_three_probes():
    ds = make_dataset(PureLoss(0.6), n=100, alphas=[1.0, 2.0])
    with pytest.raises(DatasetError, match="3 distinct"):
        estimate_gain(ds)


def test_estimate_gain_needs_displaced_probes():
    ds = make_dataset(PureLoss(0.6), n=100, alphas=[0.0])
    with pytest.raises(DatasetError):
        estimate_gain(ds)


# ---------------------------------------------------------------------------
# certification from quadrature data


def test_lossy_channel_is_certified_quantum():
    ds = make_dataset(PureLoss(0.6), eta_declared=0.6, seed=7)
    report = certify_by_variance(ds, n_boot=400)
    assert report.certified
    assert report.verdict == "QUANTUM_DOMAIN"
    assert report.threshold == pytest.approx(quadrature_threshold(0.6, 0.1))
    assert report.statistic == pytest.approx(0.0, abs=6 * report.se)
    assert report.eta_source == "declared"


def test_optimal_classical_strategy_is_not_certified():
    g_star = 1.0 / 1.1
    ds = make_dataset(HeterodyneMP(g_star), eta_declared=1.0, seed=8)
    report = certify_by_variance(ds, n_boot=400)
    assert not report.certified
    assert report.margin < 0
    # grid-weighted closed form for the same statistic
    channel = to_gaussian(HeterodyneMP(g_star))
    expected = ds.probe_weights() @ [expected_deviation(channel, 1.0, a)
                                     for a in ds.probe_amplitudes()] - 1.0
    assert report.statistic == pytest.approx(expected, abs=6 * report.se)


def test_estimated_gain_route_also_certifies():
    ds = make_dataset(PureLoss(0.6), seed=11)
    report = certify_by_variance(ds, n_boot=200)
    assert report.eta_source == "estimated"
    assert 0.55 < report.eta < 0.65
    assert report.certified


def test_declared_gain_wins_but_mismatch_is_noted():
    ds = make_dataset(PureLoss(0.6), eta_declared=1.0, seed=7)
    report = certify_by_variance(ds, n_boot=200)
    assert report.eta == 1.0
    assert any("differs from declared" in note for note in report.notes)


def test_weak_probe_grid_is_refused():
    ds = make_dataset(PureLoss(0.6), n=200, eta_declared=0.6,
                      alphas=[0.1, 0.1j, -0.1, 0.15])
    with pytest.raises(DatasetError, match="grid too weak"):
        certify_by_variance(ds)


def test_report_serializes_with_counts():
    ds = make_dataset(PureLoss(0.6), n=500, eta_declared=0.6)
    blob = certify_by_variance(ds, n_boot=100).to_json()
    assert blob["n_probes"] == len(GRID)
    assert blob["n_samples"] == 2 * len(GRID) * 500
    assert blob["method"] == "variance"
    assert isinstance(blob["notes"], list)


def test_bootstrap_is_seeded_and_sane():
    ds = make_dataset(PureLoss(0.6), n=2000, eta_declared=0.6)
    a = bootstrap_se(ds, 0.6, n_boot=300, seed=4)
    assert a == bootstrap_se(ds, 0.6, n_boot=300, seed=4)
    _, analytic = delta_bar(ds, 0.6)
    assert 0.5 * analytic < a < 2.0 * analytic
    with pytest.raises(InvalidInput):
        bootstrap_se(ds, 0.6, n_boot=1)


# ---------------------------------------------------------------------------
# certification from fidelity


def test_fidelity_certification_from_models():
    qd = certify_by_fidelity(CanonicalB1(), eta=1.0, lam=0.05)
    assert qd.certified
    assert qd.statistic == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)

    g_star = math.sqrt(1.0) / 1.05
    tie = certify_by_fidelity(HeterodyneMP(g_star), eta=1.0, lam=0.05)
    assert not tie.certified
    assert abs(tie.margin) < 1e-12


def test_fidelity_certification_from_floats():
    report = certify_by_fidelity(0.9, eta=1.0, lam=0.05, se=0.01)
    assert report.certified
    assert report.threshold == pytest.approx(classical_bound(1.0, 0.05))
    assert not certify_by_fidelity(0.52, eta=1.0, lam=0.05, se=0.01).certified
    with pytest.raises(InvalidInput):
        certify_by_fidelity(1.2, eta=1.0, lam=0.05)
    with pytest.raises(InvalidInput):
        certify_by_fidelity(0.9, eta=1.0, lam=0.05, se=-1e-3)


def test_fidelity_floor_from_variance_data():
    ds = make_dataset(PureLoss(0.6), eta_declared=0.6, seed=7)
    report = certify_by_fidelity_from_variance(ds, n_boot=300)
    assert report.method == "fidelity_from_variance"
    assert report.certified
    value, _ = delta_bar(ds, 0.6)
    assert report.statistic == pytest.approx(1.0 - value / 2.0, rel=1e-12)
    assert report.threshold == pytest.approx(classical_bound(0.6, 0.1))


# ---------------------------------------------------------------------------
# synthetic data


def test_synthesis_is_deterministic():
    a = make_dataset(PureLoss(0.6), n=50, seed=3)
    b = make_dataset(PureLoss(0.6), n=50, seed=3)
    for ra, rb in zip(a.records, b.records):
        assert ra.alpha == rb.alpha and ra.quad_label == rb.quad_label
        assert np.array_equal(ra.samples, rb.samples)
    c = make_dataset(PureLoss(0.6), n=50, seed=4)
    assert not np.array_equal(a.records[0].samples, c.records[0].samples)


def test_synthesis_guards_sample_count():
    with pytest.raises(InvalidInput):
        synthesize_dataset(PureLoss(0.6), [1.0], 0, 0.1)


# ---------------------------------------------------------------------------
# Gaussian-channel classification


def test_amplifier_with_no_extra_noise_is_quantum():
    report = detect_gaussian_qd(CanonicalC(1.5, 0.0), lam=1e-3)
    assert report.family == "gain_with_isotropic_noise"
    assert report.fbar == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert report.is_quantum_domain
    assert report.margin > 0.26  # 2/3 against roughly 0.4


def test_boundary_channel_has_exactly_zero_margin():
    report = detect_gaussian_qd(CanonicalC(0.5, 0.5), lam=1e-3)
    assert not report.is_quantum_domain
    assert report.margin_zero_width == 0.0
    assert report.fbar == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_single_quadrature_family_is_always_quantum():
    report = detect_gaussian_qd(CanonicalB1())
    assert report.family == "single_quadrature_noise"
    assert report.fbar == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)
    assert report.is_quantum_domain
    blob = report.to_json()
    assert set(blob["ladder"]) == {"0.001", "0.01", "0.05", "0.1", "0.2"}


def test_measure_and_prepare_is_never_quantum():
    report = detect_gaussian_qd(HeterodyneMP(1.0))
    assert report.eta == pytest.approx(1.0)
    assert report.added_noise == pytest.approx(1.0)
    assert not report.is_quantum_domain


def test_raw_channels_are_classified_like_models():
    raw = detect_gaussian_qd(to_gaussian(PureLoss(0.36)), lam=0.01)
    model = detect_gaussian_qd(PureLoss(0.36), lam=0.01)
    assert raw.family == model.family
    assert raw.fbar == pytest.approx(model.fbar, rel=1e-12)
    assert raw.is_quantum_domain and model.is_quantum_domain


def test_classifier_rejects_unphysical_and_alien_channels():
    with pytest.raises(NotCompletelyPositive):
        detect_gaussian_qd(GaussianChannel(math.sqrt(2.0) * E2, 0.3 * E2))
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(UnsupportedTask):
        detect_gaussian_qd(GaussianChannel(rot, E2))
    with pytest.raises(UnsupportedTask):
        detect_gaussian_qd(GaussianChannel(E2, np.diag([0.5, 0.2])))
    with pytest.raises(UnsupportedTask):
        detect_gaussian_qd(GaussianChannel(E2, E2, disp=np.array([1.0, 0.0])))


# ---------------------------------------------------------------------------
# CSV interchange


def test_csv_roundtrip_preserves_the_statistic(tmp_path):
    ds = make_dataset(PureLoss(0.6), n=200, eta_declared=0.6)
    path = tmp_path / "runs.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path, lam=0.1, eta_declared=0.6)
    assert back.probe_amplitudes() == ds.probe_amplitudes()
    assert delta_bar(back, 0.6) == delta_bar(ds, 0.6)


def test_csv_header_is_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,quad,value\n1.0,plus,0.5\n")
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(path, lam=0.1)
    assert err.value.line == 1


def test_csv_errors_carry_line_numbers(tmp_path):
    head = "alpha_re,alpha_im,quad_label,value\n"
    bad_value = tmp_path / "value.csv"
    bad_value.write_text(head + "1.0,0.0,plus,0.5\n1.0,0.0,minus,oops\n")
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(bad_value, lam=0.1)
    assert err.value.line == 3

    bad_label = tmp_path / "label.csv"
    bad_label.write_text(head + "1.0,0.0,diagonal,0.5\n")
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(bad_label, lam=0.1)
    assert err.value.line == 2

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(empty, lam=0.1)
    assert err.value.line == 1

    header_only = tmp_path / "header.csv"
    header_only.write_text(head)
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(header_only, lam=0.1)
    assert err.value.line == 2


def _reference_read(path, lam):
    """The csv-module reader that read_dataset_csv replaced, kept as a reference."""
    groups, order = {}, []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("CSV file is empty", line=1) from None
        if [h.strip() for h in header] != ["alpha_re", "alpha_im", "quad_label", "value"]:
            raise DatasetError(f"CSV header must be alpha_re,alpha_im,quad_label,value, "
                               f"got {','.join(header)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise DatasetError(f"expected 4 fields, got {len(row)}", line=lineno)
            try:
                re_part, im_part = float(row[0]), float(row[1])
                value = float(row[3])
            except ValueError as exc:
                raise DatasetError(f"non-numeric field: {exc}", line=lineno) from None
            label = row[2].strip()
            if label not in ("plus", "minus"):
                raise DatasetError(f"quadrature label must be one of ('plus', 'minus'), "
                                   f"got {label!r}", line=lineno)
            key = (re_part, im_part, label)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(value)
    if not order:
        raise DatasetError("CSV file has a header but no sample rows", line=2)
    return ExperimentDataset(
        [QuadratureRecord(complex(re, im), label, np.array(groups[(re, im, label)]))
         for re, im, label in order], lam=lam)


def _signature(ds):
    """Records bit for bit: amplitude and sample bits, label, in record order."""
    return [(np.array([r.alpha.real, r.alpha.imag]).view(np.int64).tolist(),
             r.quad_label, r.samples.view(np.int64).tolist()) for r in ds.records]


def assert_reads_like_reference(path):
    new, ref = read_dataset_csv(path, lam=0.1), _reference_read(path, lam=0.1)
    assert _signature(new) == _signature(ref)
    assert delta_bar(new, 0.6) == delta_bar(ref, 0.6)
    return new


HEAD = "alpha_re,alpha_im,quad_label,value\n"
CHUNK = 4096          # lines read_dataset_csv converts at a time


def test_csv_reader_matches_the_reference_across_chunks(tmp_path):
    # 7 probes x 2 axes x 1000 rows: more than 3 chunks, and groups 4 and 8
    # straddle chunk boundaries
    ds = make_dataset(PureLoss(0.6), n=1000, alphas=GRID[:7])
    path = tmp_path / "runs.csv"
    write_dataset_csv(ds, path)
    assert sum(1 for _ in open(path)) - 1 > 3 * CHUNK
    assert_reads_like_reference(path)

    # the same rows shuffled, so every group's samples span every chunk
    lines = open(path).read().splitlines()
    order = np.random.default_rng(5).permutation(len(lines) - 1) + 1
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([lines[0]] + [lines[i] for i in order]) + "\n")
    back = assert_reads_like_reference(shuffled)
    assert back.sample_count() == ds.sample_count()


@pytest.mark.parametrize("body", [
    "1.0,0.0,plus,0.5\r\n1.0,0.0,minus,-0.25\r\n1.0,0.0,plus,0.75\r\n",
    "1.0,0.0,plus,0.5\r1.0,0.0,minus,-0.25\r1.0,0.0,plus,0.75\r",
    "1.0,0.0,plus,0.5\n\n   \n1.0,0.0,minus,-0.25\r\n\t\r\n1.0,0.0,plus,0.75",
], ids=["crlf", "lone-cr", "blank-lines"])
def test_csv_line_endings_and_blank_lines(tmp_path, body):
    path = tmp_path / "runs.csv"
    path.write_bytes((HEAD + body).encode())
    ds = assert_reads_like_reference(path)
    assert [r.samples.tolist() for r in ds.records] == [[0.5, 0.75], [-0.25]]


def test_csv_spellings_of_one_key_merge_in_file_order(tmp_path):
    path = tmp_path / "runs.csv"
    path.write_text(HEAD + "1.0,0.0,plus,0.1\n"
                    "-0.0,2.0,minus,0.2\n"
                    "1.00,0.0,plus,0.3\n"
                    "1.0,0.0, plus ,0.4\n"
                    "0.0,2.0,minus,0.5\n"
                    "1,0,plus,0.6\n"
                    "1.0,-0.0,minus,0.7\n"
                    "0.0,2.00,plus,0.8\n")
    ds = assert_reads_like_reference(path)
    assert [(r.alpha, r.quad_label, r.samples.tolist()) for r in ds.records] == [
        (1 + 0j, "plus", [0.1, 0.3, 0.4, 0.6]), (2j, "minus", [0.2, 0.5]),
        (1 + 0j, "minus", [0.7]), (2j, "plus", [0.8])]
    assert math.copysign(1.0, ds.records[1].alpha.real) == -1.0   # first spelling kept


ERRORS = {
    # case: (body, line, message fragment)
    "value-before-label": ("1.0,0.0,plus,0.5\n1.0,0.0,plus,oops\n1.0,0.0,diag,0.5\n",
                           3, "non-numeric field"),
    "label-before-value": ("1.0,0.0,plus,0.5\n1.0,0.0,diag,0.5\n1.0,0.0,plus,oops\n",
                           3, "quadrature label"),
    "both-on-one-line": ("1.0,0.0,plus,0.5\n1.0,0.0,diag,oops\n", 3, "non-numeric field"),
    "bad-amplitude": ("1.0,0.0,plus,0.5\nx,0.0,plus,0.5\n", 3, "non-numeric field"),
    "empty-value": ("1.0,0.0,plus,0.5\n1.0,0.0,plus,\n", 3, "non-numeric field"),
    "five-fields": ("1.0,0.0,plus,0.5\n1.0,0.0,plus,0.5,0.7\n", 3, "expected 4 fields, got 5"),
    "after-blank-lines": ("1.0,0.0,plus,0.5\n\n  \n1.0,0.0,minus,nan?\n", 5, "non-numeric"),
    "second-chunk": ("1.0,0.0,plus,0.5\n" * (CHUNK + 10) + "1.0,0.0,diag,0.5\n"
                     + "1.0,0.0,plus,oops\n", CHUNK + 12, "quadrature label"),
}


@pytest.mark.parametrize("case", ERRORS)
def test_csv_reports_the_first_bad_line_like_the_reference(tmp_path, case):
    body, line, fragment = ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text(HEAD + body)
    with pytest.raises(DatasetError) as new:
        read_dataset_csv(path, lam=0.1)
    with pytest.raises(DatasetError) as ref:
        _reference_read(path, lam=0.1)
    assert (new.value.line, str(new.value)) == (ref.value.line, str(ref.value))
    assert new.value.line == line
    assert fragment in str(new.value)


NON_FINITE = {
    # case: (body, line); a valid probe comes first in every file.  A value
    # on an already seen probe is caught by the chunk's vectorised check.
    "nan-amplitude": ("1.0,0.0,plus,0.5\n1.0,0.0,minus,0.5\n"
                      "nan,0.0,plus,0.5\nnan,0.0,minus,0.5\n", 4),
    "inf-value": ("1.0,0.0,plus,0.5\n1.0,0.0,minus,0.5\n"
                  "2.0,0.0,plus,0.5\n2.0,0.0,minus,inf\n", 5),
    "inf-value-known-probe": ("1.0,0.0,plus,0.5\n1.0,0.0,minus,0.5\n"
                              "1.0,0.0,plus,-inf\n", 4),
    "overflowing-value": ("1.0,0.0,plus,0.5\n1.0,0.0,minus,-1e999\n", 3),
    "nan-value-later-chunk": ("1.0,0.0,plus,0.5\n1.0,0.0,minus,0.5\n" * (CHUNK // 2 + 5)
                              + "1.0,0.0,plus,NaN\n1.0,0.0,plus,oops\n", CHUNK + 12),
    "nan-value-before-bad-label": ("1.0,0.0,plus,0.5\n1.0,0.0,minus,nan\n"
                                   "1.0,0.0,diag,0.5\n", 3),
}


@pytest.mark.parametrize("case", NON_FINITE)
def test_csv_rejects_non_finite_fields_at_their_line(tmp_path, case):
    body, line = NON_FINITE[case]
    path = tmp_path / "bad.csv"
    path.write_text(HEAD + body)
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(path, lam=0.1)
    assert err.value.line == line
    assert "non-finite field" in str(err.value)


@pytest.mark.parametrize("row", ['1.0,0.0,plus,"0.5"', '"1.0",0.0,plus,0.5',
                                 '1.0,0.0,"plus",0.5'])
def test_csv_rejects_quoted_fields(tmp_path, row):
    path = tmp_path / "quoted.csv"
    path.write_text(HEAD + "1.0,0.0,plus,0.5\n1.0,0.0,minus,0.5\n" + row + "\n")
    with pytest.raises(DatasetError) as err:
        read_dataset_csv(path, lam=0.1)
    assert err.value.line == 4


def test_csv_reader_memory_stays_near_the_sample_array(tmp_path):
    """Peak traced allocation of a 50k-row read: 3x the final samples plus one chunk.

    While a chunk is parsed, the rows read so far sit in two 8-byte arrays
    (values and group ids), and the chunk's 4096 lines sit in memory as
    Python strings -- each line, its value and its prefix -- at about seven
    times the chunk's text; eight times is allowed.  Reading 8192 lines at
    a time fails the bound, and so does keeping the chunk arrays alive
    through the final sort.
    """
    ds = make_dataset(PureLoss(0.6), n=3126)
    path = tmp_path / "runs.csv"
    write_dataset_csv(ds, path)
    n = ds.sample_count()
    chunk_text = CHUNK * path.stat().st_size / (n + 1)
    tracemalloc.start()
    try:
        read_dataset_csv(path, lam=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n + 8 * chunk_text
