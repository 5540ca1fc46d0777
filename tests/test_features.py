import dataclasses

import numpy as np
import pytest

from peot.data import Recording
from peot.errors import ConfigError, InvalidInputError
from peot.features import (
    BAND_POWER,
    DEFAULT_COST_TABLE,
    FIR_ORDER,
    LINE_LENGTH,
    VARIANCE,
    FeatureEntry,
    FeatureSpec,
    band_power,
    default_feature_spec,
    design_bandpass,
    extract_features,
    feature_cost_vector,
    line_length,
    variance,
)
from peot.synth import synth_recording

FS = 256.0


def _recording(windows, fs=FS):
    windows = np.asarray(windows, dtype=float)
    return Recording(windows=windows, fs=fs,
                     labels=np.zeros(windows.shape[0], dtype=np.int64))


class TestLineLength:
    def test_constant_signal(self):
        assert line_length([1, 1, 1, 1]) == 0.0

    def test_ramp(self):
        # (1/4) * (1 + 1 + 1)
        assert line_length([0, 1, 2, 3]) == pytest.approx(0.75, abs=0)

    def test_matches_direct_summation_oracle(self):
        x = np.random.default_rng(7).standard_normal(256)
        expected = sum(abs(x[n] - x[n - 1]) for n in range(1, 256)) / 256
        assert line_length(x) == pytest.approx(expected, abs=1e-12)

    def test_translation_invariant(self):
        x = np.random.default_rng(0).standard_normal(128)
        for k in (-3.5, 10.0, 1e6):
            assert line_length(x + k) == pytest.approx(line_length(x), rel=1e-9)

    def test_scales_with_abs_amplitude(self):
        x = np.random.default_rng(1).standard_normal(128)
        base = line_length(x)
        assert line_length(-2.5 * x) == pytest.approx(2.5 * base, rel=1e-12)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            line_length([1.0])


class TestVariance:
    def test_constant(self):
        assert variance([5, 5, 5]) == 0.0

    def test_two_points(self):
        assert variance([0, 2]) == pytest.approx(1.0, abs=0)

    def test_matches_two_pass_oracle(self):
        x = np.random.default_rng(2).standard_normal(300)
        mean = sum(x) / len(x)
        expected = sum((v - mean) ** 2 for v in x) / len(x)
        assert variance(x) == pytest.approx(expected, abs=1e-12)

    def test_quadratic_scaling(self):
        x = np.random.default_rng(3).standard_normal(64)
        assert variance(3.0 * x) == pytest.approx(9.0 * variance(x), rel=1e-12)

    def test_too_short(self):
        with pytest.raises(InvalidInputError):
            variance([1.0])


class TestBandPower:
    def test_zero_signal(self):
        assert band_power(np.zeros(256), FS, 8.0, 12.0) == 0.0

    def test_in_band_vs_out_of_band_sinusoid(self):
        t = np.arange(256) / FS
        x = np.sin(2 * np.pi * 10.0 * t)
        in_band = band_power(x, FS, 8.0, 12.0)
        out_band = band_power(x, FS, 30.0, 40.0)
        assert in_band > 10.0 * out_band

    def test_wideband_passes_nearly_everything(self):
        x = np.random.default_rng(4).standard_normal(1024)
        wide = band_power(x, FS, 1.0, 127.9)
        assert wide == pytest.approx(np.mean(x * x), rel=0.20)

    def test_impulse_response_is_symmetric(self):
        taps = design_bandpass(8.0, 12.0, FS)
        assert taps.size == 65
        np.testing.assert_array_equal(taps, taps[::-1])

    def test_band_outside_nyquist(self):
        with pytest.raises(InvalidInputError):
            band_power(np.zeros(256), FS, 100.0, 140.0)
        with pytest.raises(InvalidInputError):
            design_bandpass(12.0, 8.0, FS)

    def test_window_too_short(self):
        with pytest.raises(InvalidInputError):
            band_power(np.zeros(64), FS, 8.0, 12.0)


class TestExtractFeatures:
    def test_shape_one_entry(self):
        rec = _recording(np.random.default_rng(0).standard_normal((3, 3, 128)))
        spec = FeatureSpec([FeatureEntry(1, LINE_LENGTH)])
        out = extract_features(rec, spec)
        assert out.shape == (3, 1)

    def test_duplicate_entries_identical_columns(self):
        rec = _recording(np.random.default_rng(1).standard_normal((4, 2, 128)))
        spec = FeatureSpec([FeatureEntry(0, VARIANCE), FeatureEntry(0, VARIANCE)])
        out = extract_features(rec, spec)
        np.testing.assert_array_equal(out[:, 0], out[:, 1])

    def test_permuting_entries_permutes_columns(self):
        rec = _recording(np.random.default_rng(2).standard_normal((5, 2, 128)))
        entries = [FeatureEntry(0, LINE_LENGTH), FeatureEntry(1, VARIANCE),
                   FeatureEntry(0, BAND_POWER, (8.0, 12.0))]
        a = extract_features(rec, FeatureSpec(entries))
        b = extract_features(rec, FeatureSpec(entries[::-1]))
        np.testing.assert_array_equal(a, b[:, ::-1])

    def test_deterministic(self):
        rec = _recording(np.random.default_rng(3).standard_normal((6, 3, 128)))
        spec = default_feature_spec(3, FS)
        np.testing.assert_array_equal(extract_features(rec, spec),
                                      extract_features(rec, spec))

    def test_channel_out_of_range(self):
        rec = _recording(np.zeros((2, 2, 128)))
        spec = FeatureSpec([FeatureEntry(5, LINE_LENGTH)])
        with pytest.raises(InvalidInputError):
            extract_features(rec, spec)


class TestCostVector:
    def test_default_normalization(self):
        spec = FeatureSpec([FeatureEntry(0, LINE_LENGTH)])
        np.testing.assert_array_equal(
            feature_cost_vector(spec, DEFAULT_COST_TABLE), [1.0])

    def test_mixed_kinds(self):
        spec = FeatureSpec([
            FeatureEntry(0, LINE_LENGTH),
            FeatureEntry(0, BAND_POWER, (8.0, 12.0)),
            FeatureEntry(0, VARIANCE),
        ])
        table = {LINE_LENGTH: 1.0, BAND_POWER: 25.0, VARIANCE: 3.0}
        np.testing.assert_array_equal(feature_cost_vector(spec, table),
                                      [1.0, 25.0, 3.0])

    def test_empty_spec(self):
        assert feature_cost_vector(FeatureSpec([]), DEFAULT_COST_TABLE).size == 0

    def test_unpriced_kind(self):
        spec = FeatureSpec([FeatureEntry(0, VARIANCE)])
        with pytest.raises(ConfigError):
            feature_cost_vector(spec, {LINE_LENGTH: 1.0})

    def test_nonpositive_cost_rejected(self):
        spec = FeatureSpec([FeatureEntry(0, LINE_LENGTH)])
        with pytest.raises(ConfigError):
            feature_cost_vector(spec, {LINE_LENGTH: 0.0})


class TestFeatureSpec:
    def test_band_required_for_band_power(self):
        with pytest.raises(InvalidInputError):
            FeatureEntry(0, BAND_POWER)

    def test_band_validated_against_fs(self):
        spec = FeatureSpec([FeatureEntry(0, BAND_POWER, (8.0, 200.0))])
        with pytest.raises(InvalidInputError):
            spec.validate_for(1, FS)

    def test_doc_round_trip(self):
        spec = default_feature_spec(2, FS)
        again = FeatureSpec.from_doc(spec.to_doc())
        assert again.entries == spec.entries


def _reference_features(recording, spec):
    """Per-window, per-entry oracle written out from the kernel formulas."""
    n = recording.n_windows
    out = np.empty((n, spec.n_features))
    for j, entry in enumerate(spec.entries):
        for i in range(n):
            x = recording.windows[i, entry.channel]
            if entry.kind == BAND_POWER:
                taps = design_bandpass(*entry.band, recording.fs)
                y = np.convolve(x, taps)[FIR_ORDER:x.size]
                out[i, j] = np.mean(y * y)
            elif entry.kind == LINE_LENGTH:
                out[i, j] = np.sum(np.abs(np.diff(x))) / x.size
            else:
                out[i, j] = np.var(x)
    return out


def _assert_matches_reference(rec, spec):
    got = extract_features(rec, spec)
    assert got.shape == (rec.n_windows, spec.n_features)
    assert np.array_equal(got, _reference_features(rec, spec))


class TestExtractFeaturesOracle:
    @pytest.mark.parametrize("task", ["seizure", "tremor", "finger"])
    def test_every_preset_matches_the_per_window_formulas(self, task):
        rec = synth_recording(task, 100, seed=7)
        _assert_matches_reference(rec, default_feature_spec(rec.n_channels, rec.fs))

    @pytest.mark.parametrize("n", [0, 1, 31, 32, 33])
    def test_window_counts_around_the_block_size(self, n):
        rec = synth_recording("seizure", 100, seed=3)
        rec = _recording(rec.windows[:n], fs=rec.fs)
        _assert_matches_reference(rec, default_feature_spec(rec.n_channels, rec.fs))

    def test_one_band_on_a_channel_subset_interleaved_and_duplicated(self):
        rec = _recording(np.random.default_rng(5).standard_normal((70, 4, 200)))
        alpha, gamma = (8.0, 12.0), (30.0, 60.0)
        spec = FeatureSpec([
            FeatureEntry(2, BAND_POWER, alpha),
            FeatureEntry(0, LINE_LENGTH),
            FeatureEntry(3, BAND_POWER, alpha),
            FeatureEntry(1, VARIANCE),
            FeatureEntry(2, BAND_POWER, alpha),
            FeatureEntry(1, BAND_POWER, gamma),
            FeatureEntry(3, LINE_LENGTH),
        ])
        got = extract_features(rec, spec)
        np.testing.assert_array_equal(got[:, 0], got[:, 4])
        _assert_matches_reference(rec, spec)

    def test_strided_windows_view(self):
        base = np.random.default_rng(6).standard_normal((80, 5, 400))
        rec = _recording(base[::2, 1::2, ::3])
        assert not rec.windows.flags.c_contiguous
        _assert_matches_reference(rec, default_feature_spec(rec.n_channels, rec.fs))

    def test_shortest_window_band_power_accepts(self):
        rec = _recording(np.random.default_rng(8).standard_normal((40, 2, FIR_ORDER + 1)))
        _assert_matches_reference(rec, default_feature_spec(rec.n_channels, rec.fs))

    def test_window_one_sample_too_short_raises_the_kernel_message(self):
        short = np.zeros(FIR_ORDER)
        with pytest.raises(InvalidInputError) as kernel:
            band_power(short, FS, 8.0, 12.0)
        rec = _recording(np.zeros((3, 2, FIR_ORDER)))
        with pytest.raises(InvalidInputError) as batched:
            extract_features(rec, default_feature_spec(2, FS))
        assert str(batched.value) == str(kernel.value)
        assert str(kernel.value) == "band_power needs at least 65 samples, got 64"


class TestDesignBandpassCache:
    def test_taps_are_read_only(self):
        taps = design_bandpass(8.0, 12.0, FS)
        assert not taps.flags.writeable
        with pytest.raises(ValueError):
            taps[0] = 1.0

    def test_repeat_call_returns_the_same_array(self):
        assert design_bandpass(4.0, 8.0, FS) is design_bandpass(4.0, 8.0, FS)

    def test_bad_band_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(InvalidInputError):
                design_bandpass(100.0, 140.0, FS)


def _kernel_inputs(lengths, seed):
    """Windows of the given lengths at offsets up to +-1e6 and scales from
    1e-6 to 1e6, each as a float array, a strided view, a negative-stride
    view and an int list."""
    rng = np.random.default_rng(seed)
    for L in lengths:
        scale = 10.0 ** rng.uniform(-6, 6)
        offset = rng.choice([0.0, rng.uniform(-1e6, 1e6), 1e6, -1e6])
        base = rng.standard_normal(3 * L) * scale + offset
        yield base[:L]
        yield base[::3]
        yield base[L - 1::-1]
        yield rng.integers(-1000, 1000, size=L).tolist()


class TestKernelsBitIdenticalToNumpy:
    """Called directly, each kernel equals its NumPy expression with ``==``."""

    LENGTHS = [*range(2, 70), *range(70, 601, 23), 600]

    def test_line_length(self):
        for samples in _kernel_inputs(self.LENGTHS, seed=11):
            x = np.asarray(samples, dtype=np.float64)
            assert line_length(samples) == np.sum(np.abs(np.diff(x))) / x.size

    def test_variance(self):
        for samples in _kernel_inputs(self.LENGTHS, seed=12):
            x = np.asarray(samples, dtype=np.float64)
            assert variance(samples) == np.var(x)

    @pytest.mark.parametrize("band", [(1.0, 4.0), (8.0, 12.0), (60.0, 100.0)])
    def test_band_power(self, band):
        taps = design_bandpass(*band, FS)
        lengths = [L for L in self.LENGTHS if L >= FIR_ORDER + 1]
        for samples in _kernel_inputs(lengths, seed=13):
            x = np.asarray(samples, dtype=np.float64)
            y = np.convolve(x, taps)[FIR_ORDER:x.size]
            assert band_power(samples, FS, *band) == np.mean(y * y)


class TestFeatureSpecGrouping:
    def test_list_and_tuple_build_equal_specs(self):
        entries = default_feature_spec(3, FS).entries
        from_list, from_tuple = FeatureSpec(list(entries)), FeatureSpec(tuple(entries))
        assert isinstance(from_list.entries, tuple)
        assert from_list == from_tuple
        assert from_list.to_doc() == from_tuple.to_doc()
        rec = synth_recording("seizure", 100, seed=2)
        spec_list = FeatureSpec(list(default_feature_spec(rec.n_channels, rec.fs).entries))
        spec_tuple = FeatureSpec(tuple(spec_list.entries))
        assert np.array_equal(extract_features(rec, spec_list),
                              extract_features(rec, spec_tuple))

    def test_entries_cannot_be_reassigned(self):
        spec = default_feature_spec(2, FS)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.entries = ()

    def test_grouping_is_computed_once(self):
        spec = default_feature_spec(2, FS)
        assert spec._groups is spec._groups
        rec = _recording(np.random.default_rng(9).standard_normal((3, 2, 128)))
        groups = spec._groups
        extract_features(rec, spec)
        assert spec._groups is groups


class TestOneWindowExtraction:
    """B=1, as in the deployment loop: each window featurised on its own."""

    @pytest.mark.parametrize("task", ["seizure", "tremor", "finger"])
    def test_every_preset(self, task):
        rec = synth_recording(task, 100, seed=8)
        spec = default_feature_spec(rec.n_channels, rec.fs)
        for i in range(0, rec.n_windows, 9):
            _assert_matches_reference(_recording(rec.windows[i:i + 1], fs=rec.fs), spec)

    def test_bands_on_channel_subsets_interleaved_and_duplicated(self):
        rec = _recording(np.random.default_rng(15).standard_normal((6, 5, 150)))
        spec = FeatureSpec([
            FeatureEntry(3, BAND_POWER, (8.0, 12.0)),
            FeatureEntry(0, VARIANCE),
            FeatureEntry(1, BAND_POWER, (30.0, 60.0)),
            FeatureEntry(3, BAND_POWER, (30.0, 60.0)),
            FeatureEntry(1, BAND_POWER, (8.0, 12.0)),
            FeatureEntry(3, BAND_POWER, (8.0, 12.0)),
            FeatureEntry(4, LINE_LENGTH),
            FeatureEntry(0, BAND_POWER, (1.0, 4.0)),
            FeatureEntry(1, BAND_POWER, (30.0, 60.0)),
        ])
        for i in range(rec.n_windows):
            one = _recording(rec.windows[i:i + 1])
            _assert_matches_reference(one, spec)
            row = extract_features(one, spec)[0]
            assert row[0] == row[5] and row[2] == row[8]
        _assert_matches_reference(rec, spec)

    def test_spec_without_band_entries(self):
        rec = _recording(np.random.default_rng(16).standard_normal((4, 3, 40)))
        spec = FeatureSpec([FeatureEntry(2, VARIANCE), FeatureEntry(0, LINE_LENGTH)])
        for i in range(rec.n_windows):
            _assert_matches_reference(_recording(rec.windows[i:i + 1]), spec)


class TestValidateFor:
    def test_first_out_of_range_channel_is_named(self):
        spec = FeatureSpec([FeatureEntry(0, LINE_LENGTH),
                            FeatureEntry(1, BAND_POWER, (8.0, 12.0)),
                            FeatureEntry(5, VARIANCE), FeatureEntry(7, LINE_LENGTH)])
        spec.validate_for(8, FS)
        with pytest.raises(InvalidInputError) as err:
            spec.validate_for(4, FS)
        assert str(err.value) == "feature entry addresses channel 5, recording has 4"

    def test_first_band_at_or_above_nyquist_is_named(self):
        spec = FeatureSpec([FeatureEntry(0, BAND_POWER, (1.0, 4.0)),
                            FeatureEntry(0, BAND_POWER, (60.0, 100.0)),
                            FeatureEntry(3, VARIANCE),
                            FeatureEntry(0, BAND_POWER, (100.0, 120.0))])
        with pytest.raises(InvalidInputError) as err:
            spec.validate_for(2, 200.0)
        assert str(err.value) == ("band (60.0, 100.0) must satisfy "
                                  "0 < lo < hi < fs/2 = 100.0")
        at_nyquist = FeatureSpec(spec.entries[:3])
        with pytest.raises(InvalidInputError) as err:
            at_nyquist.validate_for(4, 200.0)
        assert "band (60.0, 100.0)" in str(err.value)

    def test_bands_out_of_order_fail_at_any_fs(self):
        spec = FeatureSpec([FeatureEntry(0, BAND_POWER, (12.0, 8.0))])
        for fs in (FS, 1e6):
            with pytest.raises(InvalidInputError, match=r"band \(12.0, 8.0\)"):
                spec.validate_for(1, fs)

    def test_a_spec_that_passed_still_fails_at_a_lower_fs_and_fewer_channels(self):
        spec = default_feature_spec(4, FS)
        spec.validate_for(4, FS)
        with pytest.raises(InvalidInputError, match=r"band \(60.0, 100.0\)"):
            spec.validate_for(4, 150.0)
        with pytest.raises(InvalidInputError, match="channel 3, recording has 3"):
            spec.validate_for(3, FS)
        spec.validate_for(4, FS)
        with pytest.raises(InvalidInputError):
            extract_features(_recording(np.zeros((2, 4, 128)), fs=150.0), spec)

    def test_a_spec_that_failed_passes_at_a_higher_fs(self):
        spec = FeatureSpec([FeatureEntry(1, BAND_POWER, (60.0, 100.0))])
        with pytest.raises(InvalidInputError):
            spec.validate_for(2, 150.0)
        spec.validate_for(2, FS)
        spec.validate_for(2, np.float64(FS))

    @pytest.mark.parametrize("fs", [np.nan, -FS])
    def test_non_positive_or_nan_fs_fails_with_bands(self, fs):
        spec = default_feature_spec(1, FS)
        with pytest.raises(InvalidInputError, match="band"):
            spec.validate_for(1, fs)
