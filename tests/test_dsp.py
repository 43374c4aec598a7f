import numpy as np
import pytest
import scipy.interpolate
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from audiosr import dsp, metrics
from audiosr.dsp import Signal


def sine(freq, n, rate, amp=1.0, phase=0.0):
    t = np.arange(n) / rate
    return Signal(amp * np.sin(2 * np.pi * freq * t + phase), rate)


def steady_amplitude(samples, freq, rate, skip):
    """Least-squares amplitude of a known-frequency tone past the transient."""
    x = samples[skip:]
    t = (np.arange(len(samples)) / rate)[skip:]
    basis = np.stack([np.sin(2 * np.pi * freq * t), np.cos(2 * np.pi * freq * t)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, x, rcond=None)
    return float(np.hypot(*coef))


def as_sos(sections):
    """Our (b0, b1, b2, a1, a2) sections as scipy's (b0, b1, b2, 1, a1, a2) rows."""
    return np.array([[b0, b1, b2, 1.0, a1, a2] for b0, b1, b2, a1, a2 in sections])


def response(sections, freq_ratio):
    """Complex response by scipy's ``sosfreqz`` at frequencies given as a ratio of Nyquist."""
    return scipy.signal.sosfreqz(as_sos(sections), worN=np.pi * np.asarray(freq_ratio))[1]


class TestButterworthDesign:
    def test_section_count(self):
        assert len(dsp.design_butterworth_lowpass(8, 0.5)) == 4

    def test_dc_gain_unity(self):
        c = dsp.design_butterworth_lowpass(8, 0.5)
        gain_db = 20 * np.log10(abs(response(c, [0.0])[0]))
        assert abs(gain_db) < 1e-6

    def test_half_power_at_cutoff(self):
        for ratio in (0.25, 0.5, 0.75):
            c = dsp.design_butterworth_lowpass(8, ratio)
            gain_db = 20 * np.log10(abs(response(c, [ratio])[0]))
            assert gain_db == pytest.approx(-3.0103, abs=0.05)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            dsp.design_butterworth_lowpass(7, 0.5)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.5])
    def test_cutoff_out_of_range_rejected(self, ratio):
        with pytest.raises(ValueError):
            dsp.design_butterworth_lowpass(8, ratio)

    def test_poles_inside_unit_circle(self):
        for order in (2, 4, 6, 8):
            for ratio in np.linspace(0.05, 0.95, 10):
                c = dsp.design_butterworth_lowpass(order, float(ratio))
                for *_, a1, a2 in c:
                    assert np.all(np.abs(np.roots([1.0, a1, a2])) < 1.0)

    def test_magnitude_monotone(self):
        grid = np.linspace(1e-4, 0.9999, 512)
        for order in (2, 4, 8):
            for ratio in (0.1, 0.25, 0.5, 0.8):
                mags = np.abs(response(dsp.design_butterworth_lowpass(order, ratio), grid))
                assert np.all(np.diff(mags) <= 1e-12)

    def test_matches_scipy_butter(self):
        # independent oracle for the whole design path
        for order in (2, 4, 8):
            for ratio in (0.1, 0.5, 0.9):
                ours = dsp.design_butterworth_lowpass(order, ratio)
                sos = scipy.signal.butter(order, ratio, output="sos")
                w, h_ref = scipy.signal.sosfreqz(sos, worN=257)
                h_ours = response(ours, w / np.pi)
                assert np.allclose(np.abs(h_ours), np.abs(h_ref), atol=1e-9)


class TestApplyFilter:
    """The sections run over a signal by ``dsp._filter``, the recursion behind ``decimate``."""

    def test_zero_in_zero_out(self):
        c = dsp.design_butterworth_lowpass(8, 0.5)
        out = dsp._filter(c, np.zeros(100))
        assert np.all(out == 0)
        assert out.shape == (100,)

    def test_passband_sine_survives(self):
        rate, cutoff_ratio = 12000, 0.5
        freq = 0.1 * cutoff_ratio * rate / 2
        c = dsp.design_butterworth_lowpass(8, cutoff_ratio)
        out = dsp._filter(c, sine(freq, 8192, rate).samples)
        skip = int(8 / cutoff_ratio)
        amp = steady_amplitude(out, freq, rate, skip)
        assert amp >= 0.999
        # and the measured amplitude matches |H| evaluated from the coefficients
        href = abs(response(c, [freq / (rate / 2)])[0])
        assert amp == pytest.approx(href, rel=1e-3)

    def test_stopband_sine_attenuated(self):
        rate, cutoff_ratio = 12000, 0.25
        freq = 2 * cutoff_ratio * rate / 2
        c = dsp.design_butterworth_lowpass(8, cutoff_ratio)
        out = dsp._filter(c, sine(freq, 8192, rate).samples)
        amp = steady_amplitude(out, freq, rate, 2048)
        assert amp <= 0.01
        href = abs(response(c, [freq / (rate / 2)])[0])
        assert amp == pytest.approx(href, rel=5e-2, abs=1e-6)


def scipy_sosfilt(sections, x):
    """The sections run by scipy's direct-form-II-transposed ``sosfilt``."""
    return scipy.signal.sosfilt(as_sos(sections), x, axis=-1)


class TestFilterNumerics:
    """The banded-solve recursion against scipy's, and its batch contract."""

    @pytest.mark.parametrize("factor", [2, 3, 4])
    @pytest.mark.parametrize("shape", [(8192,), (32, 512), (3, 5)])
    def test_decimate_matches_sosfilt(self, factor, shape):
        x = np.random.default_rng(factor).uniform(-1.0, 1.0, shape)
        ref = scipy_sosfilt(dsp.design_butterworth_lowpass(8, 1.0 / factor), x)
        ref = ref[..., : shape[-1] // factor * factor : factor]
        out = dsp.decimate(x, factor)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-13

    @pytest.mark.parametrize("order, ratio", [(2, 0.1), (4, 0.5), (8, 0.9)])
    def test_apply_filter_matches_sosfilt(self, order, ratio):
        c = dsp.design_butterworth_lowpass(order, ratio)
        x = np.random.default_rng(order).uniform(-1.0, 1.0, 4096)
        out = dsp._filter(c, x)
        assert np.max(np.abs(out - scipy_sosfilt(c, x))) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 7, 512])
    def test_zero_batch_gives_exact_zeros(self, n):
        out = dsp.decimate(np.zeros((4, n)), 2)
        assert out.shape == (4, n // 2)
        assert np.all(out == 0.0) and not np.any(np.signbit(out))

    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_batch_equals_the_stack_of_its_rows(self, factor):
        x = np.random.default_rng(7).normal(size=(5, 301))
        rows = np.stack([dsp.decimate(row, factor) for row in x])
        assert dsp.decimate(x, factor).tobytes() == rows.tobytes()

    def test_input_is_left_alone(self):
        x = np.random.default_rng(8).normal(size=(3, 64))
        x.flags.writeable = False
        before = x.copy()
        dsp.decimate(x, 2)
        assert np.array_equal(x, before)


class TestDownsample:
    def test_length_and_rate_contract(self):
        out = dsp.downsample(Signal(np.random.default_rng(0).normal(size=8192), 12000), 2)
        assert len(out) == 4096
        assert out.sample_rate == 6000

    def test_floor_length(self):
        out = dsp.downsample(Signal(np.zeros(10), 9), 3)
        assert len(out) == 3

    def test_factor_below_two_rejected(self):
        with pytest.raises(ValueError):
            dsp.downsample(Signal(np.zeros(100), 12000), 1)

    def test_indivisible_rate_rejected(self):
        with pytest.raises(ValueError):
            dsp.downsample(Signal(np.zeros(100), 12001), 2)

    def test_rate_is_checked_before_filtering(self, monkeypatch):
        def no_filter(*args):
            raise AssertionError("decimate ran before the rate check")

        monkeypatch.setattr(dsp, "decimate", no_filter)
        with pytest.raises(ValueError, match="not divisible by factor 2"):
            dsp.downsample(Signal(np.zeros(100), 12001), 2)

    def test_passband_survives(self):
        rate, factor = 12000, 2
        new_nyquist = rate / factor / 2
        freq = 0.4 * new_nyquist
        out = dsp.downsample(sine(freq, 16384, rate), factor)
        amp = steady_amplitude(out.samples, freq, out.sample_rate, 512)
        assert amp >= 0.98

    def test_aliased_band_attenuated(self):
        rate, factor = 12000, 2
        new_nyquist = rate / factor / 2
        freq = 1.5 * new_nyquist
        out = dsp.downsample(sine(freq, 16384, rate), factor)
        # the surviving component aliases to rate/factor - freq
        alias = rate / factor - freq
        amp = steady_amplitude(out.samples, alias, out.sample_rate, 512)
        assert amp <= 0.02

    def test_two_stage_matches_single_stage_spectrally(self):
        rng = np.random.default_rng(5)
        t = np.arange(16384) / 12000
        x = sum(np.sin(2 * np.pi * f * t + rng.uniform(0, 6)) for f in (180.0, 420.0, 703.0))
        s = Signal(x / np.max(np.abs(x)), 12000)
        twice = dsp.downsample(dsp.downsample(s, 2), 2)
        once = dsp.downsample(s, 4)
        n = min(len(twice), len(once))
        val = metrics.lsd(Signal(twice.samples[:n], 3000), Signal(once.samples[:n], 3000))
        assert val <= 0.3


class TestSplineUpsample:
    def test_constant_reproduced(self):
        out = dsp.spline_upsample(Signal(np.full(16, 0.37), 6000), 3)
        assert np.allclose(out.samples, 0.37, atol=1e-12)
        assert out.sample_rate == 18000
        assert len(out) == 48

    def test_linear_ramp_reproduced(self):
        ramp = np.arange(20, dtype=float)
        out = dsp.spline_upsample(Signal(ramp, 6000), 2)
        expected = np.arange(40) / 2.0
        assert np.allclose(out.samples, expected, atol=1e-9)

    def test_on_grid_values_exact(self):
        x = np.random.default_rng(1).normal(size=50)
        out = dsp.spline_upsample(Signal(x, 6000), 2)
        assert np.array_equal(out.samples[::2], x)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dsp.spline_upsample(Signal(np.zeros(3), 6000), 2)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=40), rng.normal(size=40)
        a, b = 0.7, -1.3
        up = lambda v: dsp.spline_upsample(Signal(v, 6000), 4).samples
        assert np.allclose(up(a * x + b * y), a * up(x) + b * up(y), atol=1e-9)

    def test_matches_tridiagonal_oracle(self):
        # natural cubic spline second derivatives from the classic tridiagonal system
        rng = np.random.default_rng(3)
        x = rng.normal(size=12)
        n = len(x)
        A = np.zeros((n, n))
        rhs = np.zeros(n)
        A[0, 0] = A[-1, -1] = 1.0  # natural ends: M_0 = M_{n-1} = 0
        for i in range(1, n - 1):
            A[i, i - 1 : i + 2] = (1.0, 4.0, 1.0)
            rhs[i] = 6.0 * (x[i - 1] - 2 * x[i] + x[i + 1])
        M = np.linalg.solve(A, rhs)

        def oracle(t):
            k = min(int(np.floor(t)), n - 2)
            d = t - k
            return (
                M[k] * (1 - d) ** 3 / 6
                + M[k + 1] * d**3 / 6
                + (x[k] - M[k] / 6) * (1 - d)
                + (x[k + 1] - M[k + 1] / 6) * d
            )

        out = dsp.spline_upsample(Signal(x, 6000), 4)
        for j in range(0, (n - 1) * 4 + 1):
            assert out.samples[j] == pytest.approx(oracle(j / 4), abs=1e-9)


def scipy_spline(x, factor):
    """scipy's natural cubic spline on the dense grid, on-grid samples restored."""
    n = x.shape[-1]
    fit = scipy.interpolate.CubicSpline(np.arange(n), x, axis=-1, bc_type="natural")
    out = fit(np.arange(n * factor, dtype=np.float64) / factor)
    out[..., ::factor] = x
    return out


sample_floats = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


class TestSplineMatchesScipy:
    @settings(max_examples=120, deadline=None)
    @given(
        x=hnp.arrays(np.float64, st.one_of(
            st.tuples(st.integers(4, 600)),
            st.tuples(st.integers(1, 4), st.integers(4, 600)),
        ), elements=sample_floats),
        factor=st.integers(2, 4),
    )
    def test_bit_identical(self, x, factor):
        out = dsp.spline(x, factor)
        ref = scipy_spline(x, factor)
        assert out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [4, 5, 39, 250, 251, 2532, 16003])
    @pytest.mark.parametrize("factor", [2, 3, 4])
    def test_bit_identical_at_fixed_lengths(self, n, factor):
        x = np.random.default_rng(n).normal(size=(2, n))
        assert dsp.spline(x, factor).tobytes() == scipy_spline(x, factor).tobytes()
        assert dsp.spline(x[1], factor).tobytes() == scipy_spline(x[1], factor).tobytes()


HANN = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(2048) / 2048)  # periodic


class TestStftPower:
    """The paper's STFT: 2048-sample periodic-Hann frames every 512 samples,
    power floored at 1e-10."""

    def test_zero_signal_clamped_to_floor(self):
        sp = dsp.stft_power(Signal(np.zeros(4096), 12000))
        assert np.all(sp.grid == 1e-10)

    def test_frame_count(self):
        sp = dsp.stft_power(Signal(np.zeros(4096), 12000))
        assert sp.grid.shape == (5, 1025)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            dsp.stft_power(Signal(np.zeros(2047), 12000))

    def test_bin_centered_sine_peaks_at_its_bin(self):
        rate, b = 12000, 85
        freq = b * rate / 2048
        sp = dsp.stft_power(sine(freq, 8192, rate))
        assert np.all(np.argmax(sp.grid, axis=1) == b)

    def test_matches_direct_dft(self):
        # brute-force DFT of one windowed frame
        rng = np.random.default_rng(4)
        x = rng.normal(size=2600)
        sp = dsp.stft_power(Signal(x, 8000))
        n = 2048
        frame = x[512 : 512 + n] * HANN
        t = np.arange(n)
        for k in range(0, n // 2 + 1, 17):
            ref = abs(np.sum(frame * np.exp(-2j * np.pi * k * t / n))) ** 2
            assert sp.grid[1, k] == pytest.approx(max(ref, 1e-10), rel=1e-9, abs=1e-12)

    def test_pure_function_of_inputs(self):
        x = np.random.default_rng(6).normal(size=4096)
        a = dsp.stft_power(Signal(x, 12000))
        b = dsp.stft_power(Signal(x, 12000))
        assert np.array_equal(a.grid, b.grid)

    @pytest.mark.parametrize("n", [2048, 2049, 2600, 3072, 6144])
    def test_grid_equals_per_frame_rfft(self, n):
        x = np.random.default_rng(n).normal(size=n)
        sp = dsp.stft_power(Signal(x, 8000))
        starts = range(0, n - 2048 + 1, 512)
        ref = [np.maximum(np.abs(np.fft.rfft(x[s : s + 2048] * HANN)) ** 2, 1e-10) for s in starts]
        assert sp.grid.tobytes() == np.array(ref).tobytes()
        assert np.array_equal(sp.frame_times, (np.array(starts) + 2048 / 2) / 8000)
        assert np.array_equal(sp.bin_freqs, np.arange(1025) * 8000 / 2048)


class TestSignalValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.array([0.0, np.nan]), 8000)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(4), 0)

    def test_duration(self):
        assert Signal(np.zeros(6000), 12000).duration == 0.5
