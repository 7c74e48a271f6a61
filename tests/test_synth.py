import pytest
from hypothesis import event, given, settings, strategies as st

from denguewatch.calibrate import best_lag, rainfall_cutoffs
from denguewatch.config import default_config
from denguewatch.errors import ConfigError
from denguewatch.panel import MonthIndex, Variable
from denguewatch.pipeline import calibrate_panel
from denguewatch.risk import Lags
from denguewatch.synth import (
    HUMID_RANGE,
    RAIN_RANGE,
    TEMP_RANGE,
    NEIGHBOR_REGION,
    TARGET_REGION,
    SplitMix64,
    SynthConfig,
    default_outbreak_offsets,
    generate,
)


class TestSplitMix64:
    def test_known_stream_is_stable(self):
        # frozen first outputs for seed 0; guards against accidental reseeding
        rng = SplitMix64(0)
        first = [rng.next_u64() for _ in range(3)]
        assert first == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_uniform_in_unit_interval(self):
        rng = SplitMix64(99)
        xs = [rng.uniform() for _ in range(2000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert 0.4 < sum(xs) / len(xs) < 0.6

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(123), SplitMix64(123)
        assert [a.normal() for _ in range(10)] == [b.normal() for _ in range(10)]


class TestConfigValidation:
    def test_too_short(self):
        with pytest.raises(ConfigError):
            SynthConfig(months=12)

    def test_lag_beyond_search_window(self):
        with pytest.raises(ConfigError):
            SynthConfig(planted_lags=Lags(7, 0, 0, 0))

    def test_outbreak_before_max_lag(self):
        cfg = SynthConfig(
            planted_lags=Lags(6, 6, 6, 6),
            outbreak_months=(MonthIndex(2012, 4),),
        )
        with pytest.raises(ConfigError, match="before the max planted lag"):
            cfg.outbreak_offsets()

    def test_outbreaks_too_close_together(self):
        cfg = SynthConfig(
            outbreak_months=(MonthIndex(2013, 1), MonthIndex(2013, 4))
        )
        with pytest.raises(ConfigError):
            cfg.outbreak_offsets()

    def test_default_offsets_are_spaced(self):
        offsets = default_outbreak_offsets(96)
        assert len(offsets) == 5
        assert all(b - a >= 7 for a, b in zip(offsets, offsets[1:]))


class TestGenerate:
    def test_deterministic_for_fixed_seed(self):
        p1, c1 = generate(SynthConfig(noise_scale=0.1))
        p2, c2 = generate(SynthConfig(noise_scale=0.1))
        assert c1 == c2
        assert p1.series == p2.series

    def test_different_seeds_differ(self):
        p1, _ = generate(SynthConfig(noise_scale=0.1, seed=1))
        p2, _ = generate(SynthConfig(noise_scale=0.1, seed=2))
        assert p1.series != p2.series

    def test_values_stay_inside_declared_ranges(self):
        panel, _ = generate(SynthConfig(noise_scale=0.5, seed=7))
        checks = [
            (Variable.RAINFALL, RAIN_RANGE),
            (Variable.TEMPERATURE, TEMP_RANGE),
            (Variable.HUMIDITY, HUMID_RANGE),
        ]
        for variable, (lo, hi) in checks:
            values = panel.get(TARGET_REGION, variable).values
            assert all(lo <= v <= hi for v in values)

    def test_incidence_peaks_exactly_at_outbreaks(self):
        panel, calendar = generate(SynthConfig())
        inc = panel.get(TARGET_REGION, Variable.INCIDENCE)
        peak = max(inc.values)
        peak_months = {
            inc.start + i for i, v in enumerate(inc.values) if v == peak
        }
        assert peak_months == set(calendar.months)

    def test_neighbor_panel_present(self):
        panel, _ = generate(SynthConfig())
        assert panel.get(NEIGHBOR_REGION, Variable.INCIDENCE) is not None
        m = panel.mobility
        row = m.weights[m.regions.index(TARGET_REGION)]
        assert row[m.regions.index(NEIGHBOR_REGION)] == 1.0

    def test_noiseless_lag_recovery(self):
        lags = Lags(2, 3, 2, 1)
        panel, _ = generate(SynthConfig(planted_lags=lags))
        inc = panel.get(TARGET_REGION, Variable.INCIDENCE).values

        def lag_of(region, variable):
            return best_lag(panel.get(region, variable).values, inc).lag_months

        found = {
            "rain": lag_of(TARGET_REGION, Variable.RAINFALL),
            "temp": lag_of(TARGET_REGION, Variable.TEMPERATURE),
            "humid": lag_of(TARGET_REGION, Variable.HUMIDITY),
            "mobility": lag_of(NEIGHBOR_REGION, Variable.INCIDENCE),
        }
        assert found == {"rain": 2, "temp": 3, "humid": 2, "mobility": 1}

    def test_rain_band_interior_to_recovered_cutoffs(self):
        panel, _ = generate(SynthConfig())
        result = rainfall_cutoffs(
            panel.get(TARGET_REGION, Variable.RAINFALL).values,
            panel.get(TARGET_REGION, Variable.INCIDENCE).values,
            lag=2,
        )
        # the pulse plants all outbreak-lagged rain at the band center
        assert result.r_min <= 250.0 <= result.r_max


RAIN_EXCURSIONS = (420.0, 30.0, 520.0, 90.0)  # synth.generate's dry/wet months
MAX_SEARCHED_LAG = 6  # the default calibration.max_lag


def calibrated_lags(config):
    panel, _ = generate(config)
    return calibrate_panel(panel, default_config()).lags


def excused_rain_lags(config) -> set:
    """The rain lags other than the planted one that an excursion can make
    win, for the two causes in the FOUND entry on ``synth.generate`` in
    CHANGES.md. An excursion at least 4 months from every rain-pulse centre
    (1) pairs with an outbreak's incidence peak at lag k, or (2) lies in the
    last months, where the planted lag pairs it and a longer lag k drops it."""
    panel, _ = generate(config)
    rain = panel.get(TARGET_REGION, Variable.RAINFALL).values
    n, lag = len(rain), config.planted_lags.rain
    offsets = config.outbreak_offsets()
    lags = set()
    for i, v in enumerate(rain):
        if v not in RAIN_EXCURSIONS or any(abs(i + lag - o) <= 3 for o in offsets):
            continue
        for k in range(MAX_SEARCHED_LAG + 1):
            if any(abs(i + k - o) < 3 for o in offsets) or i + lag < n <= i + k:
                lags.add(k)
    return lags - {lag}


def outbreaks(*months):
    return tuple(MonthIndex(y, m) for y, m in months)


@st.composite
def noiseless_configs(draw):
    lags = Lags(*draw(st.lists(st.integers(0, MAX_SEARCHED_LAG), min_size=4, max_size=4)))
    months = draw(st.integers(24, 144))
    first = max(lags.rain, lags.temp, lags.humid, lags.mobility) + 2
    offsets = [draw(st.integers(first, first + 24))]
    for gap in draw(st.lists(st.integers(7, 30), max_size=7)):
        if offsets[-1] + gap > months - 3:
            break
        offsets.append(offsets[-1] + gap)
    if offsets[0] > months - 3:
        offsets = [months - 3]
    start = MonthIndex(2012, 1)
    return SynthConfig(
        months=months,
        planted_lags=lags,
        outbreak_months=tuple(start + o for o in offsets),
    )


# One config per cause in the FOUND entry: an excursion in the last months
# (2019-11) and one that pairs with the outbreak peak at lag 4 (2013-11).
EXCUSED = [
    SynthConfig(planted_lags=Lags(1, 0, 0, 0), outbreak_months=outbreaks((2012, 10), (2014, 5))),
    SynthConfig(months=38, planted_lags=Lags(0, 0, 0, 0), outbreak_months=outbreaks((2014, 3))),
]


class TestPlantedLagsRecovered:
    def test_excursion_next_to_rain_pulse(self):
        # An excursion at distance 3 from a rain pulse centre used to line up
        # with rising incidence at lag + 1, so rain lag 3 was calibrated.
        config = SynthConfig(
            planted_lags=Lags(2, 4, 2, 2),
            outbreak_months=outbreaks((2012, 10), (2014, 4), (2015, 10), (2017, 5), (2019, 2)),
        )
        assert calibrated_lags(config) == Lags(2, 4, 2, 2)

    @settings(max_examples=100, deadline=None)
    @given(noiseless_configs())
    def test_noiseless_configs(self, config):
        found = calibrated_lags(config)
        planted = config.planted_lags
        assert (found.temp, found.humid, found.mobility) == (
            planted.temp, planted.humid, planted.mobility
        )
        if found.rain != planted.rain:
            event("rain lag excused")
            assert found.rain in excused_rain_lags(config)

    @pytest.mark.parametrize("config", EXCUSED)
    def test_excused_lags_are_recognised(self, config):
        assert calibrated_lags(config).rain in excused_rain_lags(config)

    @pytest.mark.xfail(strict=True, reason="FOUND in CHANGES.md: synth rain excursions")
    @pytest.mark.parametrize("config", EXCUSED)
    def test_excused_excursions(self, config):
        assert calibrated_lags(config) == config.planted_lags
