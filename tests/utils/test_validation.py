import numpy as np
import pytest

from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability_vector,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive(0.1, "x")

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError, match="x"):
            check_positive(value, "x")


class TestCheckInRange:
    def test_within(self):
        check_in_range(5, "x", low=0, high=10)

    def test_below(self):
        with pytest.raises(ValueError):
            check_in_range(-1, "x", low=0)

    def test_above(self):
        with pytest.raises(ValueError):
            check_in_range(11, "x", high=10)

    def test_unbounded(self):
        check_in_range(1e12, "x")


class TestProbabilityVector:
    def test_valid(self):
        check_probability_vector(np.array([0.25, 0.75]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([-0.1, 1.1]))

    def test_sum_not_one_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.array([0.5, 0.4]))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError):
            check_probability_vector(np.asarray(1.0))


class TestEnvNumberKnobs:
    """Numeric environment knobs must fail loudly, naming the knob."""

    def test_env_float_parses(self):
        from repro.utils.validation import check_env_float

        assert check_env_float("0.25", source="T") == 0.25

    @pytest.mark.parametrize("raw", ["", "  ", "soon", "nan"])
    def test_env_float_rejects_junk(self, raw):
        from repro.errors import ValidationError
        from repro.utils.validation import check_env_float

        with pytest.raises(ValidationError, match="REPRO_SCALE"):
            check_env_float(raw, source="REPRO_SCALE")

    def test_env_float_minimum(self):
        from repro.errors import ValidationError
        from repro.utils.validation import check_env_float

        with pytest.raises(ValidationError, match="T"):
            check_env_float("-0.1", source="T", minimum=0.0)

    def test_validation_error_is_a_value_error(self):
        # Pre-existing callers catch ValueError; the subclass keeps
        # that contract.
        from repro.errors import ReproError, ValidationError

        assert issubclass(ValidationError, ValueError)
        assert issubclass(ValidationError, ReproError)


class TestKnobConsumers:
    """The real knobs route through the validated parsers."""

    @pytest.mark.parametrize("raw", ["", "big", "nan"])
    def test_scale_rejects_junk(self, monkeypatch, raw):
        from repro.errors import ValidationError
        from repro.experiments.setup import default_scale

        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValidationError, match="REPRO_SCALE"):
            default_scale()

    def test_scale_parses_and_defaults(self, monkeypatch):
        from repro.experiments.setup import DEFAULT_SCALE, default_scale

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert default_scale() == 0.5
        monkeypatch.delenv("REPRO_SCALE")
        assert default_scale() == DEFAULT_SCALE
