"""Structured logging: formats, env knobs, stderr discipline."""

import io
import json
import logging

import pytest

from repro.errors import ValidationError
from repro.telemetry.logs import get_logger, setup_logging


@pytest.fixture(autouse=True)
def _restore_logging(monkeypatch):
    yield
    # Leave the root handler in its default (lazy-stderr) state for
    # whatever test runs next — with the knobs cleared first so a
    # bogus-env test cannot fail its own teardown.
    monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
    monkeypatch.delenv("REPRO_LOG_FORMAT", raising=False)
    setup_logging(force=True)


def _capture(fmt, level=logging.INFO):
    stream = io.StringIO()
    setup_logging(level=level, fmt=fmt, stream=stream, force=True)
    return stream


class TestJsonFormat:
    def test_lines_parse_with_data_fields(self):
        stream = _capture("json")
        get_logger("library").info(
            "chunk done", extra={"data": {"chunk": 3, "cached": 7}}
        )
        doc = json.loads(stream.getvalue())
        assert doc["level"] == "INFO"
        assert doc["logger"] == "repro.library"
        assert doc["message"] == "chunk done"
        assert doc["chunk"] == 3
        assert doc["cached"] == 7
        assert doc["ts"].endswith("+00:00")

    def test_exceptions_are_captured(self):
        stream = _capture("json")
        try:
            raise ValueError("boom")
        except ValueError:
            get_logger().exception("failed")
        doc = json.loads(stream.getvalue())
        assert "ValueError: boom" in doc["exc"]


class TestTextFormat:
    def test_key_value_suffix(self):
        stream = _capture("text")
        get_logger("pipeline").warning(
            "slow", extra={"data": {"seconds": 1.5}}
        )
        line = stream.getvalue().strip()
        assert line == "WARNING repro.pipeline: slow seconds=1.5"


class TestEnvKnobs:
    def test_level_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "warning")
        stream = io.StringIO()
        setup_logging(stream=stream, force=True)
        get_logger().info("hidden")
        get_logger().warning("shown")
        assert "hidden" not in stream.getvalue()
        assert "shown" in stream.getvalue()

    def test_format_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_FORMAT", "json")
        stream = io.StringIO()
        setup_logging(stream=stream, force=True)
        get_logger().info("hello")
        assert json.loads(stream.getvalue())["message"] == "hello"

    @pytest.mark.parametrize(
        "env,value",
        [("REPRO_LOG_LEVEL", "loud"), ("REPRO_LOG_FORMAT", "xml")],
    )
    def test_bogus_values_raise(self, env, value, monkeypatch):
        monkeypatch.setenv(env, value)
        with pytest.raises(ValidationError, match=env):
            setup_logging(force=True)

    def test_case_insensitive(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOG_LEVEL", "DEBUG")
        stream = io.StringIO()
        setup_logging(stream=stream, force=True)
        get_logger().debug("fine")
        assert "fine" in stream.getvalue()


class TestDiscipline:
    def test_setup_is_idempotent(self):
        root = setup_logging(force=True)
        setup_logging()
        setup_logging()
        assert len(root.handlers) == 1

    def test_default_handler_tracks_sys_stderr(self, capsys):
        setup_logging(force=True)
        get_logger().error("to stderr")
        captured = capsys.readouterr()
        assert "to stderr" in captured.err
        assert captured.out == ""

    def test_get_logger_prefixes(self):
        assert get_logger("engine").name == "repro.engine"
        assert get_logger("repro.engine").name == "repro.engine"
        assert get_logger().name == "repro"
