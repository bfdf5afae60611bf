"""The serial reference interpreter fallback."""

import math

import pytest

from repro.lang.errors import RuntimeDslError
from repro.resilience.reference import serial_reference_run
from repro.runtime.engine import Engine


class TestSerialReference:
    def test_matches_engine_value(self, edit_func, edit_bindings):
        engine_value = Engine().run(
            edit_func, dict(edit_bindings)
        ).value
        assert serial_reference_run(
            edit_func, edit_bindings
        ) == engine_value == 3

    def test_explicit_coordinates(self, edit_func, edit_bindings):
        # negative coordinates wrap within the extents, as in the engine
        for at in ({"i": 3, "j": 2}, {"i": -1}, {"i": -3, "j": -2}):
            engine_value = Engine().run(
                edit_func, dict(edit_bindings), at=at
            ).value
            assert serial_reference_run(
                edit_func, edit_bindings, at=at
            ) == engine_value

    def test_bad_request_raises_like_engine(self, edit_func, edit_bindings):
        for request, error in (
            ({"at": {"i": -8}}, IndexError),
            ({"at": {"j": 8}}, IndexError),
            ({"reduce": "sum"}, RuntimeDslError),
        ):
            with pytest.raises(error):
                Engine().run(edit_func, dict(edit_bindings), **request)
            with pytest.raises(error):
                serial_reference_run(edit_func, edit_bindings, **request)

    def test_reduce_matches_engine(self, edit_func, edit_bindings):
        engine_value = Engine().run(
            edit_func, dict(edit_bindings), reduce="max"
        ).value
        assert serial_reference_run(
            edit_func, edit_bindings, reduce="max"
        ) == engine_value

    def test_float_kernel_close(self, forward_func, forward_bindings):
        engine_value = Engine().run(
            forward_func, dict(forward_bindings), reduce="max"
        ).value
        reference = serial_reference_run(
            forward_func, forward_bindings, reduce="max"
        )
        assert math.isclose(
            reference, engine_value, rel_tol=1e-9, abs_tol=1e-300
        )
