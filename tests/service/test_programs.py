"""Service-side program registry and argument binding."""

import pytest

from repro.lang.errors import DslError, RuntimeDslError
from repro.runtime.values import Sequence
from repro.service.programs import ProgramRegistry, ServiceProgram

from .conftest import EDIT_PROGRAM, FORWARD_PROGRAM


class TestServiceProgram:
    def test_checks_and_exposes_functions(self):
        program = ServiceProgram(EDIT_PROGRAM)
        assert program.function("d").name == "d"
        assert len(program.sha) == 64

    def test_rejects_imperative_statements(self):
        with pytest.raises(RuntimeDslError, match="declaration-only"):
            ServiceProgram(EDIT_PROGRAM + '\nprint d("ab", 2, "b", 1)\n')

    def test_rejects_bad_programs(self):
        with pytest.raises(DslError):
            ServiceProgram("int f(seq[nope] s, index[s] i) = 0")

    def test_let_constants_available(self):
        program = ServiceProgram(
            EDIT_PROGRAM + "\nlet target = \"sitting\"\n"
        )
        bindings, _, _ = program.bind(
            "d", {"s": "kitten", "t": {"ref": "target"}}
        )
        assert str(bindings["t"].text) == "sitting"

    def test_lets_are_script_lets(self):
        """Service lets go through the script's evaluator: lengths,
        model fields and arithmetic, not only constants."""
        program = ServiceProgram(
            FORWARD_PROGRAM
            + '\nlet x = "acgt"\nlet last = |x| - 1\nlet fin = h.end\n'
        )
        assert program.globals["last"] == 3
        assert program.globals["fin"] == program.globals["h"].end_state.index
        _, at, _ = program.bind(
            "fw", {"x": {"ref": "x"}, "i": {"ref": "last"}}
        )
        assert at == {"i": 3}

    @pytest.mark.parametrize(
        "lets",
        [
            # each line doubles a string: 4 * 2**40 characters
            'let b0 = "acgt"\n' + "".join(
                f"let b{k + 1} = b{k} + b{k}\n" for k in range(40)
            ),
            # each line squares an int: about 2**41 digits
            "let y0 = 99\n" + "".join(
                f"let y{k + 1} = y{k} * y{k}\n" for k in range(40)
            ),
            'let s = "acgt" * 999999999\n',
        ],
    )
    def test_a_let_cannot_outgrow_its_text(self, lets):
        """A submitted ``let`` is arithmetic over numbers, and an int
        stays within 64 bits: registration refuses at once rather
        than building a value no request body could hold."""
        with pytest.raises(RuntimeDslError, match="takes numbers"):
            ProgramRegistry().register(EDIT_PROGRAM + "\n" + lets)


class TestBinding:
    def test_strings_coerce_to_sequences(self):
        program = ServiceProgram(EDIT_PROGRAM)
        bindings, at, initial = program.bind(
            "d", {"s": "kitten", "t": "sitting"}
        )
        assert isinstance(bindings["s"], Sequence)
        assert at == {} and initial == {}

    def test_recursive_args_become_coordinates(self):
        program = ServiceProgram(EDIT_PROGRAM)
        _, at, _ = program.bind(
            "d", {"s": "kitten", "t": "sitting", "i": 3, "j": 4}
        )
        assert at == {"i": 3, "j": 4}

    def test_hmm_param_autobinds_by_name(self):
        program = ServiceProgram(FORWARD_PROGRAM)
        bindings, _, _ = program.bind("fw", {"x": "acgt"})
        assert "h" in bindings  # the declared model, bound implicitly

    def test_unknown_parameter_rejected(self):
        program = ServiceProgram(EDIT_PROGRAM)
        with pytest.raises(RuntimeDslError, match="no parameter"):
            program.bind("d", {"s": "a", "t": "b", "zz": 1})

    def test_missing_calling_parameter_rejected(self):
        program = ServiceProgram(EDIT_PROGRAM)
        with pytest.raises(RuntimeDslError, match="missing value"):
            program.bind("d", {"s": "kitten"})

    def test_bad_ref_rejected(self):
        program = ServiceProgram(EDIT_PROGRAM)
        with pytest.raises(RuntimeDslError, match="no declared global"):
            program.bind(
                "d", {"s": "a", "t": {"ref": "nothing"}}
            )

    def test_uncovered_string_rejected(self):
        program = ServiceProgram(EDIT_PROGRAM)
        with pytest.raises(RuntimeDslError, match="alphabet"):
            program.bind("d", {"s": "kitten", "t": "UPPER!"})


class TestProgramRegistry:
    def test_checks_once_per_distinct_text(self):
        registry = ProgramRegistry()
        first = registry.register(EDIT_PROGRAM)
        second = registry.register(EDIT_PROGRAM)
        assert first is second
        assert len(registry) == 1

    def test_get_by_sha(self):
        registry = ProgramRegistry()
        program = registry.register(EDIT_PROGRAM)
        assert registry.get(program.sha) is program
        with pytest.raises(KeyError):
            registry.get("deadbeef")

    def test_distinct_texts_distinct_programs(self):
        registry = ProgramRegistry()
        a = registry.register(EDIT_PROGRAM)
        b = registry.register(FORWARD_PROGRAM)
        assert a is not b and len(registry) == 2
