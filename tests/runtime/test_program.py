"""Tests for script execution (the runtime environment)."""

import pytest

from repro.lang.errors import RuntimeDslError, ScheduleError
from repro.runtime.program import ProgramRunner, run_script
from repro.runtime.sequences import random_database, write_fasta
from repro.runtime.values import DNA

PRELUDE = '''
alphabet en = "abcdefghijklmnopqrstuvwxyz"
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
'''


class TestBasicScripts:
    def test_print_function_result(self):
        result = run_script(
            PRELUDE
            + 'let q = "kitten"\nlet r = "sitting"\n'
            + "print d(q, |q|, r, |r|)"
        )
        assert result.last == 3
        assert result.printed == ["3"]

    def test_string_literal_arguments(self):
        result = run_script(
            PRELUDE + 'print d("abc", 3, "abd", 3)'
        )
        assert result.last == 1

    def test_intermediate_coordinates(self):
        result = run_script(PRELUDE + 'print d("abc", 1, "abd", 0)')
        assert result.last == 1

    def test_let_arithmetic(self):
        result = run_script(
            PRELUDE + 'let q = "abc"\nprint d(q, |q| - 1, q, |q|)'
        )
        assert result.last == 1

    def test_user_schedule_applies(self):
        result = run_script(
            PRELUDE
            + "schedule d : i + j\n"
            + 'print d("ab", 2, "ab", 2)'
        )
        assert result.last == 0
        assert result.runs[0].schedule.coefficients == (1, 1)

    def test_wrong_arity_rejected(self):
        with pytest.raises(RuntimeDslError, match="takes 4 arguments"):
            run_script(PRELUDE + 'print d("ab", 2)')

    def test_unknown_script_variable(self):
        with pytest.raises(RuntimeDslError, match="unknown script"):
            run_script(PRELUDE + "print d(q, 1, q, 1)")


class TestHmmScripts:
    SRC = '''
alphabet dna = "acgt"
hmm h [dna] {
  state begin : start
  state m emits { a: 0.4, c: 0.1, g: 0.1, t: 0.4 }
  state fin : end
  trans begin -> m : 1.0
  trans m -> m : 0.8
  trans m -> fin : 0.2
}
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
'''

    def test_forward_with_model(self):
        result = run_script(
            self.SRC + '\nlet x = "at"\nprint forward(h, h.end, x, |x|)'
        )
        # F(m,1) = e_m(a) * 1.0 = 0.4; the silent end state at i=2
        # sums its incoming transitions over F(., 1):
        # F(end,2) = 0.2 * F(m,1) = 0.08 (Figure 11 semantics).
        assert result.last == pytest.approx(0.08)

    def test_seq_star_infers_alphabet(self):
        result = run_script(
            self.SRC + '\nprint forward(h, h.end, "at", 2)'
        )
        assert result.last == pytest.approx(0.08)

    def test_seq_star_uncoverable_string_rejected(self):
        with pytest.raises(RuntimeDslError, match="covers the string"):
            run_script(
                self.SRC + '\nprint forward(h, h.end, "zz", 2)'
            )


class TestLoadAndMap:
    def test_load_and_map(self, tmp_path):
        db = random_database(6, 12, alphabet=DNA, seed=1)
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        script = (
            'alphabet dna = "acgt"\n'
            "int d(seq[dna] s, index[s] i, seq[dna] t, index[t] j) =\n"
            "  if i == 0 then j\n"
            "  else if j == 0 then i\n"
            "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
            "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1\n"
            f'load db = fasta("{path}")\n'
            'let q = "acgtacgt"\n'
            "map scores = d(q, |q|, _, |_|) over db\n"
        )
        result = run_script(script)
        assert "scores" in result.maps
        scores = result.maps["scores"].values
        assert len(scores) == 6
        assert all(isinstance(v, int) for v in scores)

    @pytest.mark.parametrize(
        "schedule, usage",
        [("", (1, 1)), ("schedule d : 2*i + j\n", (2, 1))],
    )
    def test_map_member_is_its_print(self, schedule, usage):
        """A member's request is the ``print`` of the same call: the
        template's explicit coordinate and the declared schedule hold
        for every member. The collection is seeded the way the
        corpus replay seeds it."""
        members = ["sitting", "kitchen", ""]
        runner = ProgramRunner()
        runner.globals["xs"] = members
        result = runner.run_text(
            PRELUDE + schedule + 'let a = "kitten"\n'
            + "".join(f'print d(a, 2, "{x}", {len(x)})\n' for x in members)
            + "map r = d(a, 2, _, |_|) over xs\n"
        )
        assert result.values == [6, 5, 2]
        assert result.maps["r"].values == result.values
        assert result.maps["r"].schedule_usage == {usage: len(members)}

    @pytest.mark.parametrize(
        "statement",
        ['print d(a, |a|, "ab", 2)', "map r = d(a, |a|, _, |_|) over xs"],
    )
    def test_invalid_declared_schedule_refused(self, statement):
        runner = ProgramRunner()
        runner.globals["xs"] = ["ab", "b"]
        with pytest.raises(ScheduleError):
            runner.run_text(
                PRELUDE + "schedule d : i\n"
                + f'let a = "kitten"\n{statement}\n'
            )

    @pytest.mark.parametrize(
        "statement",
        [
            "map r = d(a, |_|, _, |_|) over xs",  # i indexes a, not xs
            "map r = d(_, 2, a, _) over xs",  # a sequence as coordinate
            'print d(a, |_|, "ab", 2)',  # no member to stand for
        ],
    )
    def test_a_hole_that_is_not_the_members_print_refused(
        self, statement
    ):
        runner = ProgramRunner()
        runner.globals["xs"] = ["ab", "b"]
        with pytest.raises(RuntimeDslError, match="hole|only in a map"):
            runner.run_text(PRELUDE + f'let a = "kitten"\n{statement}\n')

    def test_map_without_placeholder_rejected(self, tmp_path):
        db = random_database(2, 8, alphabet=DNA, seed=2)
        path = tmp_path / "db.fa"
        write_fasta(path, db)
        script = (
            'alphabet dna = "acgt"\n'
            "int f(seq[dna] s, index[s] i) = if i == 0 then 0 else f(i-1)\n"
            f'load db = fasta("{path}")\n'
            'let q = "acgt"\n'
            "map out = f(q, |q|) over db\n"
        )
        with pytest.raises(RuntimeDslError, match="placeholder"):
            run_script(script)

    def test_load_unknown_format(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_text("")
        with pytest.raises(RuntimeDslError, match="unknown load format"):
            run_script(
                'alphabet dna = "acgt"\n'
                f'load db = binary("{path}")\n'
            )

    def test_load_no_matching_alphabet(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">a\nzzz\n")
        with pytest.raises(RuntimeDslError, match="no declared alphabet"):
            run_script(
                'alphabet dna = "acgt"\n' + f'load db = fasta("{path}")\n'
            )
