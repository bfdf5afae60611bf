"""Tests for the profile-HMM case study (Section 6.3)."""

import pytest

from repro.apps.baselines.hmm_tools import forward_reference
from repro.apps.profile_hmm import (
    ProfileSearch,
    build_profile_hmm,
    random_profile,
    tk_model,
)
from repro.runtime.sequences import random_protein
from repro.runtime.values import PROTEIN, Sequence
from repro.schedule.schedule import Schedule


class TestProfileConstruction:
    def test_state_count(self):
        profile = build_profile_hmm(
            [{c: 0.05 for c in PROTEIN.chars}] * 4
        )
        # begin + end + (M, I) per position.
        assert profile.n_states == 2 + 2 * 4

    def test_transition_mass_conserved(self):
        profile = random_profile(6, seed=1)
        for state in profile.states:
            if state.is_end:
                continue
            total = sum(
                t.prob for t in profile.transitions_from(state)
            )
            assert total == pytest.approx(1.0)

    def test_tk_model_positions(self):
        """Figure 14 uses 'the TK model of 10 positions'."""
        assert tk_model().n_states == 2 + 2 * 10

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_profile_hmm([])

    def test_deterministic_by_seed(self):
        a, b = random_profile(5, seed=9), random_profile(5, seed=9)
        assert a.to_dsl() == b.to_dsl()


class TestSearch:
    @pytest.fixture(scope="class")
    def search(self):
        return ProfileSearch(tk_model())

    def test_matches_reference(self, search):
        seq = random_protein(20, seed=1)
        assert search.likelihood(seq) == pytest.approx(
            forward_reference(search.profile, seq), rel=1e-9
        )

    def test_schedule_is_sequence_position(self, search):
        seq = random_protein(15, seed=2)
        run = search.engine.run(
            search.func, {"h": search.profile, "x": seq}
        )
        assert run.schedule == Schedule.of(s=0, i=1)

    def test_family_member_ranks_above_noise(self, search):
        """A sequence emitted by the profile should outrank random
        sequences of the same length."""
        import random as _random

        rng = _random.Random(3)
        member_chars = []
        for k in range(1, 11):
            emissions = dict(search.profile.state(f"M{k}").emissions)
            member_chars.append(
                rng.choices(
                    list(emissions), weights=list(emissions.values())
                )[0]
            )
        member = Sequence("".join(member_chars), PROTEIN, name="member")
        db = [random_protein(10, seed=k, name=f"noise{k}")
              for k in range(6)]
        ranked = search.rank(db + [member], top=1)
        assert ranked[0].name == "member"

    def test_search_batch_matches_singles(self, search):
        db = [random_protein(12, seed=k) for k in range(4)]
        batch = search.search(db)
        for seq, got in zip(db, batch.likelihoods):
            assert got == pytest.approx(
                search.likelihood(seq), rel=1e-9
            )


class TestOrdering:
    def test_tool_ordering_of_figure_14(self):
        """Fig. 14's qualitative ordering at scale: HMMoC slowest;
        ours ~ GPU-HMMER; HMMER3 fastest."""
        from repro.analysis.domain import Domain
        from repro.apps.baselines.hmm_tools import (
            GpuHmmerBaseline,
            Hmmer3Baseline,
            HmmocBaseline,
        )
        from repro.apps.hmm_algorithms import forward_function
        from repro.gpu.spec import GTX480
        from repro.gpu.timing import kernel_cost
        from repro.ir.kernel import build_kernel

        hmm = tk_model()
        kernel = build_kernel(
            forward_function(), Schedule.of(s=0, i=1), "logspace"
        )
        lengths = [400] * 20000
        hmmoc = HmmocBaseline(kernel).seconds(hmm, lengths)
        gpu_hmmer = GpuHmmerBaseline(kernel).seconds(hmm, lengths)
        hmmer3 = Hmmer3Baseline(kernel).seconds(hmm, lengths)
        per_problem = kernel_cost(
            kernel,
            Domain.of(s=hmm.n_states, i=401),
            GTX480,
            mean_degree=hmm.mean_in_degree(),
        ).seconds
        ours = per_problem * len(lengths) / GTX480.sm_count

        assert hmmoc > 5 * ours                   # big GPU win
        assert 0.2 < ours / gpu_hmmer < 5.0       # on par
        assert hmmer3 < ours                      # HMMER3 wins
        assert hmmer3 < gpu_hmmer
        # Bit for bit as recorded before the HMM baselines shared
        # ``gpu.timing``'s CPU per-cell formula.
        assert hmmoc == float.fromhex("0x1.6f0495d92dba1p+1")
