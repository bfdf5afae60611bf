"""Corpus replay (tier-1) plus the entry format round-trip."""

import pytest

from repro.fuzz.corpus import (
    CorpusEntry,
    load_corpus,
    replay_entry,
    write_entry,
)

ENTRIES = load_corpus()
assert ENTRIES, "tests/corpus must ship seeded entries"


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e.name for e in ENTRIES]
)
def test_corpus_entry_replays_green(entry):
    """Every checked-in reproducer agrees across every available
    backend (forced-backend ineligibility is a recorded skip)."""
    report = replay_entry(entry)
    assert report.ok, report.detail
    assert "scalar" in report.values


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e.name for e in ENTRIES]
)
def test_corpus_entry_lints_clean(entry):
    """Reproducers for fixed bugs must pass the static verifier."""
    from repro.verify.lint import lint_text
    from repro.verify.diagnostics import Severity

    result = lint_text(
        entry.script, entry.path, prob_mode=entry.prob_mode
    )
    assert not result.report.by_severity(Severity.ERROR)


def test_seeded_shapes_are_covered():
    names = {entry.name for entry in ENTRIES}
    assert {
        "empty-sequence",
        "size-one-domain",
        "ring-schedule-collision",
        "logspace-forward",
        "empty-transition-set",
        "range-reduction",
    } <= names


class TestFormat:
    def test_metadata_parsed(self):
        entry = next(
            e for e in ENTRIES if e.name == "logspace-forward"
        )
        assert entry.prob_mode == "logspace"
        assert entry.meta["origin"] == "seeded"

    def test_write_then_load_round_trip(self, tmp_path):
        script = (
            'alphabet al = "ab"\n\n'
            "int f(seq[al] s, index[s] i) =\n"
            "  if i < 1 then 0 else f(i - 1) + 1\n\n"
            'let a = "ab"\n'
            "print f(a, |a|)\n"
        )
        path = write_entry(
            script, "round-trip",
            meta={"origin": "seeded", "note": "smoke"},
            directory=str(tmp_path),
        )
        loaded = load_corpus(str(tmp_path))
        assert len(loaded) == 1
        entry = loaded[0]
        assert entry.path == path
        assert entry.name == "round-trip"
        assert entry.meta["note"] == "smoke"
        assert entry.script.endswith(script)
        report = replay_entry(entry)
        assert report.ok, report.detail
        assert report.values["scalar"] == [2]

    def test_expect_mismatch_fails_replay(self, tmp_path):
        script = (
            'alphabet al = "ab"\n\n'
            "int f(seq[al] s, index[s] i) =\n"
            "  if i < 1 then 0 else f(i - 1) + 1\n\n"
            'let a = "ab"\n'
            "print f(a, |a|)\n"
        )
        write_entry(
            script, "wrong-golden",
            meta={"expect": "99"}, directory=str(tmp_path),
        )
        entry = load_corpus(str(tmp_path))[0]
        report = replay_entry(entry)
        assert not report.ok
        assert "expected" in report.detail

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(str(tmp_path / "nope")) == []


class TestUnknownDirectives:
    def test_schedule_directive_rejected_by_name(self, tmp_path):
        """``// fuzz: schedule = ...`` used to add a replay leg for
        one value and be ignored for every other; now no header key
        outside the recognised set loads, so a stale or misspelt
        directive cannot silently replay fewer legs."""
        script = (
            'alphabet al = "ab"\n\n'
            "int f(seq[al] s, index[s] i) =\n"
            "  if i < 1 then 0 else f(i - 1) + 1\n\n"
            'let a = "ab"\n'
            "print f(a, |a|)\n"
        )
        for value in ("autotune", "min-partition", "fastest"):
            write_entry(
                script, "stale-directive",
                meta={"schedule": value}, directory=str(tmp_path),
            )
            with pytest.raises(ValueError) as err:
                load_corpus(str(tmp_path))
            assert "'stale-directive'" in str(err.value)
            assert f"schedule = {value}" in str(err.value)


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[e.name for e in ENTRIES]
)
def test_corpus_entry_replays_green_across_block_edges(
    entry, monkeypatch
):
    """Corpus tables are a few cells wide — one block under the
    default tile. With 2x3 blocks every backward-only entry runs
    several block diagonals with ragged last blocks; under the
    sanitizer job this is where a block-edge off-by-one would read
    out of bounds."""
    from repro.ir import cbackend

    monkeypatch.setattr(cbackend, "TILE", (2, 3))
    report = replay_entry(entry, backends=("scalar", "native"))
    assert report.ok, report.detail
