"""The checked-in regression corpus (``tests/corpus/*.dsl``).

Every fuzzer finding ends its life here: a minimal, self-contained
DSL script (declarations plus ``let``/``print`` driver statements)
with a ``// fuzz:`` metadata header, replayed by tier-1 across every
backend on every run. Seeded entries cover the known-tricky shapes —
empty sequences, size-1 domains below the vector crossover, ``S = i``
ring schedules, log-space reductions, empty CSR transition sets —
so the replay net exists even while the fuzzer finds nothing new.

Header format, one ``// fuzz: key = value`` line per key::

    // fuzz: name = ring-schedule-collision
    // fuzz: origin = seeded          (or: campaign seed=N case=K)
    // fuzz: prob-mode = direct
    // fuzz: note = free text

Recognised keys (:data:`RECOGNISED_KEYS`; the loader rejects any
other, naming the entry — a misspelt or retired directive must not
silently replay fewer legs): ``name``, ``origin``, ``prob-mode``
(engine mode for the replay, default ``direct``), ``expect``
(space-separated golden printed values, checked against the scalar
leg), ``note``, and the map-leg pair ``map-call`` / ``map-texts``: a
map template call (``d(a, |a|, _, |_|)``) plus a JSON list of member
texts (JSON, so empty-string members survive). Entries carrying both
replay the lane-batched map path on every backend — scalar loop,
batched-vector and batched-native compared member for member. A
non-default schedule is not a directive: it is a ``schedule`` clause
in the script itself.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..lang.errors import CodegenError, DslError
from .differential import values_agree

__all__ = [
    "CorpusEntry",
    "ReplayReport",
    "corpus_dir",
    "load_corpus",
    "replay_entry",
    "write_entry",
]

#: backends a corpus entry replays on (native auto-skips without a
#: toolchain; vector skips per-kernel on ineligibility).
REPLAY_BACKENDS = ("scalar", "vector", "native")

#: ``// fuzz:`` header keys an entry may carry.
RECOGNISED_KEYS = frozenset(
    ("name", "origin", "prob-mode", "expect", "note", "map-call",
     "map-texts")
)


def corpus_dir() -> str:
    """The default checked-in corpus location."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "corpus")


@dataclass
class CorpusEntry:
    """One corpus script plus its parsed metadata."""

    name: str
    path: str
    script: str
    meta: Dict[str, str] = field(default_factory=dict)

    @property
    def prob_mode(self) -> str:
        """Engine probability mode for the replay."""
        return self.meta.get("prob-mode", "direct")

    @property
    def expected(self) -> Optional[List[str]]:
        """Golden printed values, when the entry pins them."""
        raw = self.meta.get("expect")
        return raw.split() if raw else None

    @property
    def map_call(self) -> Optional[str]:
        """The map template call text, for map-leg entries."""
        return self.meta.get("map-call") or None

    @property
    def map_texts(self) -> Optional[List[str]]:
        """Member texts of the replayed map batch (JSON list)."""
        raw = self.meta.get("map-texts")
        if not raw:
            return None
        texts = json.loads(raw)
        if not isinstance(texts, list):
            raise ValueError(
                f"map-texts must be a JSON list, got {texts!r}"
            )
        return [str(text) for text in texts]


@dataclass
class ReplayReport:
    """The outcome of replaying one entry across backends."""

    entry: CorpusEntry
    values: Dict[str, List[object]] = field(default_factory=dict)
    skipped: Tuple[str, ...] = ()
    ok: bool = True
    detail: str = ""


def _parse_meta(script: str) -> Dict[str, str]:
    meta: Dict[str, str] = {}
    for line in script.splitlines():
        stripped = line.strip()
        if not stripped.startswith("// fuzz:"):
            if stripped and not stripped.startswith("//"):
                break
            continue
        body = stripped[len("// fuzz:"):].strip()
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()
    return meta


def load_corpus(directory: Optional[str] = None) -> List[CorpusEntry]:
    """Read every ``*.dsl`` under ``directory``, sorted by filename."""
    directory = directory or corpus_dir()
    entries = []
    if not os.path.isdir(directory):
        return entries
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".dsl"):
            continue
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as handle:
            script = handle.read()
        meta = _parse_meta(script)
        unknown = sorted(meta.keys() - RECOGNISED_KEYS)
        if unknown:
            key = unknown[0]
            raise ValueError(
                f"corpus entry {meta.get('name', filename[:-4])!r}: "
                f"unknown directive '// fuzz: {key} = {meta[key]}' "
                f"(recognised: {', '.join(sorted(RECOGNISED_KEYS))})"
            )
        entries.append(
            CorpusEntry(
                name=meta.get("name", filename[:-4]),
                path=path,
                script=script,
                meta=meta,
            )
        )
    return entries


def write_entry(
    script: str,
    name: str,
    meta: Dict[str, str],
    directory: Optional[str] = None,
) -> str:
    """Write a corpus entry; returns its path.

    ``name`` becomes the filename (and the ``name`` key unless the
    metadata already carries one). Existing entries of the same name
    are overwritten — re-finding a known bug refreshes its script.
    """
    directory = directory or corpus_dir()
    os.makedirs(directory, exist_ok=True)
    header = {"name": name}
    header.update(meta)
    lines = [
        f"// fuzz: {key} = {value}"
        for key, value in header.items()
        if value
    ]
    path = os.path.join(directory, f"{name}.dsl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n" + script)
    return path


def replay_entry(
    entry: CorpusEntry,
    backends: Tuple[str, ...] = REPLAY_BACKENDS,
) -> ReplayReport:
    """Replay one entry across ``backends`` and compare printed
    values pairwise (scalar is the baseline; floats use the shared
    agreement policy). Forced-backend ineligibility (CodegenError) is
    a recorded skip, not a failure — native also skips when no
    toolchain is present."""
    from ..runtime import native as native_rt
    from ..runtime.engine import Engine
    from ..runtime.program import ProgramRunner, run_script

    report = ReplayReport(entry)
    skipped: List[str] = []
    map_texts = entry.map_texts
    script = entry.script
    if map_texts is not None and entry.map_call:
        # The map leg replays through the script-level ``map``
        # statement; the collection is pre-seeded into the runner
        # (bare strings coerce per member), so empty-string members
        # survive where a FASTA round-trip would drop them. Scalar
        # engines sweep per member; vector/native engines take their
        # lane-batched rungs — exactly the fuzzer's map comparison.
        script = (
            script.rstrip("\n")
            + f"\nmap fuzzmap = {entry.map_call} over fuzzdb\n"
        )
    for backend in backends:
        if backend == "native" and not native_rt.available().ok:
            skipped.append("native: no toolchain")
            continue
        engine = Engine(backend=backend, prob_mode=entry.prob_mode)
        try:
            if map_texts is not None and entry.map_call:
                runner = ProgramRunner(engine)
                runner.globals["fuzzdb"] = list(map_texts)
                result = runner.run_text(script)
                values = list(result.values) + list(
                    result.maps["fuzzmap"].values
                )
            else:
                result = run_script(script, engine)
                values = list(result.values)
        except CodegenError as err:
            skipped.append(f"{backend}: {err}")
            continue
        except DslError as err:
            report.ok = False
            report.detail = (
                f"{backend} replay failed: {type(err).__name__}: {err}"
            )
            report.skipped = tuple(skipped)
            return report
        report.values[backend] = values
    report.skipped = tuple(skipped)

    baseline = report.values.get("scalar")
    if baseline is None:
        report.ok = False
        report.detail = "no scalar baseline ran"
        return report
    for backend, values in report.values.items():
        if backend == "scalar":
            continue
        if len(values) != len(baseline):
            report.ok = False
            report.detail = (
                f"{backend} printed {len(values)} values, scalar "
                f"printed {len(baseline)}"
            )
            return report
        for index, (a, b) in enumerate(zip(baseline, values)):
            if not values_agree(a, b):
                report.ok = False
                report.detail = (
                    f"print #{index}: scalar={a!r} {backend}={b!r}"
                )
                return report
    expected = entry.expected
    if expected is not None:
        if len(expected) != len(baseline):
            report.ok = False
            report.detail = (
                f"expected {len(expected)} printed values, got "
                f"{len(baseline)}"
            )
            return report
        for index, (want, got) in enumerate(zip(expected, baseline)):
            got_text = repr(got) if isinstance(got, str) else str(got)
            if isinstance(got, float):
                if not values_agree(float(want), got):
                    report.ok = False
                    report.detail = (
                        f"print #{index}: expected {want}, got {got}"
                    )
                    return report
            elif got_text != want:
                report.ok = False
                report.detail = (
                    f"print #{index}: expected {want!r}, got "
                    f"{got_text!r}"
                )
                return report
    return report
