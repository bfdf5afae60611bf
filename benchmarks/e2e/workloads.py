"""Seeded inputs and expected values for every workload.

Runs in the parent, before anything is spawned, and imports nothing
from ``repro``: the program under test receives only the DSL texts and
plain-data inputs built here, and its outputs are compared against the
values ``reference.py`` computed from the same data.

``build(name, seed, window_s)`` returns a JSON-able spec. The same
seed gives the same spec.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List

import reference

PROTEIN = "ARNDCQEGHILKMFPSTWYV"
ENGLISH = "abcdefghijklmnopqrstuvwxyz"
RNA = "acgu"

#: BLOSUM62 in ``PROTEIN`` order (Henikoff & Henikoff 1992). The
#: harness owns its copy: the program gets the matrix as an input and
#: the reference reads the same rows.
BLOSUM62 = [
    [4, -1, -2, -2, 0, -1, -1, 0, -2, -1, -1, -1, -1, -2, -1, 1, 0, -3, -2, 0],
    [-1, 5, 0, -2, -3, 1, 0, -2, 0, -3, -2, 2, -1, -3, -2, -1, -1, -3, -2, -3],
    [-2, 0, 6, 1, -3, 0, 0, 0, 1, -3, -3, 0, -2, -3, -2, 1, 0, -4, -2, -3],
    [-2, -2, 1, 6, -3, 0, 2, -1, -1, -3, -4, -1, -3, -3, -1, 0, -1, -4, -3, -3],
    [0, -3, -3, -3, 9, -3, -4, -3, -3, -1, -1, -3, -1, -2, -3, -1, -1, -2, -2, -1],
    [-1, 1, 0, 0, -3, 5, 2, -2, 0, -3, -2, 1, 0, -3, -1, 0, -1, -2, -1, -2],
    [-1, 0, 0, 2, -4, 2, 5, -2, 0, -3, -3, 1, -2, -3, -1, 0, -1, -3, -2, -2],
    [0, -2, 0, -1, -3, -2, -2, 6, -2, -4, -4, -2, -3, -3, -2, 0, -2, -2, -3, -3],
    [-2, 0, 1, -1, -3, 0, 0, -2, 8, -3, -3, -1, -2, -1, -2, -1, -2, -2, 2, -3],
    [-1, -3, -3, -3, -1, -3, -3, -4, -3, 4, 2, -3, 1, 0, -3, -2, -1, -3, -1, 3],
    [-1, -2, -3, -4, -1, -2, -3, -4, -3, 2, 4, -2, 2, 0, -3, -2, -1, -2, -1, 1],
    [-1, 2, 0, -1, -3, 1, 1, -2, -1, -3, -2, 5, -1, -3, -1, 0, -1, -3, -2, -2],
    [-1, -1, -2, -3, -1, 0, -2, -3, -2, 1, 2, -1, 5, 0, -2, -1, -1, -1, -1, 1],
    [-2, -3, -3, -3, -2, -3, -3, -3, -1, 0, 0, -3, 0, 6, -4, -2, -2, 1, 3, -1],
    [-1, -2, -2, -1, -3, -1, -1, -2, -2, -3, -3, -1, -2, -4, 7, -1, -1, -4, -3, -2],
    [1, -1, 1, 0, -1, 0, 0, 0, -1, -2, -2, 0, -1, -2, -1, 4, 1, -3, -2, -2],
    [0, -1, 0, -1, -1, -1, -1, -2, -2, -1, -1, -1, -1, -2, -1, 1, 5, -2, -2, 0],
    [-3, -3, -4, -4, -2, -2, -3, -2, -2, -3, -2, -3, -1, 1, -4, -3, -2, 11, 2, -3],
    [-2, -2, -2, -3, -2, -1, -2, -3, 2, -1, -1, -2, -1, 3, -3, -2, -2, 2, 7, -1],
    [0, -3, -3, -3, -1, -2, -2, -3, -3, 3, 1, -2, 1, -1, -2, -2, 0, -3, -1, 4],
]

# -- DSL texts -----------------------------------------------------------------

SW_TEXT = """\
int {name}(matrix[protein, protein] m,
       seq[protein] q, index[q] i,
       seq[protein] d, index[d] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max ({name}(i-1, j-1) + m[q[i-1], d[j-1]])
         max ({name}(i-1, j) - {gap})
         max ({name}(i, j-1) - {gap})
"""

EDIT_TEXT = """\
int {name}(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j * {indel}
  else if j == 0 then i * {indel}
  else ({name}(i-1, j) + {indel})
       min ({name}(i, j-1) + {indel})
       min ({name}(i-1, j-1) + (if s[i-1] == t[j-1] then 0 else {sub}))
"""

#: The service program: the classic edit distance of the README.
SERVICE_PROGRAM = """\
alphabet en = "abcdefghijklmnopqrstuvwxyz"

int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

HMM_TEXT = """\
prob {name}(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then
    (if s.isstart then 1.0 else 0.0)
  else
    (if s.isend then 1.0 else s.emission[x[i-1]]) * {scale}
    * {reduce}(t in s.transitionsto : t.prob * {name}(t.start, i - 1))
"""

NUSSINOV_TEXT = """\
int {name}(seq[rna] x, index[x] i, index[x] j) =
  if j < i + {min_span} then 0
  else (
    {name}(i+1, j)
    max {name}(i, j-1)
    max ({name}(i+1, j-1) + {pair})
    max max(k in i+1 .. j-1 : {name}(i, k) + {name}(k, j))
  )
"""


def _pair_expr(bonus: int) -> str:
    return (
        f"(if x[i] == 'a' then (if x[j-1] == 'u' then {bonus} else 0)\n"
        f"   else if x[i] == 'u' then (if x[j-1] == 'a' then {bonus}"
        f" else (if x[j-1] == 'g' then {bonus} else 0))\n"
        f"   else if x[i] == 'c' then (if x[j-1] == 'g' then {bonus}"
        f" else 0)\n"
        f"   else (if x[j-1] == 'c' then {bonus}"
        f" else (if x[j-1] == 'u' then {bonus} else 0)))"
    )


# -- input generators ----------------------------------------------------------


def _text(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _codes(text: str, alphabet: str) -> List[int]:
    return [alphabet.index(ch) for ch in text]


def profile_model(rng: random.Random, positions: int = 10) -> Dict:
    """A match/insert profile in the shape of the paper's TK model
    (Fig 14): one match and one insert state per position, deletions
    folded into match-skip transitions.

    Emissions are odds ratios against a uniform background (insert
    states emit 1.0), so a forward value over a few hundred residues
    stays inside double range and every ``map`` value can be compared
    to 1e-9 — with plain probabilities it underflows to 0.0 past ~180
    residues and the check would be vacuous. The arithmetic the kernel
    does is the same.
    """
    size = len(PROTEIN)
    states = [{"name": "begin", "kind": "start"}]
    for k in range(1, positions + 1):
        favourite = rng.choice(PROTEIN)
        match = {
            c: size * (0.6 if c == favourite else 0.4 / (size - 1))
            for c in PROTEIN
        }
        states.append({"name": f"M{k}", "kind": "emit", "emissions": match})
        states.append(
            {"name": f"I{k}", "kind": "emit",
             "emissions": {c: 1.0 for c in PROTEIN}}
        )
    states.append({"name": "finish", "kind": "end"})
    index = {s["name"]: k for k, s in enumerate(states)}
    insert, skip, extend = 0.05, 0.03, 0.4
    edges: Dict[tuple, float] = {}

    def add(source: str, target: str, prob: float) -> None:
        # One edge per state pair: Viterbi maximises over transitions,
        # so parallel edges must not exist for the dense reference.
        key = (index[source], index[target])
        edges[key] = edges.get(key, 0.0) + prob

    add("begin", "M1", 1.0 - insert)
    add("begin", "I1", insert)
    for k in range(1, positions + 1):
        nxt = f"M{k + 1}" if k < positions else "finish"
        hop = f"M{k + 2}" if k + 2 <= positions else "finish"
        add(f"M{k}", nxt, 1.0 - insert - skip)
        add(f"M{k}", f"I{k}", insert)
        add(f"M{k}", hop, skip)
        add(f"I{k}", f"I{k}", extend)
        add(f"I{k}", nxt, 1.0 - extend)
    return {
        "name": "tk",
        "alphabet": PROTEIN,
        "states": states,
        "transitions": [[s, t, p] for (s, t), p in edges.items()],
    }


# -- workloads -----------------------------------------------------------------

SMALL_N = 64
SMALL_POOL = 32
SHAPES_LO, SHAPES_HI = 64, 143
LARGE_N = 2048
LARGE_POOL = 4
MAP_PROBLEMS = 64
MAP_LO, MAP_HI = 120, 360
SERVICE_POOL = 64
SERVICE_N = 100
COLD_APPS = ("sw", "edit", "forward", "viterbi", "nussinov")
#: A cold op cannot beat the two subprocesses it spawns (cc and the
#: dlopen probe); 50 ms is below that floor, so the list never runs
#: out inside the window.
COLD_OPS_PER_SECOND = 20
COLD_WARMUP_OPS = 2


def _sw_spec(name: str, gap: int = 8) -> Dict:
    return {
        "text": SW_TEXT.format(name=name, gap=gap),
        "alphabets": {"protein": PROTEIN},
        "matrix": BLOSUM62,
    }


def _sw_pairs(rng, count: int, length: int, gap: int = 8):
    pairs, expected = [], []
    for _ in range(count):
        q, d = _text(rng, PROTEIN, length), _text(rng, PROTEIN, length)
        pairs.append([q, d])
        expected.append(
            reference.sw_max(
                _codes(q, PROTEIN), _codes(d, PROTEIN), BLOSUM62, gap
            )
        )
    return pairs, expected


def _sw_pool(rng, count: int, length: int) -> Dict:
    pairs, expected = _sw_pairs(rng, count, length)
    return {"program": _sw_spec("sw"), "pairs": pairs,
            "expected": expected}


def sw_pair_small(rng, window_s: float) -> Dict:
    return _sw_pool(rng, SMALL_POOL, SMALL_N)


def sw_pair_large(rng, window_s: float) -> Dict:
    # 50 warm-up ops of 45 ms would be seconds of set-up, and after
    # the first no per-call memo is left to fill.
    return {**_sw_pool(rng, LARGE_POOL, LARGE_N), "warmup_ops": 5}


def sw_pair_shapes(rng, window_s: float) -> Dict:
    """Every op is a prefix pair with lengths no other op of the child
    has, so the per-extents memos never hit.

    Lengths start at 64, not below: a table of at most 4096 cells also
    takes the verifier's brute-force edge walk (~40 ms against a 1.5 ms
    op), and throughput would then follow the seed's share of small
    shapes instead of the program. 80 lengths a side give a child more
    distinct shapes than it can run in its window."""
    base_pairs = []
    tables = []
    for _ in range(8):
        q = _text(rng, PROTEIN, SHAPES_HI)
        d = _text(rng, PROTEIN, SHAPES_HI)
        base_pairs.append([q, d])
        tables.append(
            reference.sw_prefix_max(
                _codes(q, PROTEIN), _codes(d, PROTEIN), BLOSUM62, 8
            )
        )
    shapes = [
        (a, b)
        for a in range(SHAPES_LO, SHAPES_HI + 1)
        for b in range(SHAPES_LO, SHAPES_HI + 1)
    ]
    rng.shuffle(shapes)
    ops, expected = [], []
    for k, (a, b) in enumerate(shapes):
        pair = k % len(base_pairs)
        ops.append([pair, a, b])
        expected.append(int(tables[pair][a, b]))
    return {"program": _sw_spec("sw"), "pairs": base_pairs,
            "ops": ops, "expected": expected}


def profile_map(rng, window_s: float) -> Dict:
    """The seed draws the residues, the model and the order; the 64
    lengths are the same evenly spaced ones under every seed.

    Drawn at random they made set-up follow the seed: the first
    ``map_run`` solves and verifies once per distinct length, and a
    member under 185 residues (a table of at most 4096 cells) also
    takes the verifier's brute-force walk — 11 to 21 of 64 members and
    1.7 to 2.9 s of set-up from one seed to the next. The summed
    length, and with it the op time, moved by 3 % as well."""
    model = profile_model(rng)
    step = (MAP_HI - MAP_LO) / (MAP_PROBLEMS - 1)
    lengths = [MAP_LO + round(k * step) for k in range(MAP_PROBLEMS)]
    rng.shuffle(lengths)
    database = [_text(rng, PROTEIN, length) for length in lengths]
    expected = [
        math.exp(reference.forward_log(model, _codes(x, PROTEIN)))
        for x in database
    ]
    return {
        "program": {
            "text": HMM_TEXT.format(
                name="forward", scale="1.0", reduce="sum"
            ),
            "alphabets": {},
        },
        "model": model,
        "database": database,
        "expected": expected,
    }


def _cold_op(rng, index: int, model: Dict) -> Dict:
    """One never-seen program: app round-robin, the function name
    carries the op index, the constants come from the seed."""
    app = COLD_APPS[index % len(COLD_APPS)]
    name = f"{app}_{index}"
    if app == "sw":
        gap = rng.randint(4, 12)
        q, d = _text(rng, PROTEIN, 48), _text(rng, PROTEIN, 48)
        return {
            "app": app, "name": name, "reduce": "max",
            "alphabet": ["protein", PROTEIN],
            "program": _sw_spec(name, gap),
            "args": {"q": q, "d": d},
            "expected": reference.sw_max(
                _codes(q, PROTEIN), _codes(d, PROTEIN), BLOSUM62, gap
            ),
        }
    if app == "edit":
        indel, sub = rng.randint(1, 3), rng.randint(1, 5)
        s, t = _text(rng, ENGLISH[:6], 48), _text(rng, ENGLISH[:6], 48)
        return {
            "app": app, "name": name, "alphabet": ["en", ENGLISH],
            "program": {
                "text": EDIT_TEXT.format(
                    name=name, indel=indel, sub=sub
                ),
                "alphabets": {"en": ENGLISH},
            },
            "args": {"s": s, "t": t},
            "expected": reference.edit_distance(s, t, indel, sub),
        }
    if app in ("forward", "viterbi"):
        scale = round(rng.uniform(0.5, 1.5), 3)
        x = _text(rng, PROTEIN, 40)
        log_value = (
            reference.forward_log if app == "forward"
            else reference.viterbi_log
        )(model, _codes(x, PROTEIN), scale)
        return {
            "app": app, "name": name,
            "alphabet": ["protein", PROTEIN],
            "program": {
                "text": HMM_TEXT.format(
                    name=name, scale=repr(scale),
                    reduce="sum" if app == "forward" else "max",
                ),
                "alphabets": {},
            },
            "args": {"x": x},
            "expected": math.exp(log_value),
        }
    min_span, bonus = rng.randint(2, 4), rng.randint(1, 3)
    x = _text(rng, RNA, 40)
    return {
        "app": app, "name": name, "at": {"i": 0, "j": len(x)},
        "alphabet": ["rna", RNA],
        "program": {
            "text": NUSSINOV_TEXT.format(
                name=name, min_span=min_span, pair=_pair_expr(bonus)
            ),
            "alphabets": {"rna": RNA},
        },
        "args": {"x": x},
        "expected": reference.nussinov(x, min_span, bonus),
    }


def cold_ops(rng, count: int) -> Dict:
    model = profile_model(rng)
    return {
        "model": model,
        "ops": [_cold_op(rng, k, model) for k in range(count)],
    }


def cold_compile(rng, window_s: float) -> Dict:
    count = COLD_WARMUP_OPS + math.ceil(window_s * COLD_OPS_PER_SECOND)
    return cold_ops(rng, count)


def service_http(rng, window_s: float) -> Dict:
    pairs = [
        [_text(rng, ENGLISH, SERVICE_N), _text(rng, ENGLISH, SERVICE_N)]
        for _ in range(SERVICE_POOL)
    ]
    return {
        "program_text": SERVICE_PROGRAM,
        "function": "d",
        "pairs": pairs,
        "expected": [reference.edit_distance(s, t) for s, t in pairs],
    }


def probes(rng, window_s: float) -> Dict:
    """Inputs of the layer probes (``probes.py``): one small instance
    of each workload plus the SW-512 pair the sandbox, cache and
    supervisor probes share."""
    return {
        "cold": cold_ops(rng, 2 * len(COLD_APPS)),
        "small": _sw_pool(rng, SMALL_POOL, SMALL_N),
        "mid": _sw_pool(rng, 1, 512),
        "large": _sw_pool(rng, 1, LARGE_N),
        "map": profile_map(rng, window_s),
        "service": service_http(rng, window_s),
    }


WORKLOADS = {
    "sw_pair_small": (
        sw_pair_small,
        "warm Engine.run on one 64x64 shape: every memo hits, so "
        "engine dispatch and cost pricing weigh as much as the kernel",
    ),
    "sw_pair_shapes": (
        sw_pair_shapes,
        "same kernel, fresh lengths every op: the kernel cache hits "
        "while the per-extents schedule and verdict memos miss",
    ),
    "sw_pair_large": (
        sw_pair_large,
        "warm Engine.run at 2048x2048: the generated native kernel is "
        "most of the op, dispatch under 1 %",
    ),
    "profile_map": (
        profile_map,
        "warm log-space map_run of a profile HMM over 64 sequences: "
        "batch plan/pack, the batched native entry, float reductions",
    ),
    "cold_compile": (
        cold_compile,
        "every op a never-seen program, DSL text to value through a "
        "fresh engine and disk cache: the compiler's own cost",
    ),
    "service_http": (
        service_http,
        "two closed-loop HTTP clients against ComputeService: queue, "
        "10 ms batch window, workers and JSON, engine under 10 %",
    ),
}


def build(name: str, seed: int, window_s: float) -> Dict:
    """The spec of workload ``name`` (or ``"probes"``) for ``seed``."""
    builder = probes if name == "probes" else WORKLOADS[name][0]
    rng = random.Random(f"{name}:{seed}")
    spec = builder(rng, window_s)
    spec["workload"] = name
    spec["seed"] = seed
    return spec
