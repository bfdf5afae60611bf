"""The backend ladder: rung choice, per-rung build, launch demotion.

``repro.runtime.ladder`` is the only module that knows the rung
order, so these tests are the only place the order is restated.
"""

import itertools

import pytest

from repro.ir.npbackend import Eligibility
from repro.lang.errors import CodegenError, NativeBuildError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.resilience.faults import WorkerCrash
from repro.runtime import ladder, native, sandbox
from repro.runtime.engine import Engine
from repro.runtime.ladder import Rung
from repro.runtime.values import Bindings, Sequence

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + {k}
"""

have_cc = native.available().ok
needs_cc = pytest.mark.skipif(
    not have_cc, reason="no working C compiler in this environment"
)


def edit_func(k=1):
    text = EDIT_DISTANCE.format(k=k).strip()
    return check_function(parse_function(text), EN)


def words(s="kitten", t="sitting"):
    return {"s": Sequence(s, ALPHABET), "t": Sequence(t, ALPHABET)}


def compile_for(engine, func, bindings):
    bound = Bindings(dict(bindings))
    domain = engine.domain_of(func, bound)
    schedule = engine.schedule_for(func, domain)
    return engine.compile(func, schedule, domain)


# -- the table -----------------------------------------------------------------

TOOLCHAINS = {
    "ok": Eligibility(True, "ok", "cc found"),
    "no-compiler": Eligibility(False, "no-compiler", "no cc on PATH"),
    "disabled": Eligibility(False, "disabled", "REPRO_NATIVE_DISABLE"),
}
NATIVE = {
    True: Eligibility(True, "ok", "compiles to C99"),
    False: Eligibility(False, "cross-table-read", "reads table of 'g'"),
}
VECTOR = {
    True: Eligibility(True, "ok", "2-D sweep"),
    False: Eligibility(False, "rank", "kernel is 1-dimensional"),
}
SIZES = {"small": False, "large": True, "unknown": None}
#: The engine's ``backend`` argument per mode. "env-native" is an
#: ``Engine()`` given none while the retired ``REPRO_BACKEND=native`` is
#: still set: the variable is ignored, so it resolves exactly as "auto".
MODES = {
    "auto": "auto",
    "env-native": None,
    "forced-native": "native",
    "vector": "vector",
    "scalar": "scalar",
}


def make_ladder(toolchain, native_ok, vector_ok):
    return (
        Rung("native", (TOOLCHAINS[toolchain], NATIVE[native_ok])),
        Rung("vector", (VECTOR[vector_ok],)),
        Rung("scalar", (Eligibility(True, "ok", "always"),)),
    )


def expected(toolchain, native_ok, vector_ok, size, sanitize, mode):
    """The ladder's contract, restated: a rung name, or the
    ``[rule]`` the refusal must carry."""
    native_runs = toolchain == "ok" and native_ok and not sanitize
    python_rung = (
        "vector" if vector_ok and size != "small" else "scalar"
    )
    if mode == "scalar":
        return "scalar"
    if mode == "vector":
        return "vector" if vector_ok else "[rank]"
    if mode == "forced-native":
        if native_runs:
            return "native"
        if sanitize:
            return "cannot run sanitized"
        if toolchain != "ok":
            return f"[{toolchain}]"
        return "[cross-table-read]"
    return "native" if native_runs else python_rung


CASES = list(
    itertools.product(
        TOOLCHAINS, NATIVE, VECTOR, SIZES, (False, True), MODES
    )
)


class TestRungTable:
    @pytest.mark.parametrize(
        "toolchain,native_ok,vector_ok,size,sanitize,mode", CASES
    )
    def test_resolve(
        self, toolchain, native_ok, vector_ok, size, sanitize, mode,
        monkeypatch,
    ):
        rungs = make_ladder(toolchain, native_ok, vector_ok)
        want = expected(
            toolchain, native_ok, vector_ok, size, sanitize, mode
        )
        backend = MODES[mode]
        if backend is None:
            monkeypatch.setenv("REPRO_BACKEND", "native")
            backend = Engine().backend
        if want in ("native", "vector", "scalar"):
            assert ladder.resolve(
                "d", rungs, backend, sanitize, SIZES[size]
            ) == want
        else:
            with pytest.raises(CodegenError) as err:
                ladder.resolve(
                    "d", rungs, backend, sanitize, SIZES[size]
                )
            assert want in str(err.value)

    def test_forced_messages_are_stable(self):
        """The fuzzer's eligibility-mismatch leg reads these."""
        rungs = make_ladder("disabled", True, False)
        with pytest.raises(CodegenError) as err:
            ladder.resolve("d", rungs, "vector")
        assert err.value.message == (
            "backend='vector' was forced but kernel 'd' is not "
            "eligible [rank]: kernel is 1-dimensional"
        )
        with pytest.raises(CodegenError) as err:
            ladder.resolve("d", rungs, "native")
        assert err.value.message == (
            "backend='native' was forced but kernel 'd' cannot use it "
            "[disabled]: REPRO_NATIVE_DISABLE"
        )
        with pytest.raises(CodegenError) as err:
            ladder.resolve("d", rungs, "native", sanitize=True)
        assert err.value.message == (
            "backend='native' cannot run sanitized: the sanitizer "
            "instruments the generated Python partition loop, which "
            "machine code does not have"
        )

    def test_below_native_is_the_python_choice(self):
        for vector_ok, size in itertools.product(VECTOR, SIZES):
            rungs = make_ladder("ok", True, vector_ok)
            assert ladder.choose(
                rungs[1:], SIZES[size]
            ) == expected("disabled", True, vector_ok, size, False, "auto")

    def test_rungs_of_a_real_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        compiled = compile_for(
            Engine(backend="scalar"), edit_func(), words()
        )
        native_rung, vector, scalar = ladder.rungs(compiled.kernel)
        assert [r.name for r in (native_rung, vector, scalar)] == [
            "native", "vector", "scalar",
        ]
        assert native_rung.verdict.rule == "disabled"
        assert native_rung.checks[1].ok  # the kernel itself is fine
        assert vector.verdict.ok and scalar.verdict.ok
        assert ladder.choose((vector, scalar), large=True) == "vector"
        assert ladder.choose((vector, scalar), large=False) == "scalar"


class TestBuild:
    @pytest.mark.parametrize("rung", ["scalar", "vector", "native"])
    def test_build_names_its_rung(self, rung):
        if rung == "native" and not have_cc:
            pytest.skip("no working C compiler in this environment")
        kernel = compile_for(
            Engine(backend="scalar"), edit_func(), words()
        ).kernel
        compiled = ladder.build(kernel, rung)
        assert compiled.backend == rung
        assert compiled.kernel is kernel
        assert (compiled.so_path is not None) == (rung == "native")

    def test_failed_build_is_remembered_across_sizes(self, monkeypatch):
        """Eligibility said yes, the toolchain said no: the engine
        lands on the rung below, and no later shape retries the
        doomed build."""
        attempts = []

        def broken(kernel):
            attempts.append(kernel.name)
            raise NativeBuildError("cc exited with status 1")

        monkeypatch.setattr(native, "compile_native", broken)
        monkeypatch.setattr(
            native, "available", lambda: Eligibility(True, "ok", "stub")
        )
        engine = Engine()
        func = edit_func()
        small = compile_for(engine, func, words())
        assert small.backend == "scalar"
        big = compile_for(engine, func, words("a" * 120, "b" * 100))
        assert big.backend == "vector"
        assert attempts == ["d"]

    def test_forced_build_failure_is_not_remembered(self, monkeypatch):
        def broken(kernel):
            raise NativeBuildError("cc exited with status 1")

        monkeypatch.setattr(native, "compile_native", broken)
        monkeypatch.setattr(
            native, "available", lambda: Eligibility(True, "ok", "stub")
        )
        engine = Engine(backend="native")
        for _ in range(2):
            with pytest.raises(NativeBuildError) as err:
                compile_for(engine, edit_func(), words())
            assert "[build-failed]" in str(err.value)


# -- the rung memo ---------------------------------------------------------------


class TestRungMemo:
    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(cache_capacity=8)
        for k in range(1, 21):
            compiled = compile_for(engine, edit_func(k), words())
            assert compiled.backend == "scalar"
            assert len(engine._memo) <= 8
        assert len(engine._memo) == 8

    @needs_cc
    def test_open_breaker_reroutes_without_rewriting_memo(self):
        sandbox.configure(True)
        sandbox.reset()
        try:
            engine = Engine(cache_capacity=8)
            func = edit_func()
            first = compile_for(engine, func, words())
            assert first.backend == "native"
            breaker = sandbox.get_breaker()
            for _ in range(breaker.threshold):
                breaker.record_failure(first.run.digest)
            # Memo hit, breaker open: one rung down, counted.
            assert compile_for(engine, func, words()).backend == "scalar"
            assert engine.native_demotions == 1
            # Half-open: the same memo entry resolves native again.
            breaker.cooldown = 0.0
            assert breaker.state(first.run.digest) == "half-open"
            assert compile_for(engine, func, words()) is first
            assert engine.native_demotions == 1
        finally:
            sandbox.configure(None)
            sandbox.reset()


# -- launch demotion -------------------------------------------------------------


class CrashOnce:
    """A compiled callable whose first launch dies like a sandbox
    worker; later launches go through."""

    def __init__(self, run):
        self.run = run
        self.crashed = False

    def __call__(self, table, ctx, **kwargs):
        if not self.crashed:
            self.crashed = True
            raise WorkerCrash("injected worker death")
        return self.run(table, ctx, **kwargs)


MAP_WORDS = ("kitten", "mitten", "witty", "sit")


def plain_run(engine, func):
    result = engine.run(func, words())
    return [result.value, result.table.tobytes()]


def map_members(engine, func):
    engine.batching = False
    return engine.map_run(
        func,
        {"t": Sequence("sitting", ALPHABET)},
        [{"s": Sequence(w, ALPHABET)} for w in MAP_WORDS],
    ).values


def batched_group(engine, func):
    result = engine.map_run(
        func,
        {"t": Sequence("sitting", ALPHABET)},
        [{"s": Sequence(w, ALPHABET)} for w in MAP_WORDS],
    )
    assert result.lane_batches == 1
    return result.values + result.batched_backends


@needs_cc
class TestLaunchDemotion:
    @pytest.mark.parametrize(
        "site", [plain_run, map_members, batched_group]
    )
    def test_one_crash_one_demotion_same_values(self, site):
        func = edit_func()
        clean = site(Engine(backend="native"), func)

        engine = Engine(backend="native")
        # Warm the cache so the crashing callable can be planted on
        # the product every site is about to launch.
        compiled = compile_for(engine, func, words())
        if site is batched_group:
            compiled.batched = CrashOnce(compiled.batched)
        else:
            compiled.run = CrashOnce(compiled.run)
        recovered = site(engine, func)
        assert engine.native_demotions == 1
        if site is batched_group:
            assert clean[-1] == "native-batched"
            assert recovered[-1] == "vector-batched"
            clean, recovered = clean[:-1], recovered[:-1]
        assert recovered == clean

    def test_other_errors_are_not_demoted(self):
        engine = Engine(backend="native")
        func = edit_func()
        compiled = compile_for(engine, func, words())

        def broken(table, ctx, **kwargs):
            raise ValueError("not a sandbox fault")

        compiled.run = broken
        with pytest.raises(ValueError):
            engine.run(func, words())
        assert engine.native_demotions == 0


# -- every route off native ---------------------------------------------------

#: One-dimensional, so the NumPy rungs refuse it: below native there
#: is only the scalar rung.
RUN_LENGTH = """
int r(seq[en] s, index[s] i) =
  if i == 0 then 0
  else if s[i-1] == 'a' then r(i-1) + 1 else 0
"""

#: Member sequences either side of the vector crossover.
ROUTE_WORDS = {
    "small": ("kitten", "mitten", "witty", "sit"),
    "large": ("ab" * 60, "ba" * 55, "abc" * 40, "a" * 110),
}


def route_case(kernel, size):
    """``(func, base, problems)``: edit distance (vector-eligible) or
    the run-length kernel, over small or large members."""
    problems = [
        {"s": Sequence(word, ALPHABET)} for word in ROUTE_WORDS[size]
    ]
    if kernel == "edit":
        return edit_func(), {"t": Sequence("sitting", ALPHABET)}, problems
    return check_function(parse_function(RUN_LENGTH.strip()), EN), {}, problems


def kill_first(monkeypatch, entry):
    """The first sandboxed launch of ``entry`` kills its worker for
    real (SIGKILL mid-launch); later launches go through."""
    original = sandbox.SandboxedNativeRun._launch
    armed = [True]

    def launch(self, name, T, ctx, part_lo=None, part_hi=None,
               fault=None, deadline=None, want=None):
        if name == entry and armed:
            armed.clear()
            fault = {"kind": "kill"}
        return original(
            self, name, T, ctx, part_lo, part_hi, fault, deadline, want
        )

    monkeypatch.setattr(sandbox.SandboxedNativeRun, "_launch", launch)


def via_compile(engine, func, base, problems, monkeypatch):
    """The breaker is open when ``Engine.compile`` resolves."""
    bound = {**base, **problems[0]}
    native_product = compile_for(engine, func, bound)
    breaker = sandbox.get_breaker()
    for _ in range(breaker.threshold):
        breaker.record_failure(native_product.run.digest)
    return [engine.run(func, bound).value]


def via_launch(engine, func, base, problems, monkeypatch):
    """A worker dies under ``ladder.launch``."""
    kill_first(monkeypatch, "__call__")
    return [engine.run(func, {**base, **problems[0]}).value]


def via_epoch(engine, func, base, problems, monkeypatch):
    """A worker dies inside a supervised epoch and opens the breaker."""
    from repro.resilience import ExecutionSupervisor

    sandbox.get_breaker().threshold = 1
    kill_first(monkeypatch, "__call__")
    supervisor = ExecutionSupervisor(engine)
    return [supervisor.run(func, {**base, **problems[0]}).value]


def via_group(engine, func, base, problems, monkeypatch):
    """A packed group's worker dies."""
    kill_first(monkeypatch, "batched")
    return group_outcome(
        engine.map_run(func, base, problems), monkeypatch
    )


def via_supervised_group(engine, func, base, problems, monkeypatch):
    """A packed group's worker dies inside a supervised epoch and
    opens the breaker."""
    from repro.resilience import ExecutionSupervisor

    sandbox.get_breaker().threshold = 1
    kill_first(monkeypatch, "batched")
    supervisor = ExecutionSupervisor(engine)
    return group_outcome(
        supervisor.map_run(func, base, problems), monkeypatch
    )


def group_outcome(result, monkeypatch):
    """A map's values, then its one group's rung label and the thread
    count the group is priced at."""
    from repro.gpu import device

    threads = []
    price = device.batched_launch_cost

    def spy(*args, **kwargs):
        threads.append(kwargs["threads"])
        return price(*args, **kwargs)

    monkeypatch.setattr(device, "batched_launch_cost", spy)
    result.batched_costs
    return result.values + result.batched_backends + threads


GROUP_ROUTES = (via_group, via_supervised_group)


@pytest.fixture
def sandboxed():
    sandbox.configure(True)
    sandbox.reset()
    yield
    sandbox.configure(None)
    sandbox.reset()


@needs_cc
class TestRoutesOffNative:
    @pytest.mark.parametrize("kernel", ["edit", "run-length"])
    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize(
        "route",
        [via_compile, via_launch, via_epoch, via_group,
         via_supervised_group],
    )
    def test_every_route_lands_where_the_ladder_says(
        self, route, size, kernel, sandboxed, monkeypatch
    ):
        """Supervised or not, a run leaves native for the rung the
        size test picks; a packed group for the best eligible one,
        whatever its size, and is labelled and priced (one thread)
        as the rung it ran on. Either way one demotion is counted,
        the landing rung's product joins the kernel cache, and the
        values are the scalar rung's."""
        from repro.runtime import native

        # A group still read as native would be priced at 4 threads.
        monkeypatch.setattr(native, "effective_threads", lambda: 4)
        func, base, problems = route_case(kernel, size)
        engine = Engine(backend="native")
        got = route(engine, func, base, problems, monkeypatch)
        if route in GROUP_ROUTES:
            landed = "vector" if kernel == "edit" else "scalar"
            assert got[-2:] == [f"{landed}-batched", 1]
            got = got[:-2]
            expect = Engine(backend="scalar").map_run(
                func, base, problems
            ).values
        else:
            large = size == "large" and kernel == "edit"
            landed = "vector" if large else "scalar"
            expect = [
                Engine(backend="scalar").run(
                    func, {**base, **problems[0]}
                ).value
            ]
        assert engine.native_demotions == 1
        assert dict(engine.cache_info().backends) == {
            "native": 1, landed: 1,
        }
        assert got == expect


# -- the device model prices, it does not choose -------------------------------


def _gpu_imports():
    """Modules under ``src/repro`` (outside ``repro.gpu`` itself) with
    an import of ``repro.gpu`` anywhere in them, lazy ones included,
    as paths relative to the package, each with the dotted names it
    imports from ``repro.gpu``."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    importers = {}
    for path in root.rglob("*.py"):
        rel = path.relative_to(root)
        if rel.parts[0] == "gpu":
            continue
        package = ("repro",) + rel.parts[:-1]
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = (
                    list(package[: len(package) - node.level + 1])
                    if node.level
                    else []
                )
                base += node.module.split(".") if node.module else []
                targets = [
                    ".".join(base + [alias.name]) for alias in node.names
                ]
            else:
                continue
            importers.setdefault(rel.as_posix(), set()).update(
                target for target in targets
                if (target + ".").startswith("repro.gpu.")
            )
    return {path: names for path, names in importers.items() if names}


def test_nothing_that_chooses_code_imports_the_device_model():
    """The simulated GTX 480 prices what ran; it never decides what
    runs. So nothing that picks a schedule, emits or verifies code,
    or launches it may import ``repro.gpu`` — only what prices a
    launch (the engines) or reproduces the paper's baselines. The
    engine imports the spec it is configured with and the one pricer,
    nothing of the model."""
    imports = _gpu_imports()
    importers = set(imports)
    choosers = {
        path for path in importers
        if path.split("/")[0] in ("schedule", "ir", "verify")
        or path in (
            "runtime/ladder.py", "runtime/native.py",
            "runtime/sandbox.py", "runtime/batching.py",
        )
    }
    assert choosers == set()
    assert {
        path for path in importers
        if not path.startswith("apps/baselines/")
    } == {"runtime/engine.py", "runtime/mutual.py"}
    assert imports["runtime/engine.py"] == {
        "repro.gpu.spec.DeviceSpec",
        "repro.gpu.spec.GTX480",
        "repro.gpu.device.Pricing",
        "repro.gpu.device.price_launch",
    }
