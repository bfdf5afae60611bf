"""``REPRO_NATIVE_SANITIZE``: flag parsing, content-address
distinctness, sandboxed routing, and the cache-embed refusal.

Sanitized artifacts are a diagnostic build: they must never be
``dlopen``-ed in-process (the ASan runtime reads
``/proc/self/environ``, so link-order options cannot be injected
after interpreter start) and must never be immortalised in a disk
cache record a plain process would then try to load.
"""

import os

import pytest

from repro.ir.kernel import build_kernel
from repro.lang.errors import NativeBuildError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native, sandbox
from repro.runtime.engine import Engine
from repro.runtime.values import Sequence
from repro.schedule.schedule import Schedule
from repro.service.cache import encode_compiled

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

EDIT = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

have_cc = native.available().ok
needs_cc = pytest.mark.skipif(
    not have_cc, reason="no working C compiler in this environment"
)


def edit_kernel():
    func = check_function(parse_function(EDIT.strip()), EN)
    return build_kernel(
        func, Schedule(("i", "j"), (1, 1)),
        prob_mode="direct", compute_window=True,
    )


def sanitized_build(source):
    """Build under ASan+UBSan, skipping hosts without the runtimes."""
    try:
        return native.build_shared_object(source)
    except NativeBuildError as err:
        if "sanitize" in str(err) or "asan" in str(err).lower():
            pytest.skip(f"sanitizer runtimes unavailable: {err}")
        raise


class TestFlags:
    def test_unset_means_plain(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        assert native.sanitize_flags() == ()
        assert not native.sanitize_active()

    def test_address(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        assert native.sanitize_flags() == (
            "-fsanitize=address", "-g", "-fno-omit-frame-pointer",
        )
        assert native.sanitize_active()

    def test_both_in_order(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_NATIVE_SANITIZE", "address,undefined"
        )
        flags = native.sanitize_flags()
        assert "-fsanitize=address" in flags
        assert "-fsanitize=undefined" in flags

    def test_whitespace_and_case_tolerated(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_NATIVE_SANITIZE", " Undefined , "
        )
        assert "-fsanitize=undefined" in native.sanitize_flags()

    def test_unknown_name_raises(self, monkeypatch):
        # A typo silently building uninstrumented kernels would
        # defeat the entire sanitizer leg.
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "thread")
        with pytest.raises(NativeBuildError, match="thread"):
            native.sanitize_flags()


@needs_cc
class TestBuildIsolation:
    SOURCE = "int repro_probe_fn(void) { return 42; }\n"

    def test_digest_distinct_from_plain(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        plain = native.build_shared_object(self.SOURCE)
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        instrumented = sanitized_build(self.SOURCE)
        assert plain != instrumented  # never alias cache slots

    def test_build_exports_runtime_options(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        monkeypatch.delenv("ASAN_OPTIONS", raising=False)
        monkeypatch.delenv("UBSAN_OPTIONS", raising=False)
        sanitized_build(self.SOURCE)
        assert "verify_asan_link_order=0" in os.environ["ASAN_OPTIONS"]
        assert "halt_on_error=1" in os.environ["UBSAN_OPTIONS"]

    def test_existing_options_not_clobbered(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        monkeypatch.setenv("ASAN_OPTIONS", "detect_leaks=1")
        sanitized_build(self.SOURCE)
        assert os.environ["ASAN_OPTIONS"] == "detect_leaks=1"


class TestRouting:
    def test_sanitized_runs_are_sandboxed(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        run = native._make_run(edit_kernel(), "/nowhere/k.so")
        assert isinstance(run, sandbox.SandboxedNativeRun)

    def test_sanitized_batched_runs_are_sandboxed(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        run = native._make_run(edit_kernel(), "/nowhere/k.so")
        launches = []
        monkeypatch.setattr(
            sandbox.NativeSandbox, "launch",
            lambda _pool, *args, **kwargs: launches.append(kwargs),
        )
        run.batched(object(), {})
        (launch,) = launches
        assert launch["entry"] == "batched"


class TestCacheRefusal:
    class FakeNativeProduct:
        backend = "native"
        source = "/* generated */"
        compile_seconds = 0.0

        def __init__(self, kernel, so_path):
            self.kernel = kernel
            self.so_path = so_path

    def test_instrumented_product_never_encoded(
        self, tmp_path, monkeypatch
    ):
        so = tmp_path / "k.so"
        so.write_bytes(b"\x7fELFfake")
        product = self.FakeNativeProduct(edit_kernel(), str(so))
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        assert encode_compiled(product)  # plain product embeds fine
        monkeypatch.setenv("REPRO_NATIVE_SANITIZE", "address")
        with pytest.raises(ValueError, match="instrumented"):
            encode_compiled(product)


@needs_cc
class TestEndToEnd:
    def test_sanitized_run_matches_plain_bitwise(self, monkeypatch):
        func = check_function(parse_function(EDIT.strip()), EN)
        bindings = {
            "s": Sequence("kitten", ALPHABET),
            "t": Sequence("sitting", ALPHABET),
        }
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        plain = Engine(backend="native").run(func, bindings)
        monkeypatch.setenv(
            "REPRO_NATIVE_SANITIZE", "address,undefined"
        )
        sandbox.reset()
        try:
            instrumented = Engine(backend="native").run(func, bindings)
        except NativeBuildError as err:
            pytest.skip(f"sanitizer runtimes unavailable: {err}")
        finally:
            sandbox.reset()
        assert instrumented.value == plain.value
        assert (
            instrumented.table.tobytes() == plain.table.tobytes()
        )
