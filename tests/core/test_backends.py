"""Backend selection, the no-toolchain switch, and graceful fallback."""

import dataclasses

import numpy as np
import pytest

from repro.core import optimize_cuts_batch, plan_batch
from repro.core.backends import (
    BACKENDS,
    BackendUnavailableError,
    _object_digest,
    auto_kernel,
    available_backends,
    compiled_available,
    load_compiled,
    resolve_backend,
)
from repro.service import ServiceConfig
from repro.solvers import get_solver


def _tiny_batch():
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(0,)))
    return rng.dirichlet(np.ones(8), size=(3, 2))


class TestResolveBackend:
    def test_numpy_is_always_resolvable(self):
        assert resolve_backend("numpy") == "numpy"

    def test_auto_resolves_to_an_available_backend(self):
        assert resolve_backend("auto") in available_backends()

    def test_unknown_backend_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown planner backend"):
            resolve_backend("fortran")

    def test_available_backends_always_include_numpy(self):
        assert "numpy" in available_backends()
        assert set(available_backends()) <= set(BACKENDS)


class TestNoCallerChoice:
    """The machine picks the backend; no planner entry point takes one."""

    @pytest.mark.parametrize("option", ["backend", "chunk"])
    def test_planners_take_no_backend_or_chunk(self, option):
        with pytest.raises(TypeError):
            plan_batch(_tiny_batch(), 2, **{option: "numpy"})
        with pytest.raises(TypeError):
            optimize_cuts_batch(np.linspace(0.0, 1.0, 9)[None], 2, **{option: 3})
        assert option not in get_solver("heuristic").spec.options
        assert option not in {f.name for f in dataclasses.fields(ServiceConfig)}


class TestDisableCompiled:
    """REPRO_DISABLE_COMPILED simulates a machine without a toolchain.

    The variable is checked before the per-process memo, so it works even
    after the kernel has already been built and loaded in this process —
    that is what lets one test process cover both configurations.
    """

    def test_compiled_reports_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        assert not compiled_available()
        assert available_backends() == ("numpy",)

    def test_load_compiled_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        with pytest.raises(BackendUnavailableError, match="REPRO_DISABLE_COMPILED"):
            load_compiled()

    def test_auto_falls_back_to_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        assert resolve_backend("auto") == "numpy"
        result = plan_batch(_tiny_batch(), 2)
        assert result.backend == "numpy"

    def test_explicit_compiled_request_raises_instead_of_degrading(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        with pytest.raises(BackendUnavailableError):
            resolve_backend("compiled")

    def test_auto_kernel_follows_each_flip_between_calls(self, monkeypatch):
        # The switch is read on every call, in both directions.
        monkeypatch.delenv("REPRO_DISABLE_COMPILED", raising=False)
        unset = auto_kernel()
        assert (unset is not None) == compiled_available()
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        assert auto_kernel() is None
        monkeypatch.delenv("REPRO_DISABLE_COMPILED")
        assert auto_kernel() is unset
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        assert auto_kernel() is None


class TestObjectDigest:
    """The .so cache key covers the toolchain, not just the C source.

    A cache directory shared across machines (REPRO_CACHE_DIR) or a
    compiler upgrade must rebuild rather than reuse an object compiled
    with -march=native for a different microarchitecture.
    """

    def test_source_changes_the_digest(self):
        assert _object_digest("a", "cc", "v1") != _object_digest("b", "cc", "v1")

    def test_compiler_identity_changes_the_digest(self):
        assert _object_digest("a", "cc", "v1") != _object_digest("a", "clang", "v1")

    def test_compiler_version_changes_the_digest(self):
        assert _object_digest("a", "cc", "gcc 12.2") != _object_digest(
            "a", "cc", "gcc 13.1"
        )

    def test_machine_changes_the_digest(self, monkeypatch):
        import repro.core.backends as backends

        before = _object_digest("a", "cc", "v1")
        monkeypatch.setattr(
            backends.platform, "machine", lambda: "other-arch"
        )
        assert _object_digest("a", "cc", "v1") != before


@pytest.mark.skipif(not compiled_available(), reason="no C toolchain")
class TestCompiledBackend:
    def test_load_is_memoized(self):
        assert load_compiled() is load_compiled()

    def test_resolve_prefers_compiled(self):
        assert resolve_backend("auto") == "compiled"
        assert resolve_backend("compiled") == "compiled"

    def test_plan_batch_reports_compiled(self):
        assert plan_batch(_tiny_batch(), 2).backend == "compiled"

    def test_backend_follows_the_switch_between_calls(self, monkeypatch):
        # The kernel stays loaded; each call reads the switch again.
        batch = _tiny_batch()
        first = plan_batch(batch, 2)
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")
        second = plan_batch(batch, 2)
        monkeypatch.delenv("REPRO_DISABLE_COMPILED")
        third = plan_batch(batch, 2)
        assert [first.backend, second.backend, third.backend] == [
            "compiled", "numpy", "compiled"
        ]
        for result in (second, third):
            assert np.array_equal(result.orders, first.orders)
            assert np.array_equal(result.group_sizes, first.group_sizes)
            assert result.values.tobytes() == first.values.tobytes()
