import sys
import types

import pytest

from lowrank import runtime


def fake_library(*names):
    lib = types.SimpleNamespace()
    for name in names:
        setattr(lib, name, lambda *args: 3)
    return lib


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_finds_the_loaded_openblas():
    controls = runtime.blas_controls()
    assert controls, "numpy's bundled OpenBLAS should be found"
    for control in controls:
        assert "openblas" in control.library.lower()
        assert control.get() >= 1


@pytest.mark.parametrize(
    "names, bound",
    [
        (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"), True),
        (("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"), True),
        (("openblas_get_num_threads", "openblas_set_num_threads"), True),
        (("openblas_get_num_threads64_", "openblas_set_num_threads64_"), True),
        (("openblas_get_num_threads",), False),  # no setter
        (("openblas_get_num_threads", "scipy_openblas_set_num_threads"), False),  # not a pair
    ],
)
def test_binds_getter_and_setter_pairs(monkeypatch, names, bound):
    monkeypatch.setattr(runtime.ctypes, "CDLL", lambda path: fake_library(*names))
    control = runtime._bind("/lib/libopenblas.so")
    assert (control is not None) == bound
    if bound:
        assert control.library == "libopenblas.so" and control.get() == 3


def test_unreadable_maps_means_no_controls(monkeypatch):
    def no_maps(*args, **kwargs):
        raise OSError("no procfs")

    monkeypatch.setattr(runtime, "open", no_maps, raising=False)
    assert runtime.blas_controls() == []


def test_malloc_arena_cap_respects_the_user_setting(monkeypatch):
    calls = []
    monkeypatch.setattr(runtime.ctypes, "CDLL", lambda path: types.SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    monkeypatch.setattr(runtime, "_arenas_capped", False)
    monkeypatch.setenv("MALLOC_ARENA_MAX", "4")
    runtime.cap_malloc_arenas()
    assert calls == []

    monkeypatch.setattr(runtime, "_arenas_capped", False)
    monkeypatch.delenv("MALLOC_ARENA_MAX")
    monkeypatch.setattr(runtime.sys, "platform", "linux")
    runtime.cap_malloc_arenas()
    runtime.cap_malloc_arenas()  # once per process
    assert calls == [(runtime.M_ARENA_MAX, 1)]
