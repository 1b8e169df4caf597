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


# The policy, pinned: glibc's mallopt parameter number, the value set, and the
# environment variable and GLIBC_TUNABLES entry by which a user overrides it.
POLICY = [
    (-8, 1, "MALLOC_ARENA_MAX", "glibc.malloc.arena_max"),
    (-3, 32 << 20, "MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),
    (-1, -1, "MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),
]


def test_heap_policy_respects_the_user_setting(monkeypatch, mallopt_calls):
    """Each parameter is skipped where its own variable or tunable is set, and only that one."""
    for param, _, variable, tunable in POLICY:
        for key, value in [(variable, "4"), ("GLIBC_TUNABLES", f"glibc.malloc.check=0:{tunable}=4")]:
            monkeypatch.setattr(runtime, "_heap_policy", None)
            mallopt_calls.clear()
            monkeypatch.setenv(key, value)
            in_force = runtime.apply_heap_policy()
            monkeypatch.delenv(key)
            others = [entry for entry in POLICY if entry[0] != param]
            assert mallopt_calls == [(number, set_to) for number, set_to, *_ in others]
            assert in_force == {name: set_to for _, set_to, name, _ in others}


def test_heap_policy_checks_each_return_and_acts_once(mallopt_calls):
    mallopt_calls.rejected.add(-3)  # a glibc that refuses the mmap threshold
    in_force = runtime.apply_heap_policy()
    assert mallopt_calls == [(number, set_to) for number, set_to, *_ in POLICY]
    assert in_force == {"MALLOC_ARENA_MAX": 1, "MALLOC_TRIM_THRESHOLD_": -1}
    assert runtime.apply_heap_policy() is in_force  # once per process
    assert len(mallopt_calls) == len(POLICY)


@pytest.mark.parametrize("where", ["not linux", "no mallopt"])
def test_heap_policy_needs_linux_and_mallopt(monkeypatch, mallopt_calls, where):
    if where == "not linux":
        monkeypatch.setattr(runtime.sys, "platform", "darwin")
    else:
        monkeypatch.setattr(runtime.ctypes, "CDLL", lambda path: types.SimpleNamespace())
    assert runtime.apply_heap_policy() == {}
    assert mallopt_calls == []
