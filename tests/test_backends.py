"""The package evaluates its closed forms with one kernel module."""

from bosonic_mac import _core_py, _kernels


def test_selected_backend_reported():
    assert _kernels.BACKEND == "python"
    assert _kernels.impl is _core_py
