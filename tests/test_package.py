"""The package's public surface, and which entry points load numpy.

Only the beamsplitter-network oracle and ``verify`` use numpy.  The
numpy checks run in a fresh interpreter, because pytest has numpy
loaded already; ``sys.modules["numpy"] = None`` there makes any import
of numpy raise ImportError.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bosonic_mac
from bosonic_mac import cli

SRC = Path(bosonic_mac.__file__).resolve().parent.parent
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'


def run_python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)


def test_every_name_in_all_resolves():
    for name in bosonic_mac.__all__:
        assert getattr(bosonic_mac, name) is not None, name
    assert len(set(bosonic_mac.__all__)) == len(bosonic_mac.__all__)


def test_all_lists_every_public_name():
    public = {
        name for name, value in vars(bosonic_mac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= set(bosonic_mac.__all__)


def test_network_names_are_listed_and_served():
    from bosonic_mac import network

    names = dir(bosonic_mac)
    for name in bosonic_mac._NETWORK_NAMES:
        assert name in names
        assert getattr(bosonic_mac, name) is getattr(network, name)
    star = {}
    exec("from bosonic_mac import *", star)
    assert star["mac_network"] is network.mac_network


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bosonic_mac.no_such_name


def test_import_leaves_numpy_out_until_the_oracle_is_used():
    proc = run_python(
        "import sys, bosonic_mac, bosonic_mac.cli\n"
        "before = 'numpy' in sys.modules\n"
        "bosonic_mac.mac_network\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


# Exit codes as at the default inputs: the default asymptotics run has
# diverging probes and exits 4.
WITHOUT_NUMPY = [
    (["rates"], 0),
    (["region", "--encoding", "0,0", "--encoding", "0.3,-0.2"], 0),
    (["asymptotics"], 4),
    (["optimize", "--grid", "9"], 0),
    (["surface", "--grid", "9"], 0),
]


@pytest.mark.parametrize("argv,code", WITHOUT_NUMPY, ids=[a[0] for a, _ in WITHOUT_NUMPY])
def test_subcommand_runs_without_numpy(argv, code, capsys):
    proc = run_python(
        BLOCK_NUMPY
        + "from bosonic_mac import cli\n"
        + f"sys.exit(cli.main({json.dumps(argv)}))\n"
    )
    assert proc.returncode == code, proc.stderr
    assert cli.main(argv) == code
    assert proc.stdout == capsys.readouterr().out


def test_verify_imports_numpy():
    argv = ["verify", "--draws", "10"]
    proc = run_python(
        "import sys\n"
        "from bosonic_mac import cli\n"
        f"code = cli.main({json.dumps(argv)})\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split()[-1] == "True"
    blocked = run_python(BLOCK_NUMPY + f"from bosonic_mac import cli\ncli.main({json.dumps(argv)})\n")
    assert blocked.returncode == 1
    assert "import of numpy halted" in blocked.stderr


#: The three sweeps on two channels, the second the lossless corner whose
#: silent user takes the reduced branch-2 argument, as float.hex.
SWEEP_BITS = """
from dataclasses import astuple
from bosonic_mac import (ChannelParams, Objective, PhotonBudget, global_constraint_scan,
                         optimize_squeezing, squeeze_surface)

def bits(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [bits(v) for v in value]
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    return repr(value)

sweep_bits = []
for params, budget in ((ChannelParams(0.3, 0.85, 0.5), PhotonBudget(2.5, 7.0)),
                       (ChannelParams(1.0, 1.0, 0.0), PhotonBudget(100.0, 0.0))):
    sweep_bits += bits([
        squeeze_surface(params, budget, 33).layers,
        [astuple(optimize_squeezing(params, budget, o, 33)) for o in Objective],
        global_constraint_scan(params, budget.n_a + budget.n_b, 21, 17).to_dict(),
    ])
"""


def test_sweeps_give_the_same_bits_with_and_without_numpy(monkeypatch):
    # Without numpy the sweep kernel runs its cell loop; with numpy loaded,
    # as here, its numpy body.
    import numpy  # noqa: F401

    from bosonic_mac import _core_py

    calls = []
    real = _core_py._rate_columns_numpy
    monkeypatch.setattr(_core_py, "_rate_columns_numpy",
                        lambda *args: calls.append(1) or real(*args))
    here = {}
    exec(SWEEP_BITS, here)
    assert calls
    proc = run_python(BLOCK_NUMPY + SWEEP_BITS + "import json; print(json.dumps(sweep_bits))\n")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == here["sweep_bits"]


def test_the_sweep_kernel_leaves_numpy_unloaded():
    proc = run_python(
        "import sys\n"
        "from bosonic_mac import _kernels\n"
        "_kernels.rate_columns(0.5, 0.9, 1.0, 1.0, 1.0, [0.0, 0.5], [0.0, -0.5])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
