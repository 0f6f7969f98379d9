"""The package's public surface, and the modules that importing it and each
subcommand load."""

import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import ptsusy


def test_every_public_name_resolves():
    # each __all__ entry, listed once, is the object its defining module binds
    assert len(set(ptsusy.__all__)) == len(ptsusy.__all__)
    for name in ptsusy.__all__:
        if name == "__version__":
            continue
        obj = getattr(ptsusy, name)
        assert obj.__module__.startswith("ptsusy."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(ptsusy.__all__) <= set(dir(ptsusy))
    with pytest.raises(AttributeError):
        ptsusy.no_such_name


def test_every_submodule_is_an_attribute():
    for info in pkgutil.iter_modules(ptsusy.__path__):
        assert getattr(ptsusy, info.name) is importlib.import_module(f"ptsusy.{info.name}")
        assert info.name in dir(ptsusy)


# Run in a fresh interpreter: the given statements, then print the exit status
# of the subcommand (or null) and the modules loaded, as one JSON line.
PROBE = """
import contextlib, io, json, sys
{block}
import ptsusy
code = None
if {argv!r}:
    from ptsusy.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main({argv!r})
print(json.dumps([code, sorted(k for k, v in sys.modules.items() if v is not None)]))
"""

BASE = {"ptsusy", "ptsusy.cli", "ptsusy.errors", "ptsusy.spectrum"}
# a state is valued by the operator layer, which wavefn binds when it loads
NUMERIC = BASE | {"ptsusy.quadrature", "ptsusy.specfun", "ptsusy.wavefn", "ptsusy.operators"}

# (argv, whether numpy is blocked, the ptsusy modules loaded, numpy modules that stay out)
BUDGETS = {
    "import": ([], False, {"ptsusy"}, ("numpy",)),
    "spectrum-csv": (["spectrum", "--gap-factors"], False, BASE, ("numpy",)),
    "spectrum-json-numpy-blocked": (["spectrum", "--format", "json"], True, BASE, ()),
    "wavefn": (["wavefn", "--n", "1", "--grid", "5"], False, NUMERIC, ()),
    "verify": (["verify", "--n", "1", "--m", "0", "--grid", "21"], False, NUMERIC, ("numpy.random",)),
    "coherent": (
        ["coherent", "--q", "0.5", "--p", "0", "--skip-resolution"],
        False,
        NUMERIC | {"ptsusy.coherent"},
        ("numpy.random",),
    ),
}


@pytest.mark.parametrize("case", BUDGETS)
def test_import_budget(case):
    argv, block, want, absent = BUDGETS[case]
    block_stmt = "sys.modules['numpy'] = None" if block else ""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(block=block_stmt, argv=argv)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == (0 if argv else None)
    assert {k for k in loaded if k == "ptsusy" or k.startswith("ptsusy.")} == want
    assert [k for k in absent if k in loaded] == []


@pytest.mark.parametrize("module", ["ptsusy.wavefn", "ptsusy.operators", "ptsusy.coherent"])
def test_each_layer_of_the_import_cycle_loads_alone(module):
    # wavefn binds operators at its foot and operators imports wavefn at its
    # head: either may load first, and each binds the other.  No table of
    # states is built at import
    probe = (
        f"import {module}, ptsusy.wavefn as w, ptsusy.operators as o; "
        "assert w.operators is o and o.EigenFunction is w.EigenFunction; "
        "assert w.state_table.cache_info().currsize == w.ground_table.cache_info().currsize == 0"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
