"""Start-up cost: importing waxsim and running numpy-only commands load no scipy.

Each check runs in a fresh interpreter, since the pytest process itself has
scipy loaded. The checks are on ``sys.modules``, not on timings.
"""
import json
import os
import subprocess
import sys

import pytest

import waxsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(waxsim.__file__)))
SCIPY_MODULES = ("scipy.stats", "scipy.interpolate", "scipy.special")


def scipy_loaded_after(code: str) -> list[str]:
    """The SCIPY_MODULES in sys.modules after running ``code`` in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {SCIPY_MODULES!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_cli_loads_no_scipy():
    assert scipy_loaded_after("import waxsim.cli") == []


@pytest.mark.parametrize("command", ["rates", "expand", "bound", "feasibility"])
def test_numpy_only_commands_load_no_scipy(command):
    code = (
        "import os\n"
        "from waxsim.cli import main\n"
        f"assert main([{command!r}, '-o', os.devnull]) == 0\n"
    )
    assert scipy_loaded_after(code) == []


def test_campaign_loads_only_scipy_special():
    code = (
        "import os\n"
        "from waxsim.cli import main\n"
        "assert main(['campaign', '--campaign.runs_per_time', '10', '-o', os.devnull]) == 0\n"
    )
    assert scipy_loaded_after(code) == ["scipy.special"]


def test_quadrature_oracle_resolves_lazily():
    # the oracles import at once; scipy.interpolate loads on the first call
    code = (
        "import sys\n"
        "import waxsim\n"
        "from waxsim import csl_sphere_factor_bruteforce\n"
        "from waxsim.validation import csl_sphere_factor_bruteforce as direct\n"
        "assert waxsim.csl_sphere_factor_bruteforce is csl_sphere_factor_bruteforce is direct\n"
        "assert 'csl_sphere_factor_bruteforce' in waxsim.__all__\n"
        "assert 'scipy.interpolate' not in sys.modules\n"
        "csl_sphere_factor_bruteforce(1.0)\n"
    )
    assert "scipy.interpolate" in scipy_loaded_after(code)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        waxsim.no_such_name


def test_every_public_name_resolves():
    assert [name for name in waxsim.__all__ if not hasattr(waxsim, name)] == []
