"""Start-up cost: each command loads only the layers it runs.

Importing waxsim loads none of its modules; the scalar commands (``rates``,
``expand``, ``feasibility``, ``--print-config``) load no numpy and no
sampling, inference or oracle layer, and at its defaults no command but
``campaign`` loads scipy. Each check runs in a fresh interpreter, since the
pytest process itself has numpy and scipy loaded. The checks are on ``sys.modules``, not on timings.
"""
import json
import os
import subprocess
import sys

import pytest

import waxsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(waxsim.__file__)))
SCIPY_MODULES = ("scipy.stats", "scipy.interpolate", "scipy.special")
LAYERS = ("waxsim.protocol", "waxsim.inference", "waxsim.validation")


def loaded_after(code: str, modules: tuple[str, ...] = SCIPY_MODULES) -> list[str]:
    """The ``modules`` in sys.modules after running ``code`` in a new process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    script = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_main(*argv: str) -> str:
    """Code that runs ``cli.main(argv)`` into the null device."""
    return (
        "import os\n"
        "from waxsim.cli import main\n"
        f"assert main([*{list(argv)!r}, '-o', os.devnull]) == 0\n"
    )


def test_import_cli_loads_no_scipy():
    assert loaded_after("import waxsim.cli") == []


def test_import_waxsim_loads_no_module():
    # dir() lists every public name before any is resolved, and loads nothing
    code = (
        "import sys, waxsim\n"
        "assert set(waxsim.__all__) <= set(dir(waxsim))\n"
        "assert sorted(m for m in sys.modules if 'waxsim' in m) == ['waxsim']\n"
    )
    assert loaded_after(code, ("numpy",)) == []


@pytest.mark.parametrize("command", ["rates", "expand", "feasibility"])
def test_scalar_commands_load_no_numpy(command):
    assert loaded_after(run_main(command), ("numpy", *LAYERS)) == []


def test_print_config_loads_no_numpy():
    code = "".join(
        run_main(command, "--print-config")
        for command in ("rates", "expand", "campaign", "bound", "feasibility")
    )
    assert loaded_after(code, ("numpy", *LAYERS)) == []


def test_expand_loads_no_sampling_inference_or_oracle():
    # with the collapse channel on, which adds the a/3 check on the widths
    code = run_main("expand", "--csl", "--csl.lambda_hz", "1e-8")
    assert loaded_after(code, ("numpy", *LAYERS)) == []


def test_bound_without_oracle_check_loads_no_oracle():
    loaded = loaded_after(run_main("bound"), (*LAYERS, *SCIPY_MODULES))
    assert loaded == ["waxsim.protocol", "waxsim.inference"]


def test_inference_loads_protocol():
    # perfbench/tracing.py hooks run_campaign only if protocol is loaded when it installs
    assert loaded_after("import waxsim.inference", LAYERS) == [
        "waxsim.protocol", "waxsim.inference"
    ]


@pytest.mark.parametrize("command", ["rates", "expand", "bound", "feasibility"])
def test_numpy_only_commands_load_no_scipy(command):
    assert loaded_after(run_main(command)) == []


def test_campaign_loads_only_scipy_special():
    code = run_main("campaign", "--campaign.runs_per_time", "10")
    assert loaded_after(code) == ["scipy.special"]


def test_serial_commands_load_no_process_pool():
    # only a pooled --dump-samples loads multiprocessing
    dump = run_main("campaign", "--dump-samples", "--campaign.runs_per_time", "10")
    code = dump + run_main("bound")
    assert loaded_after(code, ("multiprocessing", "concurrent.futures.process")) == []


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
    assert "scipy.interpolate" in loaded_after(code)


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        waxsim.no_such_name


def test_every_public_name_resolves():
    assert [name for name in waxsim.__all__ if not hasattr(waxsim, name)] == []

