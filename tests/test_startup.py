"""Start-up cost: each command loads only the layers it runs.

Importing waxsim loads none of its modules; the scalar commands (``rates``,
``expand``, ``feasibility``, ``--print-config``) load no numpy and no
sampling, inference or oracle layer, and at its defaults no command but
``campaign`` loads scipy. Each check runs in a fresh interpreter, since the
pytest process itself has numpy and scipy loaded. The checks are on ``sys.modules``, not on timings.
The interpreters are independent, so the ``loaded`` fixture runs them
concurrently and each test reads its own.
"""
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import waxsim

SRC = os.path.dirname(os.path.dirname(os.path.abspath(waxsim.__file__)))
SCIPY_MODULES = ("scipy.stats", "scipy.interpolate", "scipy.special")
LAYERS = ("waxsim.protocol", "waxsim.inference", "waxsim.validation")
FORMATTER = "waxsim._dumpfmt"


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


DUMP = ("campaign", "--dump-samples", "--campaign.runs_per_time", "10")
SCALAR_COMMANDS = ("rates", "expand", "feasibility")
NUMPY_ONLY_COMMANDS = ("rates", "expand", "bound", "feasibility")

# probe name -> (code, modules) of one fresh interpreter
PROBES = {
    "import cli": ("import waxsim.cli", SCIPY_MODULES),
    # dir() lists every public name before any is resolved, and loads nothing
    "import waxsim": (
        "import sys, waxsim\n"
        "assert set(waxsim.__all__) <= set(dir(waxsim))\n"
        "assert sorted(m for m in sys.modules if 'waxsim' in m) == ['waxsim']\n",
        ("numpy",),
    ),
    **{
        f"scalar {command}": (run_main(command), ("numpy", *LAYERS))
        for command in SCALAR_COMMANDS
    },
    "print-config": (
        "".join(
            run_main(command, "--print-config")
            for command in ("rates", "expand", "campaign", "bound", "feasibility")
        ),
        ("numpy", *LAYERS),
    ),
    # at a nonzero collapse rate, which adds the a/3 check on the widths
    "expand with csl": (
        run_main("expand", "--csl.lambda_hz", "1e-8"),
        ("numpy", *LAYERS),
    ),
    "bound": (run_main("bound"), (*LAYERS, *SCIPY_MODULES)),
    "bound oracle-check": (run_main("bound", "--oracle-check", "--oracle-seeds", "2"), LAYERS),
    "import inference": ("import waxsim.inference", LAYERS),
    **{
        f"scipy {command}": (run_main(command), SCIPY_MODULES)
        for command in NUMPY_ONLY_COMMANDS
    },
    "campaign": (run_main("campaign", "--campaign.runs_per_time", "10"), SCIPY_MODULES),
    # only --dump-samples formats floats with the array kernel
    "formatter": (
        run_main("rates") + run_main("campaign", "--campaign.runs_per_time", "10"),
        (FORMATTER,),
    ),
    "dump": (run_main(*DUMP), (FORMATTER,)),
    # the power-of-ten and digit tables are built on first use, not on import
    "import formatter": (
        "from waxsim import _dumpfmt\n"
        "assert _dumpfmt._powers.cache_info().currsize == 0\n"
        "assert _dumpfmt._tables.cache_info().currsize == 0\n",
        (FORMATTER,),
    ),
    # no command loads multiprocessing; a dump formats its tiles in this
    # process whatever --workers says
    "serial commands": (
        run_main(*DUMP)
        + run_main(*DUMP, "--workers", "2")
        + run_main("bound"),
        ("multiprocessing", "concurrent.futures.process"),
    ),
    # the oracles import at once; scipy.interpolate loads on the first call
    "quadrature oracle": (
        "import sys\n"
        "import waxsim\n"
        "from waxsim import csl_sphere_factor_bruteforce\n"
        "from waxsim.validation import csl_sphere_factor_bruteforce as direct\n"
        "assert waxsim.csl_sphere_factor_bruteforce is csl_sphere_factor_bruteforce is direct\n"
        "assert 'csl_sphere_factor_bruteforce' in waxsim.__all__\n"
        "assert 'scipy.interpolate' not in sys.modules\n"
        "csl_sphere_factor_bruteforce(1.0)\n",
        SCIPY_MODULES,
    ),
}


@pytest.fixture(scope="module")
def loaded():
    """``loaded(name)``: :func:`loaded_after` of probe ``name``.

    Every probe starts when the first test asks for one, at most two per
    CPU at a time; a probe's failure fails only the tests that read it.
    """
    workers = min(len(PROBES), 2 * (os.cpu_count() or 1))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {name: pool.submit(loaded_after, *probe) for name, probe in PROBES.items()}
        yield lambda name: futures[name].result()


def test_import_cli_loads_no_scipy(loaded):
    assert loaded("import cli") == []


def test_import_waxsim_loads_no_module(loaded):
    assert loaded("import waxsim") == []


@pytest.mark.parametrize("command", SCALAR_COMMANDS)
def test_scalar_commands_load_no_numpy(loaded, command):
    assert loaded(f"scalar {command}") == []


def test_print_config_loads_no_numpy(loaded):
    assert loaded("print-config") == []


def test_expand_loads_no_sampling_inference_or_oracle(loaded):
    assert loaded("expand with csl") == []


def test_bound_without_oracle_check_loads_no_oracle(loaded):
    assert loaded("bound") == ["waxsim.protocol", "waxsim.inference"]


def test_oracle_check_loads_no_reference_oracle(loaded):
    # the command's oracle is the sweep in inference; validation is the tests'
    assert loaded("bound oracle-check") == ["waxsim.protocol", "waxsim.inference"]


def test_inference_loads_protocol(loaded):
    # perfbench/tracing.py hooks run_campaign only if protocol is loaded when it installs
    assert loaded("import inference") == ["waxsim.protocol", "waxsim.inference"]


@pytest.mark.parametrize("command", NUMPY_ONLY_COMMANDS)
def test_numpy_only_commands_load_no_scipy(loaded, command):
    assert loaded(f"scipy {command}") == []


def test_campaign_loads_only_scipy_special(loaded):
    assert loaded("campaign") == ["scipy.special"]


def test_only_the_dump_loads_the_formatter(loaded):
    assert loaded("formatter") == []
    assert loaded("dump") == [FORMATTER]


def test_importing_the_formatter_builds_no_table(loaded):
    assert loaded("import formatter") == [FORMATTER]


def test_serial_commands_load_no_process_pool(loaded):
    assert loaded("serial commands") == []


def test_quadrature_oracle_resolves_lazily(loaded):
    assert "scipy.interpolate" in loaded("quadrature oracle")


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        waxsim.no_such_name


def test_power_oracle_lives_in_validation():
    from waxsim import validation

    assert waxsim.detection_power_mc is validation.detection_power_mc


def test_every_public_name_resolves():
    assert [name for name in waxsim.__all__ if not hasattr(waxsim, name)] == []
