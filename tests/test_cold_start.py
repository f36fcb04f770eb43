"""What a fresh interpreter loads: `import chebcone.cli` must not pull in
`dataclasses`, the verification suites or the Laurent oracle, which only
`verify` imports, nor `array`, `decimal` or `numpy`, which no product needs,
nor `random`, which only the suites draw with.  The Laurent oracle loads no
other chebcone module.  The package root defines only `__version__`, so
importing it loads no submodule.

The import tests run in subprocesses because the other test modules have
already imported the suites into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_cli_import_loads_neither_dataclasses_nor_suites():
    proc = _python("-c", "import sys, chebcone.cli; "
                   "print(sorted({'dataclasses', 'chebcone.suites', 'chebcone.laurent_oracle'}"
                   " & set(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_import_loads_no_array_decimal_or_numpy():
    # the word-packed products need only struct and itertools
    proc = _python("-c", "import sys, chebcone.cli; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                   "{'array', 'decimal', '_decimal', '_pydecimal', 'numpy'}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# -S skips the site module: a site .pth file may import modules of its own
# before chebcone runs (one that imports tempfile loads random), and these
# two tests are about what chebcone itself imports.

def test_cli_import_loads_no_random():
    proc = _python("-S", "-c", "import sys, chebcone.cli; print('random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_oracle_import_loads_no_other_chebcone_module():
    proc = _python("-S", "-c", "import sys, chebcone.laurent_oracle; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'chebcone'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['chebcone', 'chebcone.laurent_oracle']\n"


def test_verify_imports_the_suites_on_demand():
    proc = _python("-m", "chebcone.cli", "verify", "--suite", "lemmas")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("verify: 4 checks, 4 passed, 0 failed "
                                "(suites=lemmas; n=auto; trials=auto; seed=0)\n")



def test_package_root_defines_only_version_and_loads_no_submodule():
    proc = _python("-c", "import sys, chebcone; "
                   "print(sorted(m for m in sys.modules if m.startswith('chebcone.')), "
                   "sorted(n for n in vars(chebcone) if not n.startswith('__')), "
                   "chebcone.__version__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] [] 0.1.0\n"
