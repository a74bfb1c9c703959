"""What `import wbslab` and each CLI action load, checked in fresh interpreters."""

import subprocess
import sys


def run_python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], check=True)


def test_exact_actions_load_no_numpy():
    # the exact half of the proof and every usage error run without arrays
    code = (
        "import contextlib, io, sys\n"
        "from wbslab.cli import main\n"
        "calls = [\n"
        "    (['schreier', 'count', '15'], 0),\n"
        "    (['cesaro', 'certify', '--subsequence', 'affine:2,0', '--N', '4'], 0),\n"
        "    (['classify', 'calpha', '--points', '5'], 0),\n"
        "    (['pairs', 'find', '--K', '0.5'], 2),\n"
        "    (['classify', 'linf', '--masses', '1,-2'], 2),\n"
        "]\n"
        "for argv, expected in calls:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert main(argv) == expected, argv\n"
        "loaded = {'numpy', 'wbslab.metric', 'wbslab.holder', 'wbslab.embed', 'wbslab.experiments',\n"
        "          'wbslab.samples'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    run_python(code)


def test_package_exports_resolve_lazily():
    code = (
        "import importlib, sys\n"
        "import wbslab\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not [m for m in sys.modules if m.startswith('wbslab.')]\n"
        "assert wbslab.metric is importlib.import_module('wbslab.metric')\n"
        "for name in wbslab.__all__:\n"
        "    module = importlib.import_module('wbslab.' + wbslab._SOURCE[name])\n"
        "    assert getattr(wbslab, name) is getattr(module, name), name\n"
        "from wbslab import validate_metric, SchreierSet, cli\n"
        "assert validate_metric is sys.modules['wbslab.metric'].validate_metric\n"
        "assert set(wbslab.__all__) | {'metric', 'samples', 'cli'} <= set(dir(wbslab))\n"
        "try:\n"
        "    wbslab.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('unknown name resolved')\n"
    )
    run_python(code)
