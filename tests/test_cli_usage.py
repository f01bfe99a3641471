"""Usage contract shared by the four command-line entry points.

``python -m repro``, ``python -m repro.serve``, ``python -m repro.analysis``
and ``python -m repro.bench`` all parse with argparse: ``--help`` prints
usage and exits 0, and an unknown flag is a usage error with exit 2.
"""

import importlib

import pytest

ENTRY_POINTS = [
    ("repro", "repro.cli"),
    ("repro.serve", "repro.serve.__main__"),
    ("repro.analysis", "repro.analysis.cli"),
    ("repro.bench", "repro.bench"),
]


def run_main(module_name, argv):
    main = importlib.import_module(module_name).main
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


@pytest.mark.parametrize(
    "module_name", [m for _, m in ENTRY_POINTS], ids=[p for p, _ in ENTRY_POINTS]
)
class TestUsage:
    def test_help_exits_zero(self, module_name, capsys):
        assert run_main(module_name, ["--help"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_flag_exits_two(self, module_name, capsys):
        assert run_main(module_name, ["--no-such-flag"]) == 2
        assert "usage:" in capsys.readouterr().err
