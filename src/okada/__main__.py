"""``python -m okada`` and the ``okada`` script.

Both run :mod:`okada.cli` as the main program rather than importing it,
so that a call loads only the modules its subcommand uses.
"""

import runpy


def run() -> None:
    runpy.run_module("okada.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    run()
