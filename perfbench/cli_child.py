"""Traced stand-in for ``python -m okada.cli``.

Usage: ``python cli_child.py REPORT_PATH [okada arguments...]``.  Times
``import okada.cli`` and ``okada.cli.main(argv)``, traces the layers in
between, writes a JSON report to REPORT_PATH and exits like the real
entry point (an uncaught exception prints a traceback and exits 1).
"""

import sys
import time

T0 = time.perf_counter()

import json  # noqa: E402
import traceback  # noqa: E402


def main() -> int:
    report_path, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    import okada.cli

    import_s = time.perf_counter() - t
    import spans  # this script's directory is first on sys.path

    caches = spans.lru_caches()
    tracer = spans.Tracer()
    tracer.install()
    t = time.perf_counter()
    try:
        code = okada.cli.main(argv)
    except Exception:  # mirror the real entry point: traceback, exit 1
        traceback.print_exc()
        code = 1
    main_s = time.perf_counter() - t
    tracer.uninstall()
    sys.stdout.flush()
    report = {
        "t0": T0,
        "import_s": import_s,
        "main_s": main_s,
        "summary": tracer.summary(),
        "caches": spans.cache_stats(caches),
        "spans": tracer.as_dict(),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
