"""Child process of the benchmark: one nlsdamp CLI run, with probes attached.

Usage: python3 probe.py <result.json> <0|1 trace> <cli args...>

Imports `nlsdamp.cli` from the PYTHONPATH the benchmark sets, attaches the
probes, calls `nlsdamp.cli.main` with the CLI arguments, and writes what it
measured to <result.json>. Its exit code is the CLI's.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback

from tracer import Probe, clock


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = clock()
    import nlsdamp.cli

    import_s = clock() - t0
    probe = Probe(trace)
    probe.attach()
    try:
        code = nlsdamp.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    result = {
        "import_s": import_s,
        "first_sink": probe.first_sink,
        "steps": probe.steps,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "missing_hooks": probe.missing,
        "layers": probe.layer_metrics() if trace else {},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
