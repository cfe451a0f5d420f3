"""Run one ``stateiso`` CLI invocation under the tracer.

Usage: python3 perfbench/clitrace.py STATS_JSON [CLI ARGS...]

Imports ``stateiso.cli`` (recorded as the frame ``cli.import``), wraps the
package's public functions, calls the click entry point (recorded as
``cli.main``) and writes the tracer's totals and spans to STATS_JSON.  The
exit code and standard output are those of the plain invocation.
"""
import json
import os
import sys

from tracer import Tracer


def main() -> int:
    stats_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    frame = tracer.enter("cli.import")
    import stateiso.cli as cli
    tracer.leave(frame)
    tracer.install()
    code = 0
    frame = tracer.enter("cli.main")
    try:
        cli.main.main(args=args, prog_name="stateiso", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.leave(frame)
        tracer.uninstall()
        out = tracer.export()
        out["spans"] = tracer.spans
        out["pid"] = os.getpid()
        with open(stats_path, "w") as fh:
            json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
