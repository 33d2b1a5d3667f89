"""Run one exchgraph CLI command in this (fresh) interpreter.

    python3 child.py SRC_DIR SIDECAR TRACE -- <exchgraph CLI arguments>

Imports ``exchgraph.cli`` from SRC_DIR, timing the import in wall and CPU
time, optionally binds the span recorder, calls ``exchgraph.cli.main`` and
exits with its code.  The import times, and with TRACE=1 the folded spans,
go to the SIDECAR JSON file, so the command's own outputs are untouched.
"""

import json
import os
import sys
import time


def main() -> int:
    src, sidecar, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    argv = sys.argv[5:]
    sys.path.insert(0, src)
    start, start_cpu = time.perf_counter(), time.process_time()
    import exchgraph.cli
    import_cpu_s = time.process_time() - start_cpu
    import_s = time.perf_counter() - start
    where = os.path.realpath(exchgraph.cli.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        print(f"child: exchgraph imported from {where}, not {src}", file=sys.stderr)
        return 1
    recorder = None
    if trace:
        from tracer import Recorder
        recorder = Recorder()
        recorder.install()
    try:
        code = exchgraph.cli.main(argv)
    except SystemExit as exc:   # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    payload = {"import_s": import_s, "import_cpu_s": import_cpu_s}
    if recorder is not None:
        payload["spans"] = recorder.totals()
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
