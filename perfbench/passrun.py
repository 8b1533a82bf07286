"""One pass of a workload in a fresh interpreter.

    python3 passrun.py SPEC.json

SPEC holds {"src": <dir holding the hypobgk package>, "commands": [argv,
...], "spans": <path or null>, "cal_units": <int>}.  The pass times
`import hypobgk.cli`, then calls hypobgk.cli.main(argv) for each command
in order, in this process.  Before the first command and after each
command it runs cal_units units of reference work (calib.py).  It prints
one JSON object: import seconds, per-command seconds and exit codes, the
pass wall time without the reference work, the reference work's seconds,
peak resident memory and the library facts of this interpreter.  With
"spans" set, the pass runs under the tracer and writes the spans to that
path.  An empty command list only measures the import.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

CRASHED = -1


def _facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version")}


def _call(main, argv: list[str]) -> int:
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else CRASHED
    except Exception:
        traceback.print_exc()
        return CRASHED


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    start = perf_counter()
    import hypobgk.cli
    setup_s = perf_counter() - start
    if Path(hypobgk.cli.__file__).resolve().parent.parent != src:
        print(f"hypobgk imported from {hypobgk.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import calib

    tracer = None
    if spec["spans"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cmd_s, codes = [], []
    try:
        start = perf_counter()
        cal_s = calib.measure(spec["cal_units"]) if spec["commands"] else 0.0
        for i, argv in enumerate(spec["commands"]):
            t0 = perf_counter()
            if tracer is None:
                code = _call(hypobgk.cli.main, argv)
            else:
                code = tracer.run_command(i, _call, hypobgk.cli.main, argv)
            cmd_s.append(perf_counter() - t0)
            codes.append(code)
            cal_s += calib.measure(spec["cal_units"])
        wall_s = perf_counter() - start - cal_s
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.dump(Path(spec["spans"]))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "cmd_s": cmd_s, "codes": codes,
                      "wall_s": wall_s, "cal_s": cal_s,
                      "peak_rss_mb": peak_kib / 1024.0,
                      "facts": _facts()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
