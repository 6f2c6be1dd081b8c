"""One benchmark operation in a fresh interpreter.

    python3 perfbench/child.py --src SRC --meta META [--trace SPANS] [--probe] -- ARGS...

Imports ``weddle`` from SRC, then calls ``weddle.cli.main(ARGS)``, the
function behind the ``weddle`` command.  ``--probe`` stops after the
import, to measure set-up alone.  ``--trace`` installs the span recorder
of ``tracer.py`` before the call and writes its spans to SPANS afterwards.
META receives ``{"ready": t}`` as soon as ``weddle`` is imported, ``t`` on
the system-wide monotonic clock that the parent process also reads.
"""

import argparse
import json
import os
import sys
import time


def main(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--meta", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("cli", nargs=argparse.REMAINDER)
    opts = ap.parse_args(argv)
    cli_args = opts.cli[1:] if opts.cli[:1] == ["--"] else opts.cli

    sys.path.insert(0, opts.src)
    import weddle
    import weddle.cli
    if os.path.dirname(os.path.abspath(weddle.__file__)) != \
            os.path.join(os.path.abspath(opts.src), "weddle"):
        sys.stderr.write("weddle imported from %s, not from %s\n"
                         % (weddle.__file__, opts.src))
        return 3
    ready = time.monotonic()
    with open(opts.meta, "w") as fh:
        json.dump({"ready": ready}, fh)

    recorder = None
    if opts.trace:
        from tracer import Recorder
        recorder = Recorder()
        recorder.install(weddle)
    try:
        code = 0 if opts.probe else weddle.cli.main(cli_args)
    finally:
        if recorder is not None:
            recorder.dump(opts.trace)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
