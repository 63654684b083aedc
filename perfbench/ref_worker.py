"""Run jobs on the frozen reference copy of the package, one per request.

Usage: python3 perfbench/ref_worker.py   (requests on stdin, replies on stdout)

Each request is one JSON line ``{"config": path, "kind": ..., "policy": ...}``;
the reply is ``{"seconds": wall time, "error": message or null}``.  The worker
exits at end of input.  ``perfbench/reference/ehdfl`` is a copy of
``src/ehdfl`` taken when the benchmark was defined.  Timing it next to the
current code lets the benchmark divide out the drift in machine speed; see
NOTES.md.
"""
import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "reference"))


def main() -> int:
    import ehdfl.cli  # noqa: F401
    from ehdfl import config, harness
    out = sys.stdout
    for line in sys.stdin:
        req = json.loads(line)
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cfg = config.load_config(req["config"])
                harness.run_experiment(cfg, req["kind"], jobs=1, policy_name=req["policy"])
        except Exception as exc:  # reported to the parent, which fails the run
            error = f"{type(exc).__name__}: {exc}"
        out.write(json.dumps({"seconds": time.perf_counter() - t0, "error": error}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
