"""Time the set-up of one run in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py CONFIG.json [--trace | --reference]

Times ``import ehdfl.cli`` (which imports the whole package), then
``load_config`` and ``ExperimentConfig.build_model``, and prints one JSON
object.  With ``--trace`` the load and build run under the span tracer and
the spans' totals are included.  With ``--reference`` the frozen copy in
``perfbench/reference`` is timed instead of ``src``.
"""
import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE / "reference" if "--reference" in sys.argv else _HERE.parent / "src"))


def main(argv) -> int:
    import ehdfl.cli  # noqa: F401
    t_import = time.perf_counter()
    tracer = None
    if "--trace" in argv:
        from run import import_package
        from spans import Tracer
        import_package()
        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    from ehdfl import config
    cfg = config.load_config(argv[1])
    cfg.build_model()
    t2 = time.perf_counter()
    out = {"import_s": t_import - T0, "load_build_s": t2 - t1,
           "total_s": (t_import - T0) + (t2 - t1)}
    if tracer is not None:
        tracer.uninstall()
        totals = {}
        for (_, name), (calls, total, _) in tracer.aggregate().items():
            totals[name] = totals.get(name, 0.0) + total
        out["spans"] = totals
        out["missing"] = tracer.missing
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
