"""Run ``repro batch`` in a fresh interpreter, between two calibrations.

Usage: ``python batch_child.py META_JSON WORK_DIR TRACE batch [options]``

The batch arguments go to ``repro.cli.main``, the function behind
``python -m repro batch``, so the answers and the work are the program's
own.  The speed calibrations (see ``speed.py``) run before the first
``import repro.cli`` and after ``main`` returns; their samples and the time
they took go to ``META_JSON``.  With ``TRACE=1`` the layer timer of
``layers.py`` is installed around ``main`` and its numbers go there too,
along with the time of that first ``import repro.cli``.
"""

import json
import sys
from time import perf_counter

import speed


def main(argv):
    meta_path, work_dir, trace, *batch_args = argv
    meter = speed.Meter()
    meter.calibrate()
    start = perf_counter()
    import repro.cli

    import_s = perf_counter() - start
    timer = None
    if trace == "1":
        import layers

        timer = layers.LayerTimer(work_dir)
        timer.install()
    try:
        code = repro.cli.main(batch_args)
    finally:
        if timer is not None:
            timer.restore()
    meter.calibrate()
    meta = meter.as_dict()
    meta.update(import_s=import_s, layers=timer.snapshot() if timer else None)
    with open(meta_path, "w", encoding="utf-8") as handle:
        json.dump(meta, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
