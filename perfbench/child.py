"""One benchmark sample in a fresh process.

Usage: python3 perfbench/child.py PLAN_JSON

Run from the root of a bglb checkout.  The plan names the instances, the
check list, the draw seeds and a work directory.  The sample builds the
instances with `bglb.generators` and writes them as instance files (set-up
ends here), then runs `bglb verify` on those files through `bglb.cli.main`
exactly as the command line does, writing the report into the work
directory.  Timestamps, peak memory and CPU time go to result.json in the
work directory; with "trace" set, the spans go to spans.json.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time


def main(plan_path: str) -> int:
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import numpy

    import bglb
    if not os.path.abspath(bglb.__file__).startswith(src + os.sep):
        print("perfbench: bglb imported from %s, not from %s" % (bglb.__file__, src),
              file=sys.stderr)
        return 2
    from bglb import cli, complexes, generators, util

    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    os.chdir(plan["workdir"])
    suite = dict(generators.default_suite_specs())
    files = []
    for name, spec in plan["instances"]:
        gamma = generators.build(generators.FamilySpec.from_dict(spec) if spec else suite[name])
        with open(name + ".json", "w") as fh:
            json.dump(complexes.to_dict(gamma, name=name), fh)
        files.append(name + ".json")
    result = {"t_ready": time.monotonic()}

    if not plan["setup_only"]:
        argv = ["verify", "--checks", plan["checks"],
                "--seeds", ",".join(str(s) for s in plan["seeds"]), "--out", "report.json"]
        for path in files:
            argv += ["--in", path]
        result["exit_code"] = cli.main(argv)
        result["t_done"] = time.monotonic()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        peak_rss_mb=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        threads=util.thread_count(),
        cores=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        instances=files,
    )
    if tracer is not None:
        tracer.dump("spans.json")
    with open("result.json", "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
