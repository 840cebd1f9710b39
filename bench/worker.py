"""One benchmark process: import the CLI, then run the workload's invocations.

Usage: python worker.py JOB.json

The job file names the mode ("setup" only imports), the CLI argv lists,
whether to trace, and where to write the result. `import singlewell.cli`
comes first, and the moment it returns is read from the system-wide
monotonic clock, so the parent can subtract the time it spawned this
process. The invocations then run one after another through
`singlewell.cli.main(argv)`, in the current directory, as a single client
that waits for each before issuing the next.
"""

import time

import singlewell.cli

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402 - everything after READY is not set-up
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _invoke(argv: list[str]) -> int:
    """Exit code of one CLI call; an exception that escapes main counts as -1."""
    try:
        return singlewell.cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - one failing call must not stop the workload
        traceback.print_exc()
        return -1


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    result = {"ready": READY, "module": singlewell.cli.__file__}
    if job["mode"] == "run":
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        result["exit_codes"] = [_invoke(argv) for argv in job["invocations"]]
        result["done"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            result["trace"] = tracer.dump()
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
