"""Run one loghilb CLI job in a fresh process, as the ``loghilb`` script does.

Usage: ``python3 bench/job.py INFO_PATH JOB_ID TRACE -- CLI_ARGS...``

The CLI receives only CLI_ARGS.  INFO_PATH receives JSON with the
``time.monotonic()`` reading taken once ``loghilb.cli`` is imported (the
parent subtracts its own reading at spawn to get the set-up time) and,
when TRACE is 1, the per-layer totals of the job's spans.
"""

import json
import sys
import time


def main() -> int:
    info_path, job_id, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[sys.argv.index("--") + 1:]
    from loghilb import cli

    info = {"imported": time.monotonic()}
    with open(info_path, "w", encoding="utf-8") as fh:
        json.dump(info, fh)
    tracer = None
    if trace:
        import spans

        tracer = spans.install(job_id)
    code = cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        info["layers"] = tracer.summary()
        with open(info_path, "w", encoding="utf-8") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
