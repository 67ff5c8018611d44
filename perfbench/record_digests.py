"""Record the sha256 of every artifact the benchmark's CLI jobs write.

    python3 perfbench/record_digests.py

Run at the commit whose artifacts are the reference.  Jobs whose output
does not depend on the seed are recorded once under "fixed"; seeded jobs
(project, verify) are recorded for each seed in SEEDS under "seeded".  The
benchmark then reports cli.artifacts_changed: how many artifacts of a traced pass
differ from these digests (artifacts with no recorded digest are not
compared, and cli.artifacts_compared says how many were).
"""
import json
import os
import sys

import run
import workloads as wl


# Small seeds (the documented runs use 1-10) and the held-out seed.
SEEDS = list(range(32)) + [wl.HELD_OUT_SEED]


def main():
    run.import_rlimited()
    doc = {"fixed": {}, "seeded": {}}
    for seed in SEEDS:
        for setup in wl.WORKLOADS.values():
            work = wl.fresh_dir(os.path.join(run.WORK, "digests"))
            for job in setup(seed, work):
                if job.outdir is None or (seed != SEEDS[0] and not job.seeded):
                    continue
                rc = job.run()
                if rc != 0:
                    sys.exit("%s exited %r at seed %d" % (job.name, rc, seed))
                into = (doc["seeded"].setdefault(str(seed), {}) if job.seeded
                        else doc["fixed"])
                into.update(wl.job_digests(job))
                for f in os.listdir(job.outdir):
                    os.remove(os.path.join(job.outdir, f))
        print("seed %d recorded" % seed, flush=True)
    with open(wl.DIGESTS_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
