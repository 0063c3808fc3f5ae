"""Record the reference outputs that check.py compares trials against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

For each workload and each seed in SEEDS (the acceptance-test default and
one held-out seed) this runs the first ROUNDS rounds untimed, requires every
trial to pass the independent checks, and writes the fields named in the
workload's ``ref_fields`` to ``perfbench/reference/<workload>.json``.  Run it
only at a commit whose outputs are known to be right: the file then pins
those outputs for every later commit.
"""

import json
import sys

import check
import run
from workloads import WORKLOADS

HELD_OUT_SEED = 2718
# rounds recorded per seed: more than a 20-second run completes at the
# commit that recorded them
ROUNDS = {"sweep-count": 160, "properties": 70, "transfer": 70,
          "adversary": 30}


def record(name):
    sl = run.import_package()
    workload = WORKLOADS[name]("full")
    workload.prepare(sl)
    # the old file must not judge the outputs that replace it
    path = check.REFERENCE_DIR / f"{name}.json"
    path.unlink(missing_ok=True)
    seeds = {}
    for seed in (workload.default_seed, HELD_OUT_SEED):
        trials, _, _, _ = run.run_rounds(workload, sl, seed, 0,
                                      rounds=ROUNDS[name])
        failed, _ = run.check_trials(workload, trials, seed)
        if failed:
            raise SystemExit(f"{name} seed {seed}: {failed} trials failed; "
                             "not recording")
        seeds[str(seed)] = {
            t.key: {f: t.out[f] for f in workload.ref_fields if f in t.out}
            for t in trials}
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"workload": name, "rounds": ROUNDS[name],
                   "machine": run.machine_info(), "tolerance": check.TOLERANCE,
                   "seeds": seeds}, fh, indent=1, sort_keys=True)
    print(f"wrote {path}")


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or list(WORKLOADS):
        record(workload_name)
