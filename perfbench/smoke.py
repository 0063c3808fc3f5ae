"""Fast self-test of the benchmark (about a minute).

    python3 perfbench/smoke.py

Runs every workload once timed and once traced at tiny sizes and asserts
that each run prints every metric BENCHMARK.json names, with its unit, that
every output passes its checks, and that tracing leaves no wrapper behind.
"""

import json
import sys

import run
from workloads import WORKLOADS


def _bindings(sl):
    """Identity of every function reachable as a package attribute."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith(sl.__name__):
            continue
        for attr, value in vars(mod).items():
            if callable(value):
                out[(name, attr)] = id(value)
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    out[(name, attr, meth)] = id(fn)
    return out


def main():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    want = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    sl = run.import_package()
    before = _bindings(sl)
    for name in WORKLOADS:
        for trace in (False, True):
            summary, details = run.run(name, seconds=0.3, trace=trace,
                                       size="tiny", setup_repeats=1)
            got = {k: v["unit"] for k, v in summary["metrics"].items()}
            assert got == want[trace], (name, trace, set(got) ^ set(want[trace]))
            assert summary["correct"] and summary["failed"] == 0, (name, trace)
            assert not details.get("absent"), details.get("absent")
            assert _bindings(sl) == before, f"{name}: a wrapper was left behind"
            print(f"{name} trace={int(trace)}: {summary['attempted']} trials, "
                  f"{len(got)} metrics")
    assert sl.verify.convolve is sl.conv.convolve
    assert sl.cli.count_functional is sl.conv.count_functional
    print("smoke: ok")


if __name__ == "__main__":
    main()
