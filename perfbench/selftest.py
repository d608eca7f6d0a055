#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs one short pass at the tiny
self-test geometry, untraced and traced, and checks that:

  * the run exits 0 and its last line is the JSON result, with every check
    passed and at least one call or job attempted;
  * the metrics are exactly the end-to-end (untraced) or per-layer (traced)
    metrics BENCHMARK.json names, each with its unit, every value a finite
    number and every end-to-end value non-zero;
  * the traced run wrote a Chrome trace-event file;
  * with --corrupt (one result corrupted before it is checked) the output
    check trips: "correct" is false and at least one unit failed.

Exits 0 when everything holds, 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "0.5"


def run(workload, trace, corrupt=False):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED),
               "--seconds", SECONDS, "--trace", str(trace), "--tiny"]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, result, done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            code, result, err = run(workload, trace)
            tag = "%s trace=%d" % (workload, trace)
            expect(code == 0 and result is not None,
                   "%s: exits 0 with a JSON last line%s" %
                   (tag, "" if code == 0 else " (stderr: %s)" % err[-500:]))
            if result is None:
                continue
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"],
                   "%s: result has exactly the four keys" % tag)
            expect(result.get("correct") is True and result.get("failed") == 0
                   and result.get("attempted", 0) >= 1,
                   "%s: every output check passed" % tag)
            metrics = result.get("metrics", {})
            expect(set(metrics) == set(wanted),
                   "%s: prints every %s metric and no other (missing %s, "
                   "extra %s)" % (tag, key, sorted(set(wanted) - set(metrics)),
                                  sorted(set(metrics) - set(wanted))))
            for name, unit in wanted.items():
                m = metrics.get(name)
                if m is None:
                    continue
                value = m.get("value")
                finite = isinstance(value, (int, float)) and math.isfinite(value)
                expect(m.get("unit") == unit and finite and
                       (trace == 1 or value != 0),
                       "%s: %s = %r %s" % (tag, name, value, m.get("unit")))
            if trace:
                path = os.path.join(ROOT, ".bench_build", "perfbench",
                                    "traces", "%s-seed%d.json" % (workload, SEED))
                try:
                    with open(path) as f:
                        events = json.load(f)["traceEvents"]
                    expect(len(events) > 1,
                           "%s: trace file has %d events" % (tag, len(events)))
                except (OSError, ValueError, KeyError) as e:
                    expect(False, "%s: trace file readable (%s)" % (tag, e))

        code, result, _ = run(workload, 0, corrupt=True)
        expect(code == 0 and result is not None and
               result.get("correct") is False and result.get("failed", 0) >= 1,
               "%s: a corrupted result copy trips the output check" % workload)

    print("selftest: %s" % ("PASS" if not failures else
                            "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
