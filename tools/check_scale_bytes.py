#!/usr/bin/env python3
"""CI gate for anti-entropy byte cost at scale.

Reads the committed ``BENCH_scale.json`` (produced by bench/scale_limits)
and enforces two properties on its rows, all of them digest anti-entropy:

1. **Byte ceiling.** Every row, in the baseline and in a ``--fresh``
   report, must cost at most CEILING bytes per node per round. The ceiling
   is the last committed full-view refresh cost at 500 nodes (6778.2
   B/node/round) divided by the 5x floor the full/digest ratio gate used to
   enforce, so it is exactly as strict as that gate was.

2. **Byte creep.** Given a freshly measured report (``--fresh``), every
   digest size present in both files must stay within CREEP_TOLERANCE of
   the committed baseline's bytes/node/round. The sims are deterministic,
   so an unchanged protocol reproduces the baseline exactly; the tolerance
   only absorbs intentional small wire-format shifts. Larger regressions
   require regenerating the baseline deliberately.

Usage:
  tools/check_scale_bytes.py BENCH_scale.json
  tools/check_scale_bytes.py --fresh scale-ci.json BENCH_scale.json
  tools/check_scale_bytes.py --selftest

Exit codes: 0 ok, 1 gate failure, 2 usage/malformed input.
"""

import json
import sys

CEILING = 6778.2 / 5    # = 1355.64 B/node/round, any digest row
CREEP_TOLERANCE = 0.25  # fresh digest bytes may exceed baseline by <= 25%

BYTES_KEY = "anti_entropy_bytes_per_node_per_round"


def digest_rows(report):
    """{nodes: bytes_per_node_per_round} of a scale report's rows."""
    out = {}
    for row in report.get("results", []):
        try:
            nodes = int(row["nodes"])
            cost = float(row[BYTES_KEY])
        except (KeyError, TypeError, ValueError):
            continue
        out[nodes] = cost
    return out


def check_ceiling(rows, label):
    if not rows:
        print(f"check_scale_bytes: {label} has no rows",
              file=sys.stderr)
        return 2
    status = 0
    for nodes in sorted(rows):
        verdict = "ok" if rows[nodes] <= CEILING else "FAIL"
        print(f"check_scale_bytes: {verdict} — {label} digest @ {nodes} "
              f"nodes: {rows[nodes]:.1f} B/node/round (ceiling "
              f"{CEILING:.1f})")
        if rows[nodes] > CEILING:
            status = 1
    return status


def check_creep(base, new):
    common = sorted(set(base) & set(new))
    if not common:
        print("check_scale_bytes: fresh report shares no digest sizes with "
              "the baseline", file=sys.stderr)
        return 2
    status = 0
    for nodes in common:
        allowed = base[nodes] * (1.0 + CREEP_TOLERANCE)
        verdict = "ok" if new[nodes] <= allowed else "FAIL"
        print(f"check_scale_bytes: {verdict} — digest @ {nodes} nodes: "
              f"{new[nodes]:.1f} B/node/round vs baseline {base[nodes]:.1f} "
              f"(allowed {allowed:.1f})")
        if new[nodes] > allowed:
            status = 1
    return status


def run(baseline_report, fresh_report):
    baseline = digest_rows(baseline_report)
    status = check_ceiling(baseline, "baseline")
    if fresh_report is not None:
        fresh = digest_rows(fresh_report)
        status = max(status, check_ceiling(fresh, "fresh"),
                     check_creep(baseline, fresh))
    return status


def selftest():
    def report(rows):
        return {"results": [
            {"nodes": n, BYTES_KEY: b} for n, b in rows
        ]}

    good = report([(100, 30.0), (1000, 25.0), (5000, 25.0)])
    heavy = report([(100, 30.0), (1000, 1355.7)])
    at_ceiling = report([(1000, 1355.6)])
    crept = report([(100, 30.0), (1000, 40.0)])
    flat = report([(100, 30.0), (1000, 25.0)])

    cases = [
        (good, None, 0),
        (heavy, None, 1),         # 1355.7 > 6778.2 / 5 at 1000 nodes
        (at_ceiling, None, 0),
        (good, flat, 0),          # creep within tolerance
        (good, crept, 1),         # 40 > 25 * 1.25 at 1000 nodes
        (heavy, heavy, 1),        # over the ceiling in both reports
        (at_ceiling, heavy, 1),   # fresh over the ceiling
        ({"results": []}, None, 2),
        (good, {"results": []}, 2),
    ]
    for baseline, fresh, expected in cases:
        got = run(baseline, fresh)
        if got != expected:
            print(f"selftest FAIL: expected exit {expected}, got {got}",
                  file=sys.stderr)
            return 1
    print("check_scale_bytes: selftest ok")
    return 0


def main(argv):
    args = argv[1:]
    if args == ["--selftest"]:
        return selftest()
    fresh_path = None
    if len(args) >= 2 and args[0] == "--fresh":
        fresh_path = args[1]
        args = args[2:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(args[0], "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        fresh = None
        if fresh_path is not None:
            with open(fresh_path, "r", encoding="utf-8") as fh:
                fresh = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"check_scale_bytes: {err}", file=sys.stderr)
        return 2
    return run(baseline, fresh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
