#!/usr/bin/env python3
"""Summarize or compare benchmark results.

  compare.py DIR            one row per workload: every end-to-end metric
                            (median over the runs in DIR), plus the
                            per-layer metrics of traced runs
  compare.py A_DIR B_DIR    B against A: one row per workload and
                            end-to-end metric, marked pass, regress or
                            unresolved, with each side's median and
                            quartiles; then the exactness checks

A directory holds the W.json records mdabt_benchmark writes, at any depth,
so one directory can hold repeated runs (for example DIR/seed1/...,
DIR/seed2/...).  Bounds and directions come from BENCHMARK.json.

Compare mode exits 1 on any regression or exactness failure, 2 if the two
sides were measured on different builds or machines.
"""

import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
# setup_s regresses only if it also worsens by this many seconds: a
# share alone over-reacts on workloads whose set-up takes microseconds.
SETUP_MIN_DELTA_S = 0.05
# Units of per-layer metrics derived from modeled counters.
MODELED_UNITS = ("count", "ratio", "%", "1/kinst")
# Stamp fields that must agree before two sides are compared.
SAME_BUILD = ("build_type", "compiler", "nproc")


def load_runs(directory):
    """Workload name -> list of result records found under directory."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and "end_to_end" in record:
            runs.setdefault(record["workload"], []).append(record)
    if not runs:
        sys.exit(f"compare.py: no result records under {directory}")
    return runs


def spread(values):
    """(median, first quartile, third quartile)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def is_modeled(name, unit):
    """True for a per-layer metric computed from modeled counters only;
    times, probe rates and the bench.* wall-clock estimates are not."""
    return unit in MODELED_UNITS and not name.startswith("bench.")


def values(records, section, name):
    return [r[section][name]["value"] for r in records
            if name in r.get(section, {})]


def fmt(v):
    return f"{v:.6g}"


def show(directory):
    runs = load_runs(directory)
    spec = json.loads(SPEC.read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    header = ["workload", "runs", "fail_frac"] + [
        f"{n} [{units[n]}]" for n in names]
    rows = []
    for workload, records in sorted(runs.items()):
        row = [workload, str(len(records)),
               fmt(max(r["fail_frac"] for r in records))]
        for n in names:
            vs = values(records, "end_to_end", n)
            row.append(fmt(statistics.median(vs)) if vs else "-")
        rows.append(row)
    print_table(header, rows)

    traced = {w: [r for r in rs if r.get("per_layer")]
              for w, rs in runs.items()}
    traced = {w: rs for w, rs in traced.items() if rs}
    if not traced:
        return 0
    layer_units = {}
    for rs in traced.values():
        for r in rs:
            for n, m in r["per_layer"].items():
                layer_units.setdefault(n, m["unit"])
    workloads = sorted(traced)
    print()
    rows = []
    for n, unit in layer_units.items():
        row = [n, unit]
        for w in workloads:
            vs = values(traced[w], "per_layer", n)
            row.append(fmt(statistics.median(vs)) if vs else "-")
        rows.append(row)
    print_table(["layer metric", "unit"] + workloads, rows)
    return 0


def print_table(header, rows):
    widths = [max(len(str(c)) for c in col) for col in zip(header, *rows)]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def check_stamps(a_runs, b_runs):
    stamps = {tuple(r["stamp"][k] for k in SAME_BUILD)
              for runs in (a_runs, b_runs)
              for records in runs.values() for r in records}
    if len(stamps) > 1:
        print("compare.py: runs come from different builds or machines "
              f"({sorted(stamps)}); refusing to compare", file=sys.stderr)
        sys.exit(2)


def compare(a_dir, b_dir):
    a_runs, b_runs = load_runs(a_dir), load_runs(b_dir)
    check_stamps(a_runs, b_runs)
    spec = json.loads(SPEC.read_text())
    header = ["workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "bound", "verdict"]
    rows, bad = [], 0
    for workload in sorted(set(a_runs) & set(b_runs)):
        a, b = a_runs[workload], b_runs[workload]
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            av, bv = values(a, "end_to_end", name), values(b, "end_to_end", name)
            if not av or not bv:
                continue
            (am, aq1, aq3), (bm, bq1, bq3) = spread(av), spread(bv)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (bm - am) / am if am else 0.0
            noise = max((aq3 - aq1) / am if am else 0.0,
                        (bq3 - bq1) / bm if bm else 0.0)
            if worse > bound and not (
                    name == "setup_s" and bm - am < SETUP_MIN_DELTA_S):
                verdict = "regress"
                bad += 1
            elif noise > bound and not (
                    all(sign * (x - y) < 0 for x in bv for y in av)):
                verdict = "unresolved"
            else:
                verdict = "pass"
            rows.append([workload, name, m["unit"],
                         f"{fmt(am)} [{fmt(aq1)}, {fmt(aq3)}]",
                         f"{fmt(bm)} [{fmt(bq1)}, {fmt(bq3)}]",
                         f"{(bm - am) / am * 100 if am else 0.0:+.2f}%",
                         f"{bound * 100:.0f}%", verdict])
        a_fail = max(r["fail_frac"] for r in a)
        b_fail = max(r["fail_frac"] for r in b)
        verdict = "regress" if b_fail > a_fail else "pass"
        bad += verdict == "regress"
        rows.append([workload, "fail_frac", "ratio", fmt(a_fail),
                     fmt(b_fail), "", "any increase", verdict])
    print_table(header, rows)

    # Exactness: on a workload with one client every modeled quantity is
    # a pure function of the inputs, and the seed only reorders them.
    print()
    for workload in sorted(set(a_runs) & set(b_runs)):
        records = a_runs[workload] + b_runs[workload]
        if not all(r["deterministic"] for r in records):
            print(f"{workload}: not deterministic (concurrent clients); "
                  "counts not required to match")
            continue
        differing = [k for k in records[0]["counts"]
                     if len({r["counts"].get(k) for r in records}) > 1]
        if len(set(values(records, "end_to_end", "modeled_mips"))) > 1:
            differing.insert(0, "modeled_mips")
        traced = [r for r in records if r.get("per_layer")]
        for n, m in (traced[0]["per_layer"].items() if traced else ()):
            if is_modeled(n, m["unit"]) and len(
                    set(values(traced, "per_layer", n))) > 1:
                differing.append(n)
        if differing:
            bad += 1
            print(f"{workload}: MISMATCH over {len(records)} runs in "
                  f"{', '.join(differing)}")
        else:
            print(f"{workload}: modeled_mips and every modeled count "
                  f"identical over {len(records)} runs")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 2:
        return show(argv[1])
    if len(argv) == 3:
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
