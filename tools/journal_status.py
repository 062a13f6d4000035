#!/usr/bin/env python3
"""Inspect the DSE sweep cache and its write-ahead journals.

Shows, for an in-flight (possibly elastic) sweep, how many points each
journal holds, how many records are corrupt or truncated, per-app
coverage, and whether the union of all journals covers the full
864 x 5 plan.

Journal format (see src/common/journal.cpp):
  musa-journal v1
  <header cells, comma-separated>
  <key> \t <cells, comma-separated> \t <fnv1a64 hex of "key\tcells">

where <key> is "app|config-id". A key prefixed "FAIL!" is a quarantine
record: its four cells are {error class, stage, attempts, message}, and a
good row for the same key (in any journal) supersedes it. A key prefixed
"LEASE!" is an elastic-controller lease event (DESIGN.md §7h): its six
cells are {event, chunk, worker, begin, end, detail}. Lease events also
land in the `<cache>.leases` audit sidecar, which survives finalize; the
"lease accounting" section below reconciles them — every chunk a lease
ever touched must end committed, which is what the CI chaos leg greps
for after kill -9-ing workers mid-sweep.

Usage:
  tools/journal_status.py [cache.csv]     # default: dse_cache.csv
"""
import collections
import glob
import os
import sys

FULL_PLAN = 864 * 5  # Table I grid x five applications
FAIL_PREFIX = "FAIL!"  # reserved quarantine-record key prefix
LEASE_PREFIX = "LEASE!"  # reserved lease-event key prefix
# Writer vocabulary of src/common/journal.cpp known_lease_event(); an
# event outside it is writer/reader version skew, same as dse_lint.
KNOWN_LEASE_EVENTS = {"granted", "revoked", "committed", "spawned",
                      "respawned", "killed", "inprocess", "abandoned"}


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def read_journal(path):
    """Return (header, {key: cells}, {key: fail_cells}, [lease_cells],
    dropped_count)."""
    entries, fails, leases, dropped = {}, {}, [], 0
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if len(lines) < 2 or lines[0] != b"musa-journal v1":
        return None, entries, fails, leases, 0
    header = lines[1].decode(errors="replace").split(",")
    for line in lines[2:]:
        if not line:
            continue
        parts = line.split(b"\t")
        if len(parts) != 3:
            dropped += 1
            continue
        key, cells, checksum = parts
        if format(fnv1a64(key + b"\t" + cells), "016x").encode() != checksum:
            dropped += 1
            continue
        key = key.decode()
        cells = cells.decode().split(",")
        if key.startswith(FAIL_PREFIX):
            if len(cells) != 4:  # {class, stage, attempts, message}
                dropped += 1
                continue
            fails[key[len(FAIL_PREFIX):]] = cells
        elif key.startswith(LEASE_PREFIX):
            if len(cells) != 6:  # {event, chunk, worker, begin, end, detail}
                dropped += 1
                continue
            leases.append(cells)
        else:
            entries[key] = cells
    # Good beats FAIL within one journal (order-independent resolution).
    for key in entries:
        fails.pop(key, None)
    return header, entries, fails, leases, dropped


def cache_row_count(path):
    with open(path) as f:
        header = f.readline().rstrip("\n").split(",")
        good = bad = 0
        for line in f:
            if len(line.rstrip("\n").split(",")) == len(header):
                good += 1
            else:
                bad += 1  # truncated tail; run_dse will repair it
    return good, bad


def main():
    cache = sys.argv[1] if len(sys.argv) > 1 else "dse_cache.csv"
    journals = sorted(
        p for p in glob.glob(glob.escape(cache) + ".*")
        if p.endswith(".journal")
    )

    if os.path.exists(cache):
        good, bad = cache_row_count(cache)
        note = f" ({bad} malformed)" if bad else ""
        status = "complete" if good == FULL_PLAN and not bad else "PARTIAL"
        print(f"{cache}: {good}/{FULL_PLAN} rows{note} -> {status}")
    else:
        print(f"{cache}: absent")

    union, fail_union, lease_events = {}, {}, []
    # The lease audit sidecar is journal-format but not a working journal:
    # it survives finalize, so lease accounting works on a finished sweep.
    lease_log = cache + ".leases"
    for path in journals + ([lease_log] if os.path.exists(lease_log) else []):
        header, entries, fails, leases, dropped = read_journal(path)
        if header is None:
            print(f"{path}: not a musa journal")
            continue
        note = (f", {dropped} corrupt/truncated record(s) dropped"
                if dropped else "")
        qnote = f", {len(fails)} quarantined" if fails else ""
        lnote = f", {len(leases)} lease event(s)" if leases else ""
        print(f"{path}: {len(entries)} point(s){note}{qnote}{lnote}")
        union.update(entries)
        fail_union.update(fails)
        lease_events.extend(leases)

    # Good beats FAIL across journals too: a point one journal quarantined
    # but a sibling completed is not quarantined.
    for key in union:
        fail_union.pop(key, None)

    if journals:
        per_app = collections.Counter(k.split("|", 1)[0] for k in union)
        total = len(union)
        print(f"\njournaled union: {total}/{FULL_PLAN} points"
              f" ({100.0 * total / FULL_PLAN:.1f}%)")
        for app in sorted(per_app):
            print(f"  {app:8s} {per_app[app]}")
        if fail_union:
            print(f"\nquarantined: {len(fail_union)} point(s)"
                  " (rerun run_dse --retry-failed to recompute)")
            by_class = collections.Counter(
                cells[0] for cells in fail_union.values())
            for cls in sorted(by_class):
                print(f"  class {cls:9s} {by_class[cls]}")
            for key in sorted(fail_union):
                cls, stage, attempts, message = fail_union[key]
                print(f"  {key}: class={cls} stage={stage or 'unknown'}"
                      f" attempts={attempts} {message}")
    else:
        print("no journals found; nothing in flight")

    if lease_events:
        # Reconciliation: every chunk a lease ever touched must end with a
        # committed event — that is the elastic controller's convergence
        # claim, and what CI asserts after killing workers mid-sweep.
        by_event = collections.Counter(e[0] for e in lease_events)
        unknown = sorted({e[0] for e in lease_events} - KNOWN_LEASE_EVENTS)
        touched, committed = set(), set()
        for cells in lease_events:
            event, chunk = cells[0], cells[1]
            try:
                c = int(chunk)
            except ValueError:
                continue
            if c < 0:
                continue  # not chunk-scoped (spawn/kill bookkeeping)
            if event == "committed":
                committed.add(c)
            elif event in ("granted", "revoked", "inprocess"):
                touched.add(c)
        unaccounted = sorted(touched - committed)
        counts = ", ".join(
            f"{by_event[e]} {e}"
            for e in ("granted", "revoked", "committed", "spawned",
                      "respawned", "killed", "inprocess", "abandoned")
            if by_event[e])
        verdict = "OK" if not unaccounted and not unknown else "BAD"
        print(f"\nlease accounting: {counts} -> {verdict}")
        if unaccounted:
            print(f"  unaccounted chunk(s): {unaccounted}"
                  " (touched by a lease but never committed)")
        if unknown:
            print(f"  unknown lease event(s): {unknown}"
                  " (writer/reader version skew)")


if __name__ == "__main__":
    main()
