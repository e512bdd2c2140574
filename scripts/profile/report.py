#!/usr/bin/env python3
"""Symbolise a sampler.c profile and print where the samples fall.

    report.py PROFILE BINARY

PROFILE is the file sampler.c wrote (the process's memory map, then one
instruction pointer per line); BINARY is the executable that ran, built
with line tables. Samples inside BINARY are symbolised with
`addr2line -i`, which names every function inlined at the address, and
reported three ways, 30 rows each:

  leaf             the innermost (possibly inlined) function at the sample
  function         the outermost one: the real symbol the CPU was in
  inline-inclusive every function on the inline chain (shares add up to
                   more than 100%)

Samples outside BINARY are counted by the file they fall in (libc, the
vdso, ...). Only the inline chain is known, not the call stack, so a
function's callees that were not inlined do not count towards it.

The profile also holds the process's malloc/calloc/realloc count. When
perfbench's output lies beside PROFILE (WORKLOAD.stdout for
WORKLOAD.prof, as profile.sh leaves it), the count is also printed per
op, over the run's `attempted` ops; it includes the set-up's allocations.
"""

import argparse
import collections
import json
import os
import re
import subprocess
import sys


def read_profile(path):
    """(maps, sample pcs, allocation count or None)."""
    maps, pcs, allocs, section = [], [], None, None
    with open(path) as f:
        for line in f:
            if line.startswith("# allocs"):
                allocs = int(line.split()[2])
            elif line.startswith("# maps"):
                section = "maps"
            elif line.startswith("# samples"):
                section = "samples"
            elif section == "maps":
                parts = line.split()
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                name = parts[5] if len(parts) > 5 else "[anon]"
                maps.append((lo, hi, int(parts[2], 16), name))
            elif section == "samples" and line.strip():
                pcs.append(int(line, 16))
    return maps, pcs, allocs


def attempted_ops(profile):
    """The `attempted` op count from perfbench's output beside `profile`."""
    path = os.path.splitext(profile)[0] + ".stdout"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        for line in f:
            if line.startswith("{") and '"attempted"' in line:
                return json.loads(line)["attempted"]
    return None


def load_segments(binary):
    """(file offset, vaddr, file size) of each PT_LOAD, from objdump -p."""
    text = subprocess.run(
        ["objdump", "-p", binary], capture_output=True, text=True, check=True
    ).stdout
    segs = []
    for m in re.finditer(
        r"LOAD off\s+(0x[0-9a-f]+) vaddr (0x[0-9a-f]+).*\n\s+filesz (0x[0-9a-f]+)", text
    ):
        segs.append(tuple(int(x, 16) for x in m.groups()))
    return segs


def to_vaddr(pc, maps, binary, segs):
    """The link-time address of `pc` in `binary`, or the mapped file's name."""
    real = os.path.realpath(binary)
    for lo, hi, off, name in maps:
        if lo <= pc < hi:
            if os.path.realpath(name) != real:
                return None, os.path.basename(name)
            fo = pc - lo + off
            for p_off, p_vaddr, p_filesz in segs:
                if p_off <= fo < p_off + p_filesz:
                    return fo - p_off + p_vaddr, None
            return None, os.path.basename(name)
    return None, "[unmapped]"


def inline_chains(binary, addrs):
    """addr -> [innermost, ..., outermost] function names."""
    if not addrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
        input="".join(f"{a:x}\n" for a in addrs),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    chains, cur = {}, None
    i = 0
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            cur = int(line, 16)
            chains[cur] = []
            i += 1
            continue
        chains[cur].append(line)
        i += 2  # function, then file:line
    return chains


def short(name):
    # Drop the symbol hash suffix and cap the width for readability.
    name = re.sub(r"::h[0-9a-f]{16}$", "", name)
    return name if len(name) <= 110 else name[:107] + "..."


def print_table(title, counts, total):
    print(f"\n{title} (of {total} samples)")
    for name, n in counts.most_common(30):
        print(f"  {100.0 * n / total:6.2f}%  {n:7d}  {short(name)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("binary")
    args = ap.parse_args()

    maps, pcs, allocs = read_profile(args.profile)
    if not pcs:
        sys.exit("no samples in " + args.profile)
    segs = load_segments(args.binary)
    per_addr = collections.Counter()
    outside = collections.Counter()
    for pc in pcs:
        va, other = to_vaddr(pc, maps, args.binary, segs)
        if va is None:
            outside[other] += 1
        else:
            per_addr[va] += 1
    chains = inline_chains(args.binary, sorted(per_addr))

    leaf, func, incl = (collections.Counter() for _ in range(3))
    for a, n in per_addr.items():
        chain = chains.get(a) or ["??"]
        leaf[chain[0]] += n
        func[chain[-1]] += n
        for name in set(chain):
            incl[name] += n
    for name, n in outside.items():
        for c in (leaf, func, incl):
            c["[" + name + "]"] += n

    total = len(pcs)
    print(f"{total} samples, {sum(per_addr.values())} in {os.path.basename(args.binary)}")
    if allocs is not None:
        ops = attempted_ops(args.profile)
        per_op = f", {allocs / ops:.2f} per op over {ops} ops" if ops else ""
        print(f"{allocs} allocations (malloc/calloc/realloc){per_op}")
    print_table("leaf", leaf, total)
    print_table("function", func, total)
    print_table("inline-inclusive", incl, total)


if __name__ == "__main__":
    main()
