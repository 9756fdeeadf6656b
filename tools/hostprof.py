#!/usr/bin/env python3
"""Fold host PC samples into top functions and a per-layer table.

    tools/hostprof.py BINARY FILE... [--top N]

Each FILE is written by `m3bench --host-profile=FILE` (tools/host_profile.hh)
and BINARY is the m3bench executable that wrote it. The samples of all
files are summed. PCs in the executable are resolved with one addr2line
run over the unique PCs; PCs in shared objects keep the symbol the
sampler found for them (libc's string functions often have none).
Link statically (-DCMAKE_EXE_LINKER_FLAGS=-static) to tell them apart:
the executable then carries libc, and its routines (memcpy, memcmp,
malloc, ...) fold into the libc layer under their own names.

Top functions are keyed by the innermost inlined function at the PC. The
layer of a sample is the src/<dir>/ of its innermost inlined frame that
lies in src/, so a std::map walk inlined into the kernel counts as
kernel. Samples in shared objects get a row per object (libc, libstdc++);
executable code with no frame in src/ (out-of-line standard library
templates) is "stl"; the context switch m3CtxSwap is assembly in
src/sim/ and counts as sim. Layers need line information: build with -g
(RelWithDebInfo, or Release plus -g); without it only the top functions
are meaningful.
"""

import argparse
import re
import subprocess
import sys
from collections import Counter

ADDR = re.compile(r"^0x[0-9a-f]+$")
# libc routines, as a statically linked executable names them.
LIBC_ROUTINE = re.compile(
    r"^(__(mem|str|stp|wmem|wcs|libc_)\w*|_int_\w+|mem(cpy|move|set|cmp|chr)"
    r"|str[a-z]+|malloc\w*|free|cfree|calloc|realloc|unlink_chunk"
    r"|tcache_\w+|__munmap|__mmap|munmap|mmap)$")


def read_samples(paths):
    """Sum (module, offset) -> count over the files; also the sampler's
    own symbol for shared-object PCs and the lost-sample count."""
    counts = Counter()
    syms = {}
    lost = 0
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.startswith("#"):
                    m = re.search(r"lost (\d+)", line)
                    lost += int(m.group(1)) if m else 0
                    continue
                fields = line.split()
                if len(fields) < 3:
                    continue
                key = (fields[1], int(fields[2], 16))
                counts[key] += int(fields[0])
                if len(fields) > 3:
                    syms[key] = fields[3]
    return counts, syms, lost


def resolve(binary, offsets):
    """offset -> [(function, file)] innermost first, by one addr2line."""
    if not offsets:
        return {}
    proc = subprocess.run(
        ["addr2line", "-e", binary, "-a", "-f", "-C", "-i"],
        input="".join("0x%x\n" % o for o in offsets),
        capture_output=True, text=True, check=True)
    frames = {}
    lines = proc.stdout.splitlines()
    i = 0
    for off in offsets:
        while i < len(lines) and not ADDR.match(lines[i]):
            i += 1
        i += 1
        chain = []
        while i + 1 < len(lines) and not ADDR.match(lines[i]):
            chain.append((lines[i], lines[i + 1].split(" ")[0]))
            i += 2
        frames[off] = chain or [("??", "??:0")]
    return frames


def layer_of(chain):
    if chain[0][0] == "m3CtxSwap":
        return "sim"
    if LIBC_ROUTINE.match(chain[0][0]) and "/src/" not in chain[0][1]:
        return "libc"
    for _, loc in chain:
        at = loc.rfind("/src/")
        if at >= 0:
            return loc[at + 5:].split("/")[0]
    if any("/c++/" in loc for _, loc in chain):
        return "stl"
    if all(loc.startswith("??") for _, loc in chain):
        return "? (no line info)"
    return "other"


def table(title, rows, total):
    print(title)
    for name, n in rows:
        print("  %6.1f %%  %7d  %s" % (100.0 * n / total, n, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    counts, syms, lost = read_samples(args.files)
    total = sum(counts.values())
    if total == 0:
        sys.exit("hostprof: no samples")
    exe_offsets = sorted(off for mod, off in counts if mod == "exe")
    frames = resolve(args.binary, exe_offsets)

    funcs = Counter()
    layers = Counter()
    ctx_swap = 0
    for (mod, off), n in counts.items():
        if mod == "exe":
            chain = frames[off]
            funcs["%s  [%s]" % (chain[0][0][:100], layer_of(chain))] += n
            layers[layer_of(chain)] += n
            ctx_swap += n if chain[0][0] == "m3CtxSwap" else 0
        else:
            lib = mod.split(".so")[0]
            funcs["%s  [%s]" % (syms.get((mod, off), "?"), lib)] += n
            layers[lib] += n

    in_exe = sum(n for (mod, _), n in counts.items() if mod == "exe")
    print("hostprof: %d samples from %d file(s), %d in the executable, "
          "%d lost" % (total, len(args.files), in_exe, lost))
    table("top %d functions (innermost inlined frame) [layer]:" % args.top,
          funcs.most_common(args.top), total)
    rows = []
    for name, n in layers.most_common():
        rows.append((name, n))
        if name == "sim" and ctx_swap:
            rows.append(("  of which m3CtxSwap", ctx_swap))
    table("layers (src/<dir>/ of the innermost frame in src/):", rows,
          total)


if __name__ == "__main__":
    main()
