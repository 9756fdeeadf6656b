#!/bin/sh
# Coverage ledger: which lines of src/ do the tests and the golden
# artifacts actually run?
#
# Builds the tree with -O0 --coverage into BUILD_DIR, runs every ctest
# (the slow suite included) and tools/golden.sh, runs gcov's JSON
# output over every .gcda file and folds the executable lines per
# src/ file, taking the union over translation units (a header line
# counts as covered if any unit that includes it ran it). The result
# is one line per file: uncovered and executable line counts.
#
# Usage: tools/coverage.sh BUILD_DIR [jobs]            check the ledger
#        tools/coverage.sh BUILD_DIR [jobs] --record   rewrite the ledger
#
# The check fails when any file's uncovered count rises above its entry
# in tests/coverage.ledger (a file with no entry may have none): a
# ratchet, so new code comes with tests. A count that falls is
# progress; --record writes it down.
#
# Caveat: death tests abort their child process before libgcov writes
# its counters, so the lines of a panic() path that only a death test
# reaches read as uncovered.
set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
ledger="$root/tests/coverage.ledger"
[ $# -ge 1 ] || { echo "usage: $0 BUILD_DIR [jobs] [--record]" >&2; exit 2; }
dir=$1
jobs=${2:-$(nproc)}
record=${3:-}

cmake -B "$dir" -S "$root" -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS_DEBUG="-O0 --coverage" \
    -DCMAKE_EXE_LINKER_FLAGS=--coverage -DM3_SANITIZE= > /dev/null
cmake --build "$dir" -j "$jobs"
dir=$(cd "$dir" && pwd)

# Counters accumulate across runs; start from zero.
find "$dir" -name '*.gcda' -delete
ctest --test-dir "$dir" -j "$jobs" --output-on-failure
"$root/tools/golden.sh" "$dir"

json=$(mktemp -d)
trap 'rm -rf "$json"' EXIT
# -p names each output after its full object path, so units that share
# a source basename do not overwrite each other.
(cd "$json" && find "$dir" -name '*.gcda' -print0 |
    xargs -0 gcov -j -p > /dev/null)

python3 - "$root" "$json" "$ledger" "$record" <<'EOF'
import gzip, json, os, sys

root, jsondir, ledger, record = sys.argv[1:5]
src = os.path.join(root, "src") + os.sep
lines = {}  # src-relative path -> {line: covered}
for name in os.listdir(jsondir):
    with gzip.open(os.path.join(jsondir, name), "rt") as f:
        doc = json.load(f)
    cwd = doc.get("current_working_directory", "")
    for fi in doc["files"]:
        path = os.path.normpath(os.path.join(cwd, fi["file"]))
        if not path.startswith(src):
            continue
        seen = lines.setdefault(path[len(src):], {})
        for ln in fi["lines"]:
            n = ln["line_number"]
            seen[n] = seen.get(n, False) or ln["count"] > 0

rows = {}
for path, seen in lines.items():
    rows[path] = (sum(1 for c in seen.values() if not c), len(seen))
unc = sum(u for u, _ in rows.values())
exe = sum(e for _, e in rows.values())
summary = "total %d uncovered of %d executable lines (%.1f %% covered)" % (
    unc, exe, 100.0 * (exe - unc) / exe)

if record == "--record":
    with open(ledger, "w") as f:
        f.write("# Uncovered and executable lines per src/ file, written by\n"
                "# tools/coverage.sh BUILD_DIR --record. tools/check.sh fails\n"
                "# when a file's uncovered count rises above its entry.\n"
                "# %s\n" % summary)
        for path in sorted(rows):
            f.write("%s %d %d\n" % (path, rows[path][0], rows[path][1]))
    print("coverage: recorded %s (%s)" % (ledger, summary))
    sys.exit(0)

want = {}
with open(ledger) as f:
    for line in f:
        if line.startswith("#") or not line.strip():
            continue
        path, u, _ = line.split()
        want[path] = int(u)
rose = [p for p in sorted(rows) if rows[p][0] > want.get(p, 0)]
for p in rose:
    print("coverage: %s has %d uncovered lines, ledger allows %d"
          % (p, rows[p][0], want.get(p, 0)))
fell = sum(1 for p in rows if rows[p][0] < want.get(p, 0))
print("coverage: %s; %d files above the ledger, %d below it"
      % (summary, len(rose), fell))
sys.exit(1 if rose else 0)
EOF
