#!/usr/bin/env bash
# Net non-test source lines between a base commit and HEAD.
#
# Usage: scripts/net_lines.sh BASE
#
# Counts the non-blank lines added and removed under crates/*/src between
# BASE and HEAD, leaving out test code: files named *_tests.rs, anything
# under a tests/ directory, and everything from a file's first `#[cfg(test)]`
# line onward (the in-file test module). Prints "+added -removed (net)".
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE" >&2
    exit 2
fi
base=$1

# The line number of the first `#[cfg(test)]` in a file at a revision; a
# file without one (or absent at that revision) is all non-test code.
test_cutoff() {
    git show "$1:$2" 2>/dev/null |
        awk '/^[[:space:]]*#\[cfg\(test\)\]/ { print NR; found = 1; exit }
             END { if (!found) print 1e18 }'
}

added=0
removed=0
while IFS= read -r path; do
    case "$path" in
        *_tests.rs | */tests/*) continue ;;
        crates/*/src/*.rs) ;;
        *) continue ;;
    esac
    read -r plus minus < <(
        git diff --no-renames --no-color -U0 "$base" HEAD -- "$path" |
            awk -v old_cut="$(test_cutoff "$base" "$path")" \
                -v new_cut="$(test_cutoff HEAD "$path")" '
                # "@@ -a[,b] +c[,d] @@": the first old and new line numbers.
                /^@@/ {
                    split(substr($2, 2), o, ",")
                    split(substr($3, 2), n, ",")
                    old = o[1]; new = n[1]; hunk = 1
                    next
                }
                !hunk { next }
                /^-/ {
                    if (old < old_cut + 0 && substr($0, 2) ~ /[^[:space:]]/) minus++
                    old++
                }
                /^\+/ {
                    if (new < new_cut + 0 && substr($0, 2) ~ /[^[:space:]]/) plus++
                    new++
                }
                END { print plus + 0, minus + 0 }
            '
    )
    added=$((added + plus))
    removed=$((removed + minus))
done < <(git diff --no-renames --name-only "$base" HEAD -- crates)

printf '+%d -%d (%+d)\n' "$added" "$removed" "$((added - removed))"
