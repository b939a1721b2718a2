#!/usr/bin/env bash
# Non-test Rust lines per workspace crate and in total: every `.rs` file
# under `crates/<name>/src`, counted up to (not including) the file's
# first `#[cfg(test)]` line, or whole if it has none. Integration tests
# (`crates/<name>/tests`, `tests/`) are not counted.
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate under crates/)
set -euo pipefail
cd "$(dirname "$0")/.."

non_test_lines() {
    # awk stops counting a file at its first test module; xargs may split
    # the files over several awk runs, so their counts are summed.
    find "$1" -name '*.rs' -print0 | sort -z |
        xargs -0 -r awk 'FNR == 1 { counting = 1 }
            /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
            counting { n++ }
            END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

if [[ $# -eq 0 ]]; then
    # shellcheck disable=SC2046
    set -- $(cd crates && ls -d -- */ | tr -d /)
fi
total=0
for name in "$@"; do
    lines="$(non_test_lines "crates/${name}/src")"
    printf '%-10s %7d\n' "${name}" "${lines}"
    total=$((total + lines))
done
printf '%-10s %7d\n' total "${total}"
