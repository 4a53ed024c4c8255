#!/bin/sh
# Line count of first-party Rust: `*.rs` outside vendor/, perf/ and target/.
# "test" = files under a tests/ directory plus, in any other file, everything
# from a column-0 `#[cfg(test)]` line directly followed by a `mod` line to the
# end of the file. Prints: total test non-test.
cd "$(dirname "$0")/.." || exit 1
find . -name '*.rs' -not -path './vendor/*' -not -path './perf/*' -not -path '*/target/*' \
    -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_test = (FILENAME ~ /\/tests\//); armed = 0 }
    {
        total++
        if (in_test) { test++; next }
        if (armed) {
            armed = 0
            if ($0 ~ /^mod /) { in_test = 1; test += 2; next }
        }
        if ($0 == "#[cfg(test)]") armed = 1
    }
    END { printf "total %d  test %d  non-test %d\n", total, test, total - test }'
