#!/usr/bin/env bash
# AddressSanitizer + UndefinedBehaviorSanitizer gate for the I/O and
# observability layers.
#
# Configures a dedicated build tree with -DRD_ENABLE_ASAN=ON (which
# compiles with -fsanitize=address,undefined and makes every UBSAN
# report fatal via -fno-sanitize-recover=undefined), builds
# the `asan_tests` aggregate target, and runs every test carrying the
# `asan` ctest label.  The label set lives in tests/CMakeLists.txt
# (rd_add_test ... LABELS asan): registering a new test there enrolls
# it in this gate automatically — this script never hand-lists test
# binaries, so a new target cannot be silently skipped.
#
#   scripts/check_asan.sh [build-dir]
#
# Exits nonzero on any test failure, reported memory error or
# undefined behavior.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DRD_ENABLE_ASAN=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" --target asan_tests

# halt_on_error turns the first ASAN report into a test failure (UBSAN
# reports are fatal by the compile flag above).
# ctest runs from each test's WORKING_DIRECTORY (the repo root), so
# data/ paths resolve as in the plain suite.
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
ctest --test-dir "$BUILD_DIR" -L asan --output-on-failure

echo "ASAN+UBSAN gate passed"
