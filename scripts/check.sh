#!/usr/bin/env bash
# Tier-1 verification plus the CI correctness matrix, runnable locally.
#
#   scripts/check.sh            # tier-1: configure, build, full ctest
#   scripts/check.sh --lint     # invariant linter + its selftest only
#   scripts/check.sh --analyze  # semantic analyzer over the source tree
#                               # (+ selftest, + lock_order.dot); no
#                               # configure, no build
#   scripts/check.sh --asan     # ASan+UBSan build, full ctest
#   scripts/check.sh --tsan     # TSan build, concurrent+fault tests
#   scripts/check.sh --portable # -DOPENAPI_NATIVE_ARCH=OFF build, kernel
#                               # parity + solver tests
#
# Each mode mirrors its CI job exactly (same OPENAPI_SANITIZE value, same
# ctest selection), so a green local run predicts a green matrix leg.
# Sanitizer and portable builds use their own build directories and
# never disturb the primary build/.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-}"
case "$mode" in
  "")
    cmake -B build -S .
    cmake --build build -j
    cd build && ctest --output-on-failure -j
    ;;
  --lint)
    python3 scripts/lint_invariants.py
    python3 scripts/lint_invariants_test.py
    ;;
  --analyze)
    # The analyzer walks the tree itself, so this runs on a fresh
    # checkout. Mirrors the CI lint job: same flags, same lock_order.dot
    # destination (created if build/ does not exist yet).
    python3 scripts/analyze_semantics.py --dot build/lock_order.dot
    python3 scripts/analyze_semantics_test.py
    ;;
  --asan)
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DOPENAPI_SANITIZE=address,undefined
    cmake --build build-asan -j
    cd build-asan && ctest --output-on-failure -j
    ;;
  --tsan)
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DOPENAPI_SANITIZE=thread
    cmake --build build-tsan -j
    # Concurrent and fault-injection tests self-select via their in-file
    # OPENAPI_TEST_LABELS markers (enforced by lint_invariants.py), so
    # this list never goes stale. Fault tests ride along because injected
    # failures exercise the retry/quarantine paths where races hide.
    cd build-tsan && ctest -L 'concurrent|fault' --output-on-failure -j 2
    ;;
  --portable)
    # The SIMD kernels are the only implementation, so their bit-parity
    # with the scalar test oracle must also hold on the portable build,
    # where the vector lanes lower to baseline SSE2 instead of the build
    # machine's widest ISA. The solver tests ride along because every
    # extraction runs on those kernels, and so does the ray screen's
    # parity with the unscreened loop, which compares extractions bit for
    # bit.
    cmake -B build-portable -S . -DOPENAPI_NATIVE_ARCH=OFF
    cmake --build build-portable -j
    cd build-portable && ctest \
      -R 'linalg_simd|forward_parallel|interpret_openapi|interpret_saturation|interpret_screen_parity' \
      --output-on-failure -j
    ;;
  *)
    echo "usage: $0 [--lint|--analyze|--asan|--tsan|--portable]" >&2
    exit 2
    ;;
esac
