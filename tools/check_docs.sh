#!/usr/bin/env bash
# Documentation lint: compile every public header of the documented
# layers standalone under clang's doxygen checker. Fails on any
# -Wdocumentation diagnostic (mismatched \param names, \return on a
# void function, malformed comment markup), so the doc-comment blocks
# the architecture docs link to cannot rot silently.
#
# Usage: tools/check_docs.sh [clang++ binary]
set -euo pipefail

cd "$(dirname "$0")/.."
CXX="${1:-clang++}"

if ! command -v "$CXX" > /dev/null; then
  echo "error: '$CXX' not found (pass a clang++ binary as \$1)" >&2
  exit 2
fi
if ! "$CXX" --version | grep -qi clang; then
  echo "error: '$CXX' is not clang (-Wdocumentation needs clang)" >&2
  exit 2
fi

status=0
for header in src/core/*.h src/maintenance/*.h src/distributed/*.h \
              src/distributed/transport/*.h src/obs/*.h \
              src/durability/*.h src/sim/intersect.h \
              src/util/containers.h src/util/mapped_file.h; do
  if ! "$CXX" -std=c++20 -fsyntax-only -Isrc \
       -Wdocumentation -Werror=documentation "$header"; then
    echo "FAIL: $header" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "docs check passed: all public headers clean under -Wdocumentation"
fi
exit "$status"
