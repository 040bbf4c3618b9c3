#!/usr/bin/env bash
# Header-includer gate, run by ci/check.sh (also under --fast): every
# header under src/ must be #included by some file in src/, examples/,
# bench/, tools/ or perfbench/ other than its own .cpp. A header that only
# tests include is code no driver runs; delete it with its tests instead
# of keeping it alive through them.
#
#   ci/check_headers.sh      # exit 1 and name every orphaned header
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS= read -r header; do
  rel="${header#src/}"
  own="${header%.hpp}.cpp"
  includers="$(grep -rlF --include='*.hpp' --include='*.cpp' \
    "#include \"$rel\"" src examples bench tools perfbench || true)"
  if [[ -z "$(grep -vxF "$own" <<<"$includers" || true)" ]]; then
    echo "check_headers: $header has no includer but tests/ and its own" \
      ".cpp" >&2
    status=1
  fi
done < <(find src -name '*.hpp' | sort)

if [[ "$status" -eq 0 ]]; then
  echo "header includers OK"
fi
exit "$status"
