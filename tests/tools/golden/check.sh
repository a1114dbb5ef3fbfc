#!/bin/sh
# Command-line transcripts: runs every case in cases.txt against the
# tools and compares stdout, stderr and the exit code with the committed
# transcript byte for byte.
#
#   check.sh TOOLS_DIR SOURCE_DIR GOLDEN_DIR OUT_DIR [--update]
#
# Each case runs from SOURCE_DIR with TOOLS_DIR first on PATH, so argv[0]
# is the bare tool name and input paths are relative to the source tree:
# the transcript holds neither the build directory nor the checkout
# location. Cases read /dev/null on stdin unless they redirect it. One
# transcript file per tool, <tool>.txt. Cases after the "## new behaviour"
# line of cases.txt are tagged [new behaviour] in the transcript. --update
# rewrites the goldens from OUT_DIR instead of comparing.
set -u
if [ $# -lt 4 ]; then
  echo "usage: check.sh TOOLS_DIR SOURCE_DIR GOLDEN_DIR OUT_DIR [--update]" >&2
  exit 2
fi
tools=$1
src=$2
golden=$3
out=$4
update=${5:-}

rm -rf "$out"
mkdir -p "$out"
PATH="$tools:$PATH"
export PATH
cd "$src" || exit 2

runs=0
tag=
while IFS= read -r line; do
  case $line in
    '## new behaviour') tag='[new behaviour]
' ;;
  esac
  case $line in '' | '#'*) continue ;; esac
  tool=${line%% *}
  eval "$line" </dev/null >"$out/stdout" 2>"$out/stderr"
  code=$?
  {
    printf '$ %s\n%s[exit %d]\n--- stdout\n' "$line" "$tag" "$code"
    cat "$out/stdout"
    printf -- '--- stderr\n'
    cat "$out/stderr"
    printf -- '--- end\n\n'
  } >>"$out/$tool.txt"
  runs=$((runs + 1))
done <"$golden/cases.txt"
rm -f "$out/stdout" "$out/stderr"

status=0
for f in "$out"/*.txt; do
  name=$(basename "$f")
  if [ "$update" = "--update" ]; then
    cp "$f" "$golden/$name"
  elif ! cmp "$golden/$name" "$f"; then
    diff -u "$golden/$name" "$f" | head -40
    echo "DIFF: $name differs from the golden transcript"
    status=1
  fi
done
[ $status -eq 0 ] && echo "cli transcripts: $runs cases byte-identical"
exit $status
