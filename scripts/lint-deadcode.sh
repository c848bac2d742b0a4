#!/bin/sh
# lint-deadcode.sh reports the functions defined in internal/ that no binary
# links: it builds every command, every example and the fleetbench driver
# with inlining off, lists the linked text symbols with `go tool nm`, and
# prints each top-level `func` definition of the non-test sources in
# internal/ (internal/testutil excluded) that none of the binaries contains.
# Such a function is reached only from tests: delete it or move it into a
# _test.go file.  The script only reports — it prints the count and the list
# and exits 0 whatever it finds (a failed build is still an error).
set -eu
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/bin"

go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd fleetbench && go build -gcflags=all=-l -o "$tmp/bin/fleetbench" .)

# Linked symbols, normalised to pkg.Func or pkg.Type.Method: method
# receivers lose their (*...) wrapping, generic instantiations their [...].
for b in "$tmp"/bin/*; do
  go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
  sed -e 's/(\*\([^)]*\))/\1/' -e 's/\[[^]]*\]//g' | sort -u > "$tmp/linked"

# Definitions, in the same form, each with its file:line.
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/testutil/*' | sort |
  while read -r f; do
    pkg="dataproxy/$(dirname "$f")"
    grep -n '^func ' "$f" |
      sed -E \
        -e 's/^([0-9]+):func \(([A-Za-z_0-9]+ )?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\1 \3.\5/' \
        -e 's/^([0-9]+):func ([A-Za-z_0-9]+).*/\1 \2/' |
      awk -v pkg="$pkg" -v f="$f" '$2 != "init" { print pkg "." $2, f ":" $1 }'
  done | sort -k1,1 > "$tmp/defined"

awk 'NR == FNR { linked[$1] = 1; next } !($1 in linked) { print $2 "  " $1 }' \
  "$tmp/linked" "$tmp/defined" > "$tmp/dead"

echo "lint-deadcode: $(wc -l < "$tmp/dead" | tr -d ' ') functions in internal/ are linked by no command, example or fleetbench binary"
cat "$tmp/dead"
exit 0
