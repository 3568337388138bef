#!/bin/sh
# Fails when the arm64 build fuses a multiply and an add in module code.
#
# The Go spec lets the compiler fuse x*y + z into one FMA instruction, which
# rounds once instead of twice. amd64 at the default GOAMD64=v1 never fuses;
# arm64 does. A fused result-bearing sum gives an arm64 host different bits
# from an amd64 host, and the exact miners' answers (and the DP kernel's
# vector row update, which rounds each product) would no longer match.
# Writing float64(x*y) + z forbids the fusion.
#
# The check cross-compiles every package's test binary (a main package
# without tests is built instead) with GOARCH=arm64 and fails if
# `go tool objdump` shows FMADDD, FMSUBD, FNMADDD or FNMSUBD on a line of
# a non-_test.go file of this module. No arm64 machine or emulator is
# needed. Run from the repository root: `sh scripts/check_fma.sh` or
# `make check-fma`.
set -eu

GO=${GO:-go}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# Basenames of the module's non-test Go files: objdump prints each
# instruction's source line as basename:line.
find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' \
	-exec basename {} \; | sort -u >"$out/files"

$GO list -f '{{.ImportPath}} {{.Name}} {{len .TestGoFiles}}{{len .XTestGoFiles}}' ./... |
	while read -r pkg name tests; do
		bin="$out/$(echo "$pkg" | tr / _)"
		if [ "$tests" != 00 ]; then
			GOARCH=arm64 $GO test -c -o "$bin" "$pkg"
		elif [ "$name" = main ]; then
			GOARCH=arm64 $GO build -o "$bin" "$pkg"
		fi
	done

for bin in "$out"/umine*; do
	$GO tool objdump -s '^umine[./]' "$bin" >"$out/dump"
	awk -v files="$out/files" '
		BEGIN { while ((getline f < files) > 0) mod[f] = 1 }
		/^TEXT / { sym = $2 }
		/(FMADDD|FMSUBD|FNMADDD|FNMSUBD)/ {
			split($1, loc, ":")
			if (loc[1] in mod) print $1 "\t" sym
		}' "$out/dump" >>"$out/hits"
done
sort -u "$out/hits" >"$out/fused"

if [ -s "$out/fused" ]; then
	echo "check-fma: fused multiply-add on module source lines (GOARCH=arm64):"
	cat "$out/fused"
	echo "check-fma: wrap the product in float64(...) so it rounds on its own"
	exit 1
fi
echo "check-fma: no fused multiply-add in module code"
