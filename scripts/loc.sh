#!/bin/sh
# Prints the module's Go line counts: non-test and test files, each as all
# lines and as code lines (blank lines and // comment lines excluded), over
# the whole tree and without perfbench/. Run from the repository root:
# `sh scripts/loc.sh` or `make loc`. Run it on two commits and subtract to
# get a change's net LOC.
set -eu

# count prints "<all lines> <code lines>" summed over the files named on
# stdin.
count() {
	xargs -r cat | awk '
		{ all++ }
		/^[ \t]*$/ || /^[ \t]*\/\// { next }
		{ code++ }
		END { printf "%d %d\n", all, code }'
}

row() {
	label=$1
	shift
	set -- $(find . -name '*.go' ! -path './.bench_build/*' "$@" | count)
	printf '%-26s %7d %7d\n' "$label" "$1" "$2"
}

printf '%-26s %7s %7s\n' "" lines code
row "non-test" ! -name '*_test.go'
row "test" -name '*_test.go'
row "non-test, no perfbench/" ! -name '*_test.go' ! -path './perfbench/*'
row "test, no perfbench/" -name '*_test.go' ! -path './perfbench/*'
