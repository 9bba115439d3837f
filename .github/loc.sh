#!/usr/bin/env bash
# Prints the repository's size metric: the number of lines of non-test
# Go source outside perfbench/ (the benchmark's own module), counted
# over the files git tracks. Run from the repository root:
#
#   bash .github/loc.sh
set -euo pipefail
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^perfbench/' | xargs cat | wc -l
